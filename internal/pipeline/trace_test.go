package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/trace"
)

// traceProfile runs Stream over data with a profiling tracer attached
// and returns every span it emitted.
func traceProfile(t *testing.T, data []byte, cfg Config, sampleEvery int) []trace.Span {
	t.Helper()
	tr := trace.New(trace.Config{
		TraceID:     0xfeed,
		SampleEvery: sampleEvery,
		MaxProfile:  1 << 20,
	})
	cfg.Tracer = tr
	if _, err := Stream(context.Background(), bytes.NewReader(data), cfg, nil); err != nil {
		t.Fatal(err)
	}
	if d := tr.ProfileDropped(); d != 0 {
		t.Fatalf("profile dropped %d spans; raise MaxProfile", d)
	}
	return tr.TakeProfile()
}

// TestTraceStageSpanCoverageAndLineage checks that a traced scan run
// emits every stage span with the documented parentage: batch spans
// parent to their batch's scan span, record spans parent to their
// stage's batch span, and per-record spans appear exactly at the
// head-sampled indexes.
func TestTraceStageSpanCoverageAndLineage(t *testing.T) {
	const n, every = 300, 64
	data := encode(t, testConns(n))
	cfg := Config{Workers: 3, BatchSize: 32, Observe: func(worker int, it Item) {}}
	spans := traceProfile(t, data, cfg, every)

	byID := make(map[uint64]trace.Span, len(spans))
	byName := make(map[string][]trace.Span)
	for _, s := range spans {
		if s.TraceID != 0xfeed {
			t.Fatalf("span %q carries trace %x, want feed", s.Name, s.TraceID)
		}
		byID[s.SpanID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range []string{
		SpanScan, trace.QueueWaitName, SpanDecode, SpanClassify,
		SpanObserve, SpanSink,
		SpanDecode + ".record", SpanClassify + ".record",
		SpanObserve + ".record", SpanSink + ".record",
	} {
		if len(byName[name]) == 0 {
			t.Errorf("no %q spans emitted", name)
		}
	}

	// Batch spans parent to a scan span; record spans parent to a
	// batch span of their own stage.
	for _, s := range spans {
		switch {
		case s.Name == SpanScan:
			if s.Parent != 0 {
				t.Errorf("scan span parents to %x, want root (0)", s.Parent)
			}
		case strings.HasSuffix(s.Name, ".record"):
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("%s record span %d: parent %x not emitted", s.Name, s.Record, s.Parent)
				continue
			}
			if want := strings.TrimSuffix(s.Name, ".record"); p.Name != want {
				t.Errorf("%s record span parents to %q, want %q", s.Name, p.Name, want)
			}
			if s.Record%every != 0 || s.Count != 1 {
				t.Errorf("record span %s at index %d count %d: not head-sampled", s.Name, s.Record, s.Count)
			}
			if s.Record < p.Record || s.Record >= p.Record+int64(p.Count) {
				t.Errorf("%s record %d outside parent batch [%d,%d)", s.Name, s.Record, p.Record, p.Record+int64(p.Count))
			}
		default:
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("%s span (record %d): parent %x not emitted", s.Name, s.Record, s.Parent)
				continue
			}
			if p.Name != SpanScan {
				t.Errorf("%s span parents to %q, want %q", s.Name, p.Name, SpanScan)
			}
		}
	}

	// Every sampled index gets exactly one record span per stage.
	for _, stage := range []string{SpanDecode, SpanClassify, SpanObserve, SpanSink} {
		got := make(map[int64]int)
		for _, s := range byName[stage+".record"] {
			got[s.Record]++
		}
		for i := int64(0); i < n; i += every {
			if got[i] != 1 {
				t.Errorf("%s.record at index %d emitted %d times, want 1", stage, i, got[i])
			}
		}
		if len(got) != (n+every-1)/every {
			t.Errorf("%s.record covers %d indexes, want %d", stage, len(got), (n+every-1)/every)
		}
	}

	// Batch spans cover every record exactly once per stage.
	for _, stage := range []string{SpanScan, SpanDecode, SpanClassify, SpanSink} {
		var covered int64
		for _, s := range byName[stage] {
			covered += int64(s.Count)
		}
		if covered != n {
			t.Errorf("%s batch spans cover %d records, want %d", stage, covered, n)
		}
	}
}

// TestStageClockShared pins the one stage clock: each stage boundary
// is read once and feeds both the telemetry histogram and the span, so
// for every stage the histogram's Sum equals the summed Dur of that
// stage's batch spans exactly — on Stream, where the workers decode,
// and on Run, where the producer does.
func TestStageClockShared(t *testing.T) {
	data := encode(t, testConns(2000))
	for _, ep := range entryPoints(t, data, 1)[:2] {
		tel := NewTelemetry(nil)
		tr := trace.New(trace.Config{MaxProfile: 1 << 20})
		cfg := Config{Workers: 3, BatchSize: 16, Telemetry: tel, Tracer: tr,
			Observe: func(int, Item) {}}
		if _, err := ep.run(context.Background(), cfg, nil); err != nil {
			t.Fatal(err)
		}
		if d := tr.ProfileDropped(); d != 0 {
			t.Fatalf("%s: profile dropped %d spans", ep.name, d)
		}
		var dur [numStages]int64
		var spans [numStages]int
		for _, sp := range tr.TakeProfile() {
			for st, name := range stageNames {
				if sp.Name == name {
					dur[st] += sp.Dur
					spans[st]++
				}
			}
		}
		for st := range stageNames {
			h := tel.stageLat[st].Snapshot()
			if h.Count != uint64(spans[st]) || h.Sum != dur[st] {
				t.Errorf("%s %s: histogram count %d sum %d, spans %d summing %d",
					ep.name, stageNames[st], h.Count, h.Sum, spans[st], dur[st])
			}
			if h.Count == 0 && st != stageScan {
				t.Errorf("%s %s: no batches timed", ep.name, stageNames[st])
			}
		}
	}
}

// TestTraceShardedScanCarriesShard checks that ShardedScan stamps the
// owning segment on its spans: scan spans appear for every shard, and
// worker/sink spans inherit the shard of the batch they process.
func TestTraceShardedScanCarriesShard(t *testing.T) {
	const n, shards = 400, 4
	data := encodeIndexed(t, testConns(n), 25)
	tr := trace.New(trace.Config{SampleEvery: 64, MaxProfile: 1 << 20})
	cfg := Config{Workers: 3, BatchSize: 32, Tracer: tr}
	src := shardedSource(t, data, shards)
	if _, _, _, err := collectSharded(t, src, cfg, n); err != nil {
		t.Fatal(err)
	}
	spans := tr.TakeProfile()

	scanShards := make(map[int32]bool)
	for _, s := range spans {
		switch s.Name {
		case SpanScan:
			if s.Shard < 0 || s.Shard >= shards {
				t.Fatalf("scan span with shard %d, want [0,%d)", s.Shard, shards)
			}
			scanShards[s.Shard] = true
		case SpanDecode, SpanClassify, SpanSink:
			if s.Shard < 0 || s.Shard >= shards {
				t.Errorf("%s span with shard %d, want [0,%d)", s.Name, s.Shard, shards)
			}
		}
	}
	if len(scanShards) != shards {
		t.Errorf("scan spans cover %d shards, want %d", len(scanShards), shards)
	}
}

// canonicalSpanKeys reduces a span set to its timing-free identity:
// the sorted multiset of (name, record, count, shard) keys. Worker
// assignment, span IDs, and wall-clock times legitimately vary between
// runs; which work was traced must not.
func canonicalSpanKeys(spans []trace.Span) string {
	keys := make([]string, len(spans))
	for i, s := range spans {
		keys[i] = fmt.Sprintf("%s|%d|%d|%d", s.Name, s.Record, s.Count, s.Shard)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestTraceSampledSetDeterministic checks the reproducibility
// contract: head sampling is keyed on record index alone, so two runs
// over the same capture trace byte-identical span sets (modulo timing
// and worker placement) at any worker count.
func TestTraceSampledSetDeterministic(t *testing.T) {
	data := encode(t, testConns(300))
	var want string
	for _, workers := range []int{1, 4, 16} {
		for run := 0; run < 2; run++ {
			spans := traceProfile(t, data, Config{Workers: workers, BatchSize: 32}, 32)
			got := canonicalSpanKeys(spans)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("workers=%d run=%d traced a different span set:\ngot:\n%s\nwant:\n%s",
					workers, run, got, want)
			}
		}
	}
}

// TestTraceHotPathAllocationFree pins the tracing hot-path contract:
// with a Tracer attached but per-record sampling off, the scan path
// allocates nothing extra per record — batch spans land in
// preallocated ring slots via atomic stores. Mirrors the telemetry
// allocation test; the bound tolerates fixed per-run setup (rings,
// interning) but is far below one allocation per record.
func TestTraceHotPathAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	base := testConns(500)
	var all []*capture.Connection
	for len(all) < 40000 {
		all = append(all, base...)
	}
	all = all[:40000]
	data := encode(t, all)

	run := func(traced bool) float64 {
		cfg := Config{Workers: 4}
		if traced {
			cfg.Tracer = trace.New(trace.Config{SampleEvery: 0})
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Stream(context.Background(), bytes.NewReader(data), cfg, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(all))
	}
	run(false) // warm pools
	run(true)
	off := run(false)
	on := run(true)
	if extra := on - off; extra > 0.02 {
		t.Errorf("tracer (sampling off) costs %.4f extra allocs/record (off %.4f, on %.4f), want ~0",
			extra, off, on)
	}
}

// TestTraceTracezScrapeDuringShutdown races live /debug/tracez scrapes
// against span emission and a mid-run graceful cancel: scrapes must
// stay consistent (valid JSON, matching trace ID) while workers emit,
// and nothing may leak when the run is torn down under them.
func TestTraceTracezScrapeDuringShutdown(t *testing.T) {
	defer checkGoroutines(t)()
	base := testConns(400)
	var all []*capture.Connection
	for i := 0; i < 25; i++ {
		all = append(all, base...)
	}
	data := encode(t, all)

	tr := trace.New(trace.Config{TraceID: 0xfeed, SampleEvery: 8})
	h := trace.TracezHandler(tr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var delivered atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := Stream(ctx, bytes.NewReader(data), Config{Workers: 4, Tracer: tr}, func(Item) error {
			if delivered.Add(1) == int64(len(all)/2) {
				cancel() // graceful mid-run shutdown
			}
			return nil
		})
		done <- err
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tracez?format=json", nil))
				if rec.Code != 200 {
					t.Errorf("tracez scrape: status %d", rec.Code)
					return
				}
				var view struct {
					TraceID string `json:"trace_id"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
					t.Errorf("tracez scrape not JSON: %v", err)
					return
				}
			}
		}()
	}

	err := <-done
	close(stop)
	wg.Wait()
	if err != nil && err != context.Canceled {
		t.Fatalf("Stream: %v", err)
	}
	// One final scrape after shutdown still serves the run's spans.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tracez?format=json", nil))
	if !bytes.Contains(rec.Body.Bytes(), []byte("000000000000feed")) {
		t.Errorf("post-run tracez scrape missing trace ID: %s", rec.Body.Bytes())
	}
}

// TestTracePanicRecordsFlightEvent checks that classifier panic
// containment leaves evidence in the flight recorder: a poisoned
// record produces a structured "classifier panic contained" event with
// the record index attached.
func TestTracePanicRecordsFlightEvent(t *testing.T) {
	fl := trace.NewFlight(32)
	tr := trace.New(trace.Config{Flight: fl})
	valid := testConns(100)
	mixed := append([]*capture.Connection{}, valid[:50]...)
	mixed = append(mixed, nil) // poisons the classifier (nil deref)
	mixed = append(mixed, valid[50:]...)

	counts, err := Run(context.Background(), &poisonSource{conns: mixed},
		Config{Workers: 2, Tracer: tr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Errors != 1 {
		t.Fatalf("counts.Errors = %d, want 1", counts.Errors)
	}
	var hit bool
	for _, ev := range fl.Events() {
		if ev.Msg != "classifier panic contained" {
			continue
		}
		hit = true
		var rec bool
		for _, a := range ev.Attrs {
			if a.Key == "record" && a.Value == "50" {
				rec = true
			}
		}
		if !rec {
			t.Errorf("panic event missing record=50 attr: %+v", ev)
		}
	}
	if !hit {
		t.Errorf("no flight event for contained panic; events: %+v", fl.Events())
	}
}
