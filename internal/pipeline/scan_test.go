package pipeline

// Tests for Stream, the scanner front end that decodes in the workers:
// result parity with decoding on the source (Run over a ReaderSource)
// at every worker count, slab ownership under the race detector,
// goroutine hygiene on cancel/early-close/sink-error, the corrupt-tail
// partial-results contract, and the decode-scaling regression gate.
// The stop, sink-error and corrupt-tail cases run against every entry
// point (see entryPoints).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/workload"
)

// entryPoint is one way into the engine over an in-memory capture.
type entryPoint struct {
	name string
	run  func(ctx context.Context, cfg Config, sink Sink) (Counts, error)
}

// entryPoints returns Run over a ReaderSource, Stream, and ShardedScan
// at the given shard count, all reading data, which must carry an
// index footer (encodeIndexed).
func entryPoints(t testing.TB, data []byte, shards int) []entryPoint {
	return []entryPoint{
		{"Run", func(ctx context.Context, cfg Config, sink Sink) (Counts, error) {
			return Run(ctx, NewReaderSource(bytes.NewReader(data)), cfg, sink)
		}},
		{"Stream", func(ctx context.Context, cfg Config, sink Sink) (Counts, error) {
			return Stream(ctx, bytes.NewReader(data), cfg, sink)
		}},
		{"ShardedScan", func(ctx context.Context, cfg Config, sink Sink) (Counts, error) {
			return ShardedScan(ctx, shardedSource(t, data, shards), cfg, sink)
		}},
	}
}

// collectResults streams data through run and returns each delivered
// Result by record index, plus the run's counts and error.
func collectResults(t *testing.T, run func(context.Context, Config, Sink) (Counts, error), cfg Config, n int) ([]core.Result, Counts, error) {
	t.Helper()
	out := make([]core.Result, n)
	seen := make([]bool, n)
	counts, err := run(context.Background(), cfg, func(it Item) error {
		if it.Err != nil {
			return fmt.Errorf("item %d: %w", it.Index, it.Err)
		}
		if it.Index < 0 || it.Index >= n {
			return fmt.Errorf("item index %d out of range", it.Index)
		}
		if seen[it.Index] {
			return fmt.Errorf("item %d delivered twice", it.Index)
		}
		seen[it.Index] = true
		out[it.Index] = it.Res
		return nil
	})
	for i, s := range seen {
		if !s {
			t.Fatalf("record %d never delivered", i)
		}
	}
	return out, counts, err
}

// TestScanMatchesSequentialByteParity is the e2e parity gate for the
// decode-in-worker front end: a fixed-seed 60k-connection scenario
// must yield, at workers 1, 4, and 16, the exact Result-for-Result
// output of both decoding on the source (Run over a ReaderSource) and
// the plain batch loop.
func TestScanMatchesSequentialByteParity(t *testing.T) {
	total := e2eTotal(t)
	s, err := workload.BuildScenario("scan-parity", total, 72, 4242)
	if err != nil {
		t.Fatal(err)
	}
	conns := s.Run(0)
	data := encode(t, conns)

	// Reference: batch classification in record order.
	cl := core.NewClassifier(core.DefaultConfig())
	want := make([]core.Result, len(conns))
	for i, c := range conns {
		want[i] = cl.Classify(c)
	}

	// Decode on the source goroutine.
	runSrc := func(ctx context.Context, cfg Config, sink Sink) (Counts, error) {
		return Run(ctx, NewReaderSource(bytes.NewReader(data)), cfg, sink)
	}
	srcRes, srcCounts, err := collectResults(t, runSrc, Config{Workers: 4, Ordered: true}, len(conns))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if srcCounts.Decoded != int64(len(conns)) {
		t.Fatalf("Run decoded %d of %d", srcCounts.Decoded, len(conns))
	}
	for i := range want {
		if srcRes[i] != want[i] {
			t.Fatalf("Run record %d: got %+v, want %+v", i, srcRes[i], want[i])
		}
	}
	stream := func(ctx context.Context, cfg Config, sink Sink) (Counts, error) {
		return Stream(ctx, bytes.NewReader(data), cfg, sink)
	}

	// Parallel decode at each worker count, ordered and unordered.
	for _, workers := range []int{1, 4, 16} {
		for _, ordered := range []bool{true, false} {
			t.Run(fmt.Sprintf("workers=%d/ordered=%v", workers, ordered), func(t *testing.T) {
				got, counts, err := collectResults(t, stream,
					Config{Workers: workers, Ordered: ordered, BatchSize: 64}, len(conns))
				if err != nil {
					t.Fatal(err)
				}
				if counts.Decoded != int64(len(conns)) || counts.Delivered != int64(len(conns)) {
					t.Fatalf("counts %+v, want %d decoded and delivered", counts, len(conns))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestScanOrderedDelivery pins strict index order from the reorder
// buffer under small batches and many workers.
func TestScanOrderedDelivery(t *testing.T) {
	data := encode(t, testConns(500))
	next := 0
	_, err := Stream(context.Background(), bytes.NewReader(data),
		Config{Workers: 8, BatchSize: 3, Depth: 16, Ordered: true},
		func(it Item) error {
			if it.Index != next {
				return fmt.Errorf("index %d delivered, want %d", it.Index, next)
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != 500 {
		t.Fatalf("delivered %d of 500", next)
	}
}

// TestScanSlabChurn runs the scan path with deliberately hostile
// recycling pressure — many workers, tiny batches, shallow queues —
// and checks every Result against a precomputed per-index expectation.
// Any scanner write into a handed-off slab, or cross-batch Connection
// aliasing, shows up as a wrong Result here (and as a report under
// -race, which scripts/check.sh runs this test suite with).
func TestScanSlabChurn(t *testing.T) {
	conns := testConns(4000)
	data := encode(t, conns)
	cl := core.NewClassifier(core.DefaultConfig())
	want := make([]core.Result, len(conns))
	for i, c := range conns {
		want[i] = cl.Classify(c)
	}
	for _, ordered := range []bool{true, false} {
		delivered := 0
		_, err := Stream(context.Background(), bytes.NewReader(data),
			Config{Workers: 8, BatchSize: 2, Depth: 4, Ordered: ordered},
			func(it Item) error {
				if it.Err != nil {
					return it.Err
				}
				if it.Res != want[it.Index] {
					return fmt.Errorf("record %d classified %+v, want %+v", it.Index, it.Res, want[it.Index])
				}
				delivered++
				return nil
			})
		if err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		if delivered != len(conns) {
			t.Fatalf("ordered=%v: delivered %d of %d", ordered, delivered, len(conns))
		}
	}
}

// TestScanCorruptTailPartialResults pins the exit-3 contract on every
// entry point: a capture whose tail is corrupt still delivers every
// record before the corruption, and the run reports ErrCorrupt after
// that good prefix has drained. Junk after the last record leaves no
// room for an index footer, so only Run and Stream read that capture;
// a stomped record in the last segment gives ShardedScan a union of
// good prefixes equal to the single-reader prefix.
func TestScanCorruptTailPartialResults(t *testing.T) {
	conns := testConns(300)
	junk := append(encode(t, conns), 0xC0, 0x09, 0xFF) // marker then junk ipver
	const corruptAt = 290
	stomped := corruptRecord(t, encodeIndexed(t, conns, 1), corruptAt)
	type tailCase struct {
		ep   entryPoint
		good int
	}
	var cases []tailCase
	for _, ep := range entryPoints(t, junk, 1)[:2] {
		ep.name += "/junk"
		cases = append(cases, tailCase{ep, len(conns)})
	}
	for _, ep := range entryPoints(t, stomped, 4) {
		ep.name += "/stomped"
		cases = append(cases, tailCase{ep, corruptAt})
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			delivered := 0
			counts, err := c.ep.run(context.Background(),
				Config{Workers: workers, Ordered: true, BatchSize: 16},
				func(it Item) error { delivered++; return nil })
			if !errors.Is(err, capture.ErrCorrupt) {
				t.Fatalf("%s workers=%d: err = %v, want ErrCorrupt", c.ep.name, workers, err)
			}
			if delivered != c.good {
				t.Fatalf("%s workers=%d: delivered %d, want the full %d-record good prefix", c.ep.name, workers, delivered, c.good)
			}
			if counts.Decoded != int64(c.good) || counts.Errors == 0 {
				t.Fatalf("%s workers=%d: counts %+v", c.ep.name, workers, counts)
			}
		}
	}
}

// TestScanCancelMidStream cancels a scan-path run partway through and
// requires a prompt, leak-free exit reporting context.Canceled.
func TestScanCancelMidStream(t *testing.T) {
	verify := checkGoroutines(t)
	defer verify()

	data := encode(t, testConns(5000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Stream(ctx, bytes.NewReader(data),
			Config{Workers: 4, BatchSize: 8, Depth: 16, Ordered: true},
			func(it Item) error {
				delivered++
				if delivered == 100 {
					cancel()
				}
				time.Sleep(10 * time.Microsecond) // keep the queues full
				return nil
			})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want nil or context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scan pipeline did not shut down after cancel")
	}
}

// TestScanSinkErrorDrains: a failing sink must stop a run on every
// entry point without leaking producers or workers, even with full
// queues.
func TestScanSinkErrorDrains(t *testing.T) {
	data := encodeIndexed(t, testConns(5000), 32)
	for _, ep := range entryPoints(t, data, 4) {
		t.Run(ep.name, func(t *testing.T) {
			verify := checkGoroutines(t)
			defer verify()
			sentinel := errors.New("sink exploded")
			delivered := 0
			_, err := ep.run(context.Background(),
				Config{Workers: 8, BatchSize: 4, Depth: 8},
				func(it Item) error {
					delivered++
					if delivered == 30 {
						return sentinel
					}
					return nil
				})
			if !errors.Is(err, sentinel) {
				t.Errorf("err = %v, want sink error", err)
			}
		})
	}
}

// TestScanErrStop: ErrStop ends a run early and cleanly on every entry
// point.
func TestScanErrStop(t *testing.T) {
	data := encodeIndexed(t, testConns(5000), 32)
	for _, ep := range entryPoints(t, data, 4) {
		t.Run(ep.name, func(t *testing.T) {
			verify := checkGoroutines(t)
			defer verify()
			delivered := 0
			counts, err := ep.run(context.Background(),
				Config{Workers: 4, BatchSize: 8},
				func(it Item) error {
					delivered++
					if delivered == 50 {
						return ErrStop
					}
					return nil
				})
			if err != nil {
				t.Fatalf("ErrStop surfaced as %v", err)
			}
			if counts.Delivered != 49 {
				t.Errorf("delivered count %d, want 49", counts.Delivered)
			}
		})
	}
}

// TestScanEarlyPipeClose: the writer side of a pipe vanishing must
// surface like any source read error, with the good prefix delivered.
func TestScanEarlyPipeClose(t *testing.T) {
	verify := checkGoroutines(t)
	defer verify()

	data := encode(t, testConns(800))
	pr, pw := io.Pipe()
	go func() {
		pw.Write(data[:len(data)/2])
		pw.CloseWithError(io.ErrClosedPipe)
	}()
	delivered := 0
	counts, err := Stream(context.Background(), pr,
		Config{Workers: 4, Ordered: true, BatchSize: 16},
		func(it Item) error { delivered++; return nil })
	if !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, capture.ErrCorrupt) {
		t.Errorf("err = %v, want ErrClosedPipe or ErrCorrupt", err)
	}
	if int64(delivered) != counts.Decoded {
		t.Errorf("delivered %d of %d decoded", delivered, counts.Decoded)
	}
	if delivered == 0 {
		t.Error("no good prefix delivered")
	}
}

// TestScanTelemetrySplit pins the scan/decode stage attribution: on
// Stream both the scanner stage and the per-worker decode stage must
// record latency observations, and Run, which decodes on its source,
// attributes the whole source stage to decode.
func TestScanTelemetrySplit(t *testing.T) {
	data := encode(t, testConns(500))
	tel := NewTelemetry(nil)
	counts, err := Stream(context.Background(), bytes.NewReader(data),
		Config{Workers: 2, BatchSize: 16, Telemetry: tel}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Classified != 500 {
		t.Fatalf("classified %d of 500", counts.Classified)
	}
	for _, st := range []int{stageScan, stageDecode, stageClassify, stageSink} {
		if s := tel.stageLat[st].Snapshot(); s.Count == 0 {
			t.Errorf("stage %q has no latency observations on the scan path", stageNames[st])
		}
	}

	// Decoding on the source never touches the scan stage.
	tel2 := NewTelemetry(nil)
	if _, err := Run(context.Background(), NewReaderSource(bytes.NewReader(data)),
		Config{Workers: 2, Telemetry: tel2}, nil); err != nil {
		t.Fatal(err)
	}
	if s := tel2.stageLat[stageScan].Snapshot(); s.Count != 0 {
		t.Errorf("Run recorded %d scan-stage observations", s.Count)
	}
	if s := tel2.stageLat[stageDecode].Snapshot(); s.Count == 0 {
		t.Error("Run recorded no decode-stage observations")
	}
}

// TestDecodeParallelScalingGate is the scaling regression gate wired
// into scripts/check.sh: with TAMPERDETECT_SCALING_GATE=1 on a host
// with >=4 CPUs, the parallel decode path at 16 workers must ingest at
// least 2x the records/sec of 1 worker. On smaller hosts it skips —
// parallel speedup cannot exist without parallel hardware — and the
// check script reports the skip.
func TestDecodeParallelScalingGate(t *testing.T) {
	if os.Getenv("TAMPERDETECT_SCALING_GATE") == "" {
		t.Skip("set TAMPERDETECT_SCALING_GATE=1 to run the decode scaling gate")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling gate needs >=4 CPUs, have %d", runtime.NumCPU())
	}
	s, err := workload.BuildScenario("scan-scaling", 120000, 72, 7)
	if err != nil {
		t.Fatal(err)
	}
	data := encode(t, s.Run(0))

	throughput := func(workers int) float64 {
		best := 0.0
		for run := 0; run < 3; run++ {
			start := time.Now()
			counts, err := Stream(context.Background(), bytes.NewReader(data),
				Config{Workers: workers, BatchSize: 64}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rps := float64(counts.Classified) / time.Since(start).Seconds(); rps > best {
				best = rps
			}
		}
		return best
	}
	one := throughput(1)
	sixteen := throughput(16)
	t.Logf("decode+classify throughput: workers=1 %.0f rec/s, workers=16 %.0f rec/s (%.2fx)",
		one, sixteen, sixteen/one)
	if sixteen < 2*one {
		t.Errorf("scaling regression: workers=16 (%.0f rec/s) is only %.2fx workers=1 (%.0f rec/s); gate requires >=2x",
			sixteen, sixteen/one, one)
	}
}
