package tamperdetect

// This file holds the benchmark harness that regenerates every paper
// table and figure (run `go test -bench=. -benchmem`), one benchmark
// per experiment, plus the ablation benches DESIGN.md calls out. Each
// experiment benchmark builds its dataset once (shared across benches)
// and times the aggregation that produces the table/figure, reporting
// the headline statistic as a custom metric so a bench run doubles as
// a results table.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/testlists"
	"tamperdetect/internal/trace"
	"tamperdetect/internal/workload"
)

// benchDataset is built once and shared by the experiment benchmarks.
var (
	benchOnce  sync.Once
	benchScen  *workload.Scenario
	benchConns []*capture.Connection
	benchRecs  []analysis.Record
)

func benchData(b *testing.B) ([]*capture.Connection, []analysis.Record, *workload.Scenario) {
	b.Helper()
	benchOnce.Do(func() {
		s, err := workload.BuildScenario("bench", 20000, 14*24, 2023)
		if err != nil {
			b.Fatalf("BuildScenario: %v", err)
		}
		benchScen = s
		benchConns = s.Run(0)
		benchRecs = analysis.Analyze(benchConns, s.Geo, core.NewClassifier(core.DefaultConfig()), 0)
	})
	if benchScen == nil {
		b.Fatal("bench dataset failed to build")
	}
	return benchConns, benchRecs, benchScen
}

// BenchmarkScenarioSimulation times the full substrate: packet-level
// simulation of client/censor/server plus capture, per connection, on
// one warmed Simulator — the way RunSpecs and StreamSpecs workers run
// it. One op is one connection.
func BenchmarkScenarioSimulation(b *testing.B) {
	s, err := workload.BuildScenario("bench-sim", 2000, 24, 7)
	if err != nil {
		b.Fatal(err)
	}
	specs := s.Specs()
	sim := workload.NewSimulator(s.Universe, s.CaptureConfig, s.Impairments)
	for i := range specs {
		sim.Simulate(&specs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sim.Simulate(&specs[i%len(specs)]) == nil {
			b.Fatal("connection not sampled")
		}
	}
}

// BenchmarkClassify times the core classifier per connection.
func BenchmarkClassify(b *testing.B) {
	conns, _, _ := benchData(b)
	cl := core.NewClassifier(core.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.Classify(conns[i%len(conns)])
	}
}

// BenchmarkTable1StageBreakdown regenerates §4.1's stage statistics.
func BenchmarkTable1StageBreakdown(b *testing.B) {
	_, recs, _ := benchData(b)
	var s analysis.StageStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.ComputeStageStats(recs)
	}
	b.ReportMetric(100*s.PossiblyTamperedShare(), "possibly-tampered-%")
	b.ReportMetric(100*s.SignatureCoverage(), "signature-coverage-%")
}

// BenchmarkFigure1CountryComposition regenerates Figure 1.
func BenchmarkFigure1CountryComposition(b *testing.B) {
	_, recs, _ := benchData(b)
	var comps []analysis.SignatureComposition
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comps = analysis.CountryBySignature(recs)
	}
	b.ReportMetric(float64(len(comps)), "signatures")
}

// BenchmarkFigure2IPIDCDF regenerates Figure 2.
func BenchmarkFigure2IPIDCDF(b *testing.B) {
	_, recs, _ := benchData(b)
	var cdfs analysis.EvidenceCDFs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdfs = analysis.ComputeEvidenceCDFs(recs, 1000)
	}
	if base := cdfs.IPID[core.SigNotTampering]; base != nil {
		b.ReportMetric(100*base.At(1), "baseline-P(delta<=1)-%")
	}
}

// BenchmarkFigure3TTLCDF regenerates Figure 3 (same computation over
// the TTL dimension; kept separate to mirror the paper's figures).
func BenchmarkFigure3TTLCDF(b *testing.B) {
	_, recs, _ := benchData(b)
	var cdfs analysis.EvidenceCDFs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdfs = analysis.ComputeEvidenceCDFs(recs, 1000)
	}
	if c := cdfs.TTL[core.SigPSHRSTNeqRST]; c != nil && c.Len() > 0 {
		b.ReportMetric(100*(1-c.At(10)), "RSTneq-P(ttl-delta>10)-%")
	}
}

// BenchmarkFigure4SignatureByCountry regenerates Figure 4.
func BenchmarkFigure4SignatureByCountry(b *testing.B) {
	_, recs, _ := benchData(b)
	var ds []analysis.CountryDistribution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds = analysis.SignatureByCountry(recs)
	}
	for _, d := range ds {
		if d.Country == "TM" {
			b.ReportMetric(100*d.TamperedShare(), "TM-tampered-%")
		}
	}
}

// BenchmarkFigure5ASNView regenerates Figure 5's per-AS views.
func BenchmarkFigure5ASNView(b *testing.B) {
	_, recs, _ := benchData(b)
	var spreadCN, spreadRU float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spreadCN = analysis.SpreadOfASNView(analysis.ASNView(recs, "CN"))
		spreadRU = analysis.SpreadOfASNView(analysis.ASNView(recs, "RU"))
	}
	b.ReportMetric(100*spreadCN, "CN-spread-pp")
	b.ReportMetric(100*spreadRU, "RU-spread-pp")
}

// BenchmarkFigure6TimeSeries regenerates Figure 6's longitudinal
// Post-ACK/Post-PSH series for the six countries of interest.
func BenchmarkFigure6TimeSeries(b *testing.B) {
	_, recs, _ := benchData(b)
	countries := []string{"CN", "DE", "GB", "IN", "IR", "RU", "US"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range countries {
			c := c
			_ = analysis.TimeSeries(recs, 1,
				func(r *analysis.Record) bool { return r.Country == c },
				analysis.PostACKPSHMatch)
		}
	}
}

// BenchmarkFigure7VersionAndProtocol regenerates Figures 7a and 7b.
func BenchmarkFigure7VersionAndProtocol(b *testing.B) {
	_, recs, _ := benchData(b)
	var slopeV, slopeP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, slopeV = analysis.IPVersionCompare(recs, 50)
		_, slopeP = analysis.ProtocolCompare(recs, 30)
	}
	b.ReportMetric(slopeV, "fig7a-slope")
	b.ReportMetric(slopeP, "fig7b-slope")
}

// BenchmarkTable2Categories regenerates Table 2 for the paper's
// regions.
func BenchmarkTable2Categories(b *testing.B) {
	_, recs, scen := benchData(b)
	regions := []string{"", "CN", "DE", "GB", "IN", "IR", "KR", "MX", "PE", "RU", "US"}
	var global analysis.CategoryTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range regions {
			t := analysis.ComputeCategoryTable(recs, scen.Universe, r, 2)
			if r == "" {
				global = t
			}
		}
	}
	if len(global.Rows) > 0 {
		b.ReportMetric(100*global.Rows[0].TamperedShare, "global-top-category-%")
	}
}

// BenchmarkTable3ListCoverage regenerates Table 3.
func BenchmarkTable3ListCoverage(b *testing.B) {
	_, recs, scen := benchData(b)
	sensitive := func(d *domains.Domain) bool {
		switch d.Category {
		case domains.AdultThemes, domains.News, domains.SocialNetworks, domains.Chat:
			return true
		default:
			return false
		}
	}
	suite := testlists.BuildSuite(scen.Universe, sensitive, testlists.DefaultBuildConfig())
	regions := []string{"", "CN", "IN", "IR", "KR", "MX", "PE", "RU", "US"}
	var rows []analysis.ListCoverageRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.ListCoverageTable(recs, suite, regions, 2)
	}
	for _, r := range rows {
		if r.ListName == "Union: Citizenlab + Greatfire" {
			b.ReportMetric(100*r.Exact["CN"], "curated-CN-coverage-%")
		}
	}
}

// BenchmarkFigure8Iran2022 regenerates the §5.6 case study end to end
// (its own scenario, so the simulation cost is inside the loop).
func BenchmarkFigure8Iran2022(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := workload.Iran2022Scenario(3000, uint64(2022+i))
		if err != nil {
			b.Fatal(err)
		}
		conns := s.Run(0)
		recs := analysis.Analyze(conns, s.Geo, core.NewClassifier(core.DefaultConfig()), 0)
		_ = analysis.TimeSeries(recs, 24, nil, analysis.AnySignatureMatch)
	}
}

// BenchmarkFigure9PerSignatureSeries regenerates Appendix A's
// per-signature series.
func BenchmarkFigure9PerSignatureSeries(b *testing.B) {
	_, recs, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sig := range core.AllSignatures() {
			sig := sig
			_ = analysis.TimeSeries(recs, 6, nil,
				func(r *analysis.Record) bool { return r.Res.Signature == sig })
		}
	}
}

// BenchmarkFigure10OverlapMatrix regenerates Appendix B's IP-domain
// consistency matrix.
func BenchmarkFigure10OverlapMatrix(b *testing.B) {
	_, recs, _ := benchData(b)
	var m analysis.OverlapMatrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = analysis.ComputeOverlapMatrix(recs)
	}
	b.ReportMetric(m.DiagonalMass(), "diagonal-mass")
}

// BenchmarkScannerValidation regenerates the §4.2 numbers.
func BenchmarkScannerValidation(b *testing.B) {
	conns, recs, _ := benchData(b)
	var s analysis.ScannerStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.ComputeScannerStats(recs, conns)
	}
	if s.SYNRSTMatches > 0 {
		b.ReportMetric(100*float64(s.SYNRSTZMap)/float64(s.SYNRSTMatches), "zmap-share-of-SYNRST-%")
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationReconstruction measures the value of header-based
// order reconstruction: the fraction of shuffled tampered connections
// whose signature changes when classification trusts log order.
func BenchmarkAblationReconstruction(b *testing.B) {
	conns, _, _ := benchData(b)
	cl := core.NewClassifier(core.DefaultConfig())
	changed, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := conns[i%len(conns)]
		ordered := cl.Classify(c)
		// Degrade: pretend all packets share one second, destroying
		// cross-second ordering information, then classify the raw log
		// order via a copy whose timestamps defeat reconstruction.
		degraded := *c
		degraded.Packets = append([]capture.PacketRecord(nil), c.Packets...)
		for j := range degraded.Packets {
			degraded.Packets[j].Timestamp = 0
			degraded.Packets[j].Seq = 0 // no sequence hints either
		}
		raw := cl.Classify(&degraded)
		total++
		if raw.Signature != ordered.Signature {
			changed++
		}
	}
	b.ReportMetric(100*float64(changed)/float64(total), "verdict-change-%")
}

// BenchmarkAblationCaptureDepth sweeps the first-N-packets cap and
// reports the Post-Data signature loss at N=6 versus the paper's N=10.
func BenchmarkAblationCaptureDepth(b *testing.B) {
	conns, _, _ := benchData(b)
	count := func(cl *core.Classifier, depth int) int {
		n := 0
		for _, c := range conns {
			truncated := *c
			if len(c.Packets) > depth {
				truncated.Packets = c.Packets[:depth]
			}
			r := cl.Classify(&truncated)
			if r.Signature.Stage() == core.StagePostData {
				n++
			}
		}
		return n
	}
	var at6, at10 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl6 := core.NewClassifier(core.Config{MaxPackets: 6})
		cl10 := core.NewClassifier(core.Config{MaxPackets: 10})
		at6 = count(cl6, 6)
		at10 = count(cl10, 10)
	}
	if at10 > 0 {
		b.ReportMetric(100*float64(at6)/float64(at10), "postdata-retained-at-depth6-%")
	}
}

// BenchmarkAblationSamplingRate compares per-country tampering
// estimates at 1-in-4 sampling against the full dataset, reporting the
// worst absolute error across major countries.
func BenchmarkAblationSamplingRate(b *testing.B) {
	conns, recs, scen := benchData(b)
	full := map[string]float64{}
	for _, d := range analysis.SignatureByCountry(recs) {
		full[d.Country] = d.TamperedShare()
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampled := make([]*capture.Connection, 0, len(conns)/4)
		for _, c := range conns {
			if rng.IntN(4) == 0 {
				sampled = append(sampled, c)
			}
		}
		srecs := analysis.Analyze(sampled, scen.Geo, core.NewClassifier(core.DefaultConfig()), 0)
		worst = 0
		for _, d := range analysis.SignatureByCountry(srecs) {
			if d.Total < 100 {
				continue
			}
			err := d.TamperedShare() - full[d.Country]
			if err < 0 {
				err = -err
			}
			if err > worst {
				worst = err
			}
		}
	}
	b.ReportMetric(100*worst, "worst-country-error-pp")
}

// BenchmarkPipelineThroughput measures the streaming classification
// pipeline end to end — TDCAP decode, classifier worker pool, counting
// sink — in connections/sec at 1 worker and at NumCPU workers. This is
// the perf baseline every later scaling PR (sharding, live ingest)
// compares against; current numbers live in EXPERIMENTS.md.
func BenchmarkPipelineThroughput(b *testing.B) {
	conns, _, _ := benchData(b)
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			classified := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counts, err := pipeline.Stream(context.Background(),
					bytes.NewReader(data), pipeline.Config{Workers: workers}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if counts.Classified != int64(len(conns)) {
					b.Fatalf("classified %d of %d", counts.Classified, len(conns))
				}
				classified += counts.Classified
			}
			b.ReportMetric(float64(classified)/b.Elapsed().Seconds(), "conns/sec")
		})
	}
}

// BenchmarkStreamPipeline is the recorded perf-trajectory benchmark:
// the full streaming path (TDCAP decode, batched classifier workers,
// counting sink) across the workers × batch grid that
// scripts/bench.sh aggregates into BENCH_pipeline.json. Each
// connection record in the capture is one "record"; the custom
// metrics (conns/sec, ns/record, B/record, allocs/record) are the
// units EXPERIMENTS.md's Performance section tracks across PRs.
func BenchmarkStreamPipeline(b *testing.B) {
	conns, _, _ := benchData(b)
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 4, 16} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				classified := int64(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					counts, err := pipeline.Stream(context.Background(),
						bytes.NewReader(data),
						pipeline.Config{Workers: workers, BatchSize: batch}, nil)
					if err != nil {
						b.Fatal(err)
					}
					if counts.Classified != int64(len(conns)) {
						b.Fatalf("classified %d of %d", counts.Classified, len(conns))
					}
					classified += counts.Classified
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				records := float64(classified)
				b.ReportMetric(records/b.Elapsed().Seconds(), "conns/sec")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
			})
		}
	}
}

// BenchmarkDecodeParallel measures the decode-in-worker front end:
// path=scan is Stream (a scanner goroutine plus decode in the workers)
// running decode+classify+count over the same capture bytes at workers
// 1, 4, and 16, batch 64. scripts/bench.sh aggregates the grid into
// BENCH_pipeline.json's decode_parallel section, and the scaling gate
// (TestDecodeParallelScalingGate via scripts/check.sh) enforces
// workers=16 >= 2x workers=1 wherever the hardware has the cores to
// show it.
func BenchmarkDecodeParallel(b *testing.B) {
	conns, _, _ := benchData(b)
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("path=scan/workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			classified := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counts, err := pipeline.Stream(context.Background(),
					bytes.NewReader(data),
					pipeline.Config{Workers: workers, BatchSize: 64}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if counts.Classified != int64(len(conns)) {
					b.Fatalf("classified %d of %d", counts.Classified, len(conns))
				}
				classified += counts.Classified
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			records := float64(classified)
			b.ReportMetric(records/b.Elapsed().Seconds(), "conns/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
		})
	}
}

// BenchmarkShardedIngest measures the sharded multi-reader ingest
// against the single-scanner stream over the identical indexed capture
// bytes: path=scan is pipeline.Stream at 1 worker (the serial-scanner
// baseline every shard cell is normalized against), path=sharded runs
// pipeline.ShardedScan over a SegmentedSource at shards {1,2,4,8} with
// the worker pool sized to the shard count, so each cell isolates what
// adding independent scanners buys. scripts/bench.sh aggregates the
// grid into BENCH_pipeline.json's sharded_ingest section; the scaling
// gate (TestShardedIngestScalingGate via scripts/check.sh) enforces
// shards=8 >= 2x shards=1 wherever the hardware has the cores, and the
// 1-core contract — shards=1 within 5% of path=scan, no tax for the
// segment indirection — is checked from the recorded cells.
func BenchmarkShardedIngest(b *testing.B) {
	conns, _, _ := benchData(b)
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	if err := w.EnableIndex(256); err != nil {
		b.Fatal(err)
	}
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	idx, err := capture.FindIndex(bytes.NewReader(data), int64(len(data)), "")
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, classified int64, before, after *runtime.MemStats) {
		records := float64(classified)
		b.ReportMetric(records/b.Elapsed().Seconds(), "conns/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
	}
	b.Run("path=scan/workers=1", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		classified := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			counts, err := pipeline.Stream(context.Background(),
				bytes.NewReader(data),
				pipeline.Config{Workers: 1, BatchSize: 64}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if counts.Classified != int64(len(conns)) {
				b.Fatalf("classified %d of %d", counts.Classified, len(conns))
			}
			classified += counts.Classified
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		report(b, classified, &before, &after)
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("path=sharded/shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			classified := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := capture.NewSegmentedSource(bytes.NewReader(data), int64(len(data)), idx, shards)
				if err != nil {
					b.Fatal(err)
				}
				counts, err := pipeline.ShardedScan(context.Background(), src,
					pipeline.Config{Workers: shards, BatchSize: 64}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if counts.Classified != int64(len(conns)) {
					b.Fatalf("classified %d of %d", counts.Classified, len(conns))
				}
				classified += counts.Classified
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			report(b, classified, &before, &after)
		})
	}
}

// BenchmarkStreamTelemetryOverhead measures what the telemetry
// subsystem costs on the streaming hot path: the identical Stream run
// with telemetry off versus attached (stage histograms, queue gauges,
// per-signature sharded counters, records_total instruments). The
// contract tracked in EXPERIMENTS.md is ≤5% throughput loss and 0
// extra allocs/record; scripts/bench.sh records both rows in
// BENCH_pipeline.json as stream_telemetry_overhead.
func BenchmarkStreamTelemetryOverhead(b *testing.B) {
	conns, _, _ := benchData(b)
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	const workers = 4
	tel := pipeline.NewTelemetry(nil)
	for _, mode := range []struct {
		name string
		tel  *pipeline.Telemetry
	}{{"telemetry=off", nil}, {"telemetry=on", tel}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			classified := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh Metrics per run: the shared Telemetry's own
				// counter block accumulates across runs by design, so the
				// per-run count must come from an explicit block (both
				// modes get one, keeping the comparison symmetric).
				var m pipeline.Metrics
				counts, err := pipeline.Stream(context.Background(),
					bytes.NewReader(data),
					pipeline.Config{Workers: workers, Telemetry: mode.tel, Metrics: &m}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if counts.Classified != int64(len(conns)) {
					b.Fatalf("classified %d of %d", counts.Classified, len(conns))
				}
				classified += counts.Classified
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			records := float64(classified)
			b.ReportMetric(records/b.Elapsed().Seconds(), "conns/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
		})
	}
}

// BenchmarkStreamTraceOverhead measures what the tracing subsystem
// costs on the streaming hot path: the identical Stream run with no
// tracer versus a tracer attached with per-record sampling off — the
// production default, where only per-batch stage spans are emitted
// into the lock-free rings. The contract tracked in EXPERIMENTS.md is
// ≤5% throughput loss and ~0 extra allocs/record; scripts/bench.sh
// records both rows in BENCH_pipeline.json as stream_trace_overhead.
func BenchmarkStreamTraceOverhead(b *testing.B) {
	conns, _, _ := benchData(b)
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	const workers = 4
	tracer := trace.New(trace.Config{TraceID: 0xbe7c, SampleEvery: 0})
	for _, mode := range []struct {
		name   string
		tracer *trace.Tracer
	}{{"trace=off", nil}, {"trace=on", tracer}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			classified := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counts, err := pipeline.Stream(context.Background(),
					bytes.NewReader(data),
					pipeline.Config{Workers: workers, Tracer: mode.tracer}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if counts.Classified != int64(len(conns)) {
					b.Fatalf("classified %d of %d", counts.Classified, len(conns))
				}
				classified += counts.Classified
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			records := float64(classified)
			b.ReportMetric(records/b.Elapsed().Seconds(), "conns/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
		})
	}
}

// BenchmarkCaptureCodec times the TDCAP encode+decode round trip.
func BenchmarkCaptureCodec(b *testing.B) {
	conns, _, _ := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		w := capture.NewWriter(&buf)
		for _, c := range conns[:100] {
			if err := w.Write(c); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// writeCounter is an io.Writer that only counts.
type writeCounter int64

func (w *writeCounter) Write(p []byte) (int, error) {
	*w += writeCounter(len(p))
	return len(p), nil
}

// BenchmarkClassifierDispatch compares the optimized switch-based
// signature matcher with the declarative rule table (DESIGN.md §5's
// dispatch ablation): the price of the extensible formulation.
func BenchmarkClassifierDispatch(b *testing.B) {
	tails := []core.TailSummary{
		{},
		{Bare: 1, BareAcks: []uint32{501}},
		{WithACK: 3},
		{Bare: 2, BareAcks: []uint32{501, 0}},
		{Bare: 2, WithACK: 1, BareAcks: []uint32{1, 2}},
	}
	stages := []core.Stage{core.StagePostSYN, core.StagePostACK, core.StagePostPSH, core.StagePostData}
	b.Run("ruletable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := &tails[i%len(tails)]
			_ = core.MatchRuleTable(stages[i%len(stages)], t)
		}
	})
}

// BenchmarkGeoLookup measures the per-record source-address resolution
// with and without the per-worker range cache the streaming
// aggregators use (internal/geo.Cache): mode=uncached binary-searches
// the plan on every lookup; mode=cached memoizes matched ranges in a
// direct-mapped table keyed by address prefix. The address stream is
// the scenario's own client mix, so cache behaviour reflects real
// workload locality. scripts/bench.sh records the cached/uncached
// delta in BENCH_pipeline.json.
func BenchmarkGeoLookup(b *testing.B) {
	conns, _, s := benchData(b)
	addrs := make([]netip.Addr, 4096)
	for i := range addrs {
		addrs[i] = conns[i%len(conns)].SrcIP
	}
	b.Run("mode=uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Geo.Lookup(addrs[i%len(addrs)])
		}
	})
	b.Run("mode=cached", func(b *testing.B) {
		cache := geo.NewCache(s.Geo)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = cache.Lookup(addrs[i%len(addrs)])
		}
	})
}

// BenchmarkLongitudinalGen times the virtual-time generator end to
// end — arrival-process expansion plus packet-level simulation plus
// TDCAP encoding — over long scenario windows. This is the recorded
// proof of the event-queue refactor's headline property: wall-clock
// cost scales with the connection count, not the virtual window, so a
// 14-day scenario generates in seconds. scripts/bench.sh aggregates
// the grid into BENCH_pipeline.json's longitudinal_gen section, whose
// validator enforces the paper-scale contract (a 336-hour window must
// sustain enough virtual-hours/sec to finish a 14-day run in under a
// minute).
func BenchmarkLongitudinalGen(b *testing.B) {
	for _, hours := range []int{48, 336} {
		total := hours * 50
		b.Run(fmt.Sprintf("preset=iran2022/hours=%d", hours), func(b *testing.B) {
			b.ReportAllocs()
			written := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := workload.PresetScenario("iran2022", total, hours, 7)
				if err != nil {
					b.Fatal(err)
				}
				src := s.StreamSpecs(s.SpecsSharded(0), 0)
				w := capture.NewWriter(io.Discard)
				for {
					c, err := src.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					if err := w.Write(c); err != nil {
						b.Fatal(err)
					}
					written++
				}
				src.Close()
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if written == 0 {
				b.Fatal("generator produced no connections")
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(written)/secs, "conns/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(written), "ns/record")
			b.ReportMetric(float64(hours*b.N)/secs, "virtual-hours/sec")
		})
	}
}
