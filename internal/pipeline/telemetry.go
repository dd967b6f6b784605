package pipeline

import (
	"runtime"
	"sync/atomic"

	"tamperdetect/internal/core"
	"tamperdetect/internal/telemetry"
)

// Pipeline stage indexes for the per-stage latency histograms; the
// names double as the span names (see trace.go). A scanner producer
// (Stream, ShardedScan) times the raw-record scanner under "scan" and
// the per-worker decode under "decode", so /metrics separates
// boundary-finding cost from field-decoding cost; a Source producer
// (Run) attributes its whole source stage to "decode".
const (
	stageDecode = iota
	stageClassify
	stageObserve
	stageSink
	stageScan
	numStages
)

var stageNames = [numStages]string{"decode", "classify", "observe", "sink", "scan"}

// Disposition indexes for the per-outcome tallies.
const (
	dispNotTampering = iota
	dispTampering
	dispOtherAnomalous
	dispError
	numDispositions
)

var dispositionNames = [numDispositions]string{
	"not_tampering", "tampering", "other_anomalous", "error",
}

// Telemetry instruments pipeline runs into a telemetry.Registry:
//
//   - tamperdetect_pipeline_records_total{stage=...}: the live Metrics
//     counters (decoded/classified/tampering/delivered/errors).
//   - tamperdetect_pipeline_dropped_records: decoded-but-undelivered
//     records after the most recent finished run.
//   - tamperdetect_pipeline_stage_latency_ns{stage=...}: per-batch
//     latency histograms for the scan, decode, classify, observe, and
//     sink stages ("scan" is a scanner producer's boundary walk;
//     "decode" is the per-worker field decode, or the whole source
//     stage of a Source producer under Run). Observations are per batch
//     (Config.BatchSize records), not per record, which keeps the
//     classify hot path at one clock read per stage per batch.
//   - tamperdetect_pipeline_queue_depth_records{queue=...}: sampled
//     depth of the producer→worker and worker→sink channels, in
//     records, summed over a run's producers — the backpressure view.
//   - tamperdetect_pipeline_signature_total{signature=...}: per-
//     signature classification counts in the paper's notation,
//     sharded per worker so the zero-allocation batch path stays
//     allocation-free.
//   - tamperdetect_pipeline_disposition_total{disposition=...}:
//     tampering / not_tampering / other_anomalous / error tallies,
//     sharded likewise.
//   - tamperdetect_capture_bytes_total / _records_total: capture-
//     reader throughput when the pipeline source exposes BytesRead
//     (ReaderSource does).
//
// One Telemetry may be shared by several sequential or concurrent
// runs; counters and histograms accumulate across them. Construction
// registers every series eagerly so a scrape before the first record
// still sees the full schema.
type Telemetry struct {
	reg *telemetry.Registry

	// metrics backs runs whose Config carries no Metrics of its own;
	// mp tracks the Metrics of the most recently started run, which
	// the records_total func instruments read at exposition time.
	metrics Metrics
	mp      atomic.Pointer[Metrics]

	stageLat   [numStages]*telemetry.Histogram
	queueDecos *telemetry.Gauge // producer→worker channels, in records
	queueRes   *telemetry.Gauge // worker→sink channels, in records
	sig        [core.NumSignatures]*telemetry.ShardedCounter
	disp       [numDispositions]*telemetry.ShardedCounter
	capBytes   *telemetry.Counter
}

// NewTelemetry registers the pipeline instrument set in reg (a nil
// reg gets a fresh private registry) and returns the handle to pass
// as Config.Telemetry.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := &Telemetry{reg: reg}
	t.mp.Store(&t.metrics)

	load := func(f func(Counts) int64) func() int64 {
		return func() int64 { return f(t.mp.Load().Snapshot()) }
	}
	const rt = "tamperdetect_pipeline_records_total"
	const rtHelp = "Cumulative pipeline records by stage counter."
	reg.CounterFunc(rt, telemetry.Label("stage", "decoded"), rtHelp, load(func(c Counts) int64 { return c.Decoded }))
	reg.CounterFunc(rt, telemetry.Label("stage", "classified"), rtHelp, load(func(c Counts) int64 { return c.Classified }))
	reg.CounterFunc(rt, telemetry.Label("stage", "tampering"), rtHelp, load(func(c Counts) int64 { return c.Tampering }))
	reg.CounterFunc(rt, telemetry.Label("stage", "delivered"), rtHelp, load(func(c Counts) int64 { return c.Delivered }))
	reg.CounterFunc(rt, telemetry.Label("stage", "errors"), rtHelp, load(func(c Counts) int64 { return c.Errors }))
	reg.GaugeFunc("tamperdetect_pipeline_dropped_records", "",
		"Records decoded but never delivered in the most recent finished run.",
		load(func(c Counts) int64 { return c.Dropped }))

	for i, name := range stageNames {
		t.stageLat[i] = reg.Histogram("tamperdetect_pipeline_stage_latency_ns",
			telemetry.Label("stage", name),
			"Per-batch pipeline stage latency in nanoseconds (one observation per batch of Config.BatchSize records).")
	}
	t.queueDecos = reg.Gauge("tamperdetect_pipeline_queue_depth_records",
		telemetry.Label("queue", "decoded"),
		"Sampled inter-stage channel depth in records; a persistently full queue marks the backpressure bottleneck.")
	t.queueRes = reg.Gauge("tamperdetect_pipeline_queue_depth_records",
		telemetry.Label("queue", "results"),
		"Sampled inter-stage channel depth in records; a persistently full queue marks the backpressure bottleneck.")

	shards := runtime.GOMAXPROCS(0)
	for s := core.Signature(0); s < core.NumSignatures; s++ {
		t.sig[s] = reg.ShardedCounter("tamperdetect_pipeline_signature_total",
			telemetry.Label("signature", s.String()),
			"Classified records per Table 1 signature (paper notation).", shards)
	}
	for i, name := range dispositionNames {
		t.disp[i] = reg.ShardedCounter("tamperdetect_pipeline_disposition_total",
			telemetry.Label("disposition", name),
			"Classified records per disposition.", shards)
	}

	t.capBytes = reg.Counter("tamperdetect_capture_bytes_total", "",
		"Bytes consumed by the capture reader feeding the pipeline.")
	reg.CounterFunc("tamperdetect_capture_records_total", "",
		"Connection records decoded from the capture stream.",
		load(func(c Counts) int64 { return c.Decoded }))

	return t
}

// Registry returns the registry the instruments live in, for serving
// via telemetry.NewServer or adding caller-side series.
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// Metrics returns the Telemetry's own counter block — the one runs
// use when their Config has no explicit Metrics.
func (t *Telemetry) Metrics() *Metrics { return &t.metrics }

// attach points the records_total instruments at the Metrics the
// starting run will update.
func (t *Telemetry) attach(m *Metrics) { t.mp.Store(m) }

// observeSig records one classified item's signature and disposition
// on the worker's shard: exactly two uncontended atomic adds, no
// allocation — safe inside the zero-allocation classify loop.
func (t *Telemetry) observeSig(worker int, it Item) {
	if it.Err != nil {
		t.disp[dispError].Add(worker, 1)
		return
	}
	s := it.Res.Signature
	if s >= 0 && s < core.NumSignatures {
		t.sig[s].Add(worker, 1)
	}
	switch {
	case s == core.SigNotTampering:
		t.disp[dispNotTampering].Add(worker, 1)
	case s == core.SigOtherAnomalous:
		t.disp[dispOtherAnomalous].Add(worker, 1)
	case s.IsTampering():
		t.disp[dispTampering].Add(worker, 1)
	}
}

// byteCounter is implemented by sources that can report raw bytes
// consumed (ReaderSource via capture.Reader.BytesRead).
type byteCounter interface {
	BytesRead() int64
}
