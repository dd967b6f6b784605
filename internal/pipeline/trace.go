package pipeline

import (
	"strconv"

	"tamperdetect/internal/trace"
)

// Span instrumentation for the engine. A runTrace holds the per-run
// interned span names so the hot path never touches strings or locks:
// emitting a span is a handful of atomic stores into a preallocated
// ring slot, timed by the engine's stage clock (engine.now), whose
// reads also feed the telemetry stage histograms.
//
// Span taxonomy (all spans share the tracer's trace ID):
//
//	scan            one per raw batch, on a scanner producer's ring
//	decode          one per batch: on the worker's ring for a raw
//	                batch, on the producer's ring for a Source batch
//	queue-wait      enqueue → worker pickup, per batch (async in the
//	                Chrome export: its interval overlaps whatever the
//	                picking worker was doing before)
//	decode.record   per head-sampled record, nested in decode (raw
//	                batches only)
//	classify        one per batch (+ classify.record)
//	observe         one per batch (+ observe.record)
//	sink            one per delivered batch (+ sink.record), on the
//	                deliver ring
//
// Lineage: the producer's span (scan, or decode for a Source) is the
// parent of the batch's later stage spans; record spans parent to
// their batch span. Shard attribution rides every span (-1 on an
// unsharded run), so a sharded run's spans separate cleanly per
// segment.
type runTrace struct {
	t *trace.Tracer

	queueWait     int32
	stage, record [numStages]int32 // interned names by stage index
}

// Stable span names, shared with the exporters and tests. They equal
// the telemetry stage names.
const (
	SpanScan     = "scan"
	SpanDecode   = "decode"
	SpanClassify = "classify"
	SpanObserve  = "observe"
	SpanSink     = "sink"
)

func newRunTrace(t *trace.Tracer) *runTrace {
	if t == nil {
		return nil
	}
	rt := &runTrace{t: t, queueWait: t.NameID(trace.QueueWaitName)}
	for i, name := range stageNames {
		rt.stage[i] = t.NameID(name)
		rt.record[i] = t.NameID(name + ".record")
	}
	return rt
}

// itoa keeps the goroutine-setup call sites short.
func itoa(i int) string { return strconv.Itoa(i) }

// emit writes one finished span to ring.
func (rt *runTrace) emit(ring *trace.Ring, name int32, spanID, parent uint64,
	start, end int64, worker, shard int32, record int64, count int32) {
	ring.Emit(trace.SpanRec{
		TraceID: rt.t.TraceID(), SpanID: spanID, Parent: parent, NameID: name,
		Start: start, Dur: end - start, Worker: worker, Shard: shard,
		Record: record, Count: count,
	})
}

// sampled reports whether record index i gets per-record spans.
func (rt *runTrace) sampled(i int) bool { return rt.t.Sampled(int64(i)) }
