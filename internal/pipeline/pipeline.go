// Package pipeline implements the streaming classification pipeline.
// It is the paper's deployment shape: the detector runs continuously
// over a sampled stream of connections rather than over batches loaded
// into memory. Every run is one engine:
//
//	producer 0   ──▶ [depth] ──▶ workers ──▶ [depth] ──┐
//	producer 1   ──▶ [depth] ──▶ workers ──▶ [depth] ──┼─▶ reassembler ──▶ sink
//	   ...                                             │
//	producer K-1 ──▶ [depth] ──▶ workers ──▶ [depth] ──┘
//
// A producer turns one input stream into batches of records with
// contiguous indexes. Run wraps a Source and decodes on the producer;
// Stream wraps a capture.Scanner, whose batches carry raw record
// bytes that the workers decode; ShardedScan runs one scanner
// producer per segment of an indexed capture. Each producer has its
// own worker group, all running one loop: decode when the batch is
// raw, then classify, tally and observe. The reassembler hands
// batches to the sink on the caller's goroutine — in index order
// (producer by producer) when Config.Ordered is set, as they finish
// otherwise.
//
// Records move in recycled batches of Config.BatchSize, which amortises
// channel synchronisation; each worker owns a private classifier and
// scratch arena, so the steady state is allocation-free. Every stage
// holds O(Workers + Depth + BatchSize) records per producer, so
// arbitrarily large captures stream in constant memory. A slow sink
// throttles the workers, which throttle the producers. Cancelling the
// context stops every stage; records decoded but not delivered are
// counted as Dropped.
package pipeline

import (
	"context"
	"errors"
	"io"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/trace"
)

// DefaultDepth is the per-stage channel depth (in records) when
// Config.Depth is 0.
const DefaultDepth = 256

// DefaultBatchSize is the records-per-batch granularity of the
// inter-stage channels when Config.BatchSize is 0.
const DefaultBatchSize = 64

// ErrStop may be returned by a Sink to stop the pipeline early without
// reporting an error: Run cancels the remaining work, drains, and
// returns nil.
var ErrStop = errors.New("pipeline: stop")

// Item is one classified connection flowing out of the pipeline.
type Item struct {
	// Index is the record's zero-based decode position. In ordered
	// mode the sink sees indexes 0, 1, 2, … with no gaps.
	Index int
	// Conn is the decoded connection record.
	Conn *capture.Connection
	// Res is the classifier's verdict; zero-valued when Err is set.
	Res core.Result
	// Err reports a classification failure (a classifier panic on this
	// record, recovered). The item still flows to the sink — ordered
	// mode depends on every index arriving — so sinks that care must
	// check Err before trusting Res.
	Err error
}

// Sink consumes classified items. It is always invoked from a single
// goroutine — never concurrently — so it may update plain state.
// Returning a non-nil error stops the pipeline; returning ErrStop
// stops it without error.
type Sink func(Item) error

// Config tunes the pipeline.
type Config struct {
	// Workers is the classifier pool size; 0 means GOMAXPROCS.
	Workers int
	// Depth bounds each inter-stage channel, in records; 0 means
	// DefaultDepth. Together with BatchSize it bounds the records in
	// flight: each channel holds max(1, Depth/BatchSize) batches, so at
	// most 2*Depth + (Workers+2)*BatchSize records per producer exist
	// between the input and the sink at any instant.
	Depth int
	// BatchSize groups records N at a time through the inter-stage
	// channels, amortising channel synchronisation across the batch; 0
	// means DefaultBatchSize, and values above Depth are clamped to
	// Depth so shallow test pipelines keep tight in-flight bounds.
	// BatchSize 1 reproduces the record-at-a-time pipeline exactly.
	// Delivery semantics are identical at every batch size.
	BatchSize int
	// Ordered delivers items to the sink in decode order (index 0, 1,
	// 2, …). Unordered delivery has lower latency skew under uneven
	// classify costs; ordered delivery is deterministic.
	Ordered bool
	// Classifier overrides the classifier; nil builds one with
	// core.DefaultConfig(). A single *core.Classifier is shared by all
	// workers (it is concurrency-safe).
	Classifier *core.Classifier
	// Metrics, when non-nil, receives the live per-stage counters so
	// callers can observe a run in flight. Counters are cumulative
	// across runs unless the caller Resets between them.
	Metrics *Metrics
	// Observe, when non-nil, is invoked from inside the classify stage
	// for every record a worker finishes, before the record is handed
	// downstream. The worker argument is the classifying worker's index
	// in [0, Workers): calls are sequential per worker but concurrent
	// across workers, so observers shard their state per worker index
	// (the aggregating sink in internal/analysis accumulates into
	// shards[worker] and merges after Run returns). Observe sees
	// records in an unspecified cross-worker order, sees items whose
	// Err is set, and — unlike the Sink — may see records that are
	// never delivered when a run stops early; it must not retain the
	// *capture.Connection past the call (batches recycle).
	Observe func(worker int, it Item)
	// Telemetry, when non-nil, streams rich operational metrics from
	// the run into the Telemetry's registry: per-stage latency
	// histograms, queue-depth gauges, per-signature and per-
	// disposition counters, and capture throughput. The per-record
	// cost is two sharded atomic adds (no allocation); stage latency
	// is timed per batch, from the same clock reads that time the
	// Tracer's batch spans. When Metrics is nil the run also uses
	// Telemetry.Metrics() as its counter block, so the exposed
	// records_total series follow the run automatically.
	Telemetry *Telemetry
	// Tracer, when non-nil, emits per-stage spans for the run into the
	// tracer's ring buffers (see internal/trace): batch-level scan /
	// queue-wait / decode / classify / observe / sink spans always,
	// plus per-record spans for head-sampled record indexes
	// (trace.Config.SampleEvery). Emission is allocation-free; with
	// per-record sampling off the added cost is one clock read per
	// stage per batch, pinned by TestTraceHotPathAllocationFree and the
	// stream_trace_overhead bench gate.
	Tracer *trace.Tracer
}

// Run streams records from src through the classifier pool into sink
// and blocks until the pipeline has fully drained: on return no
// pipeline goroutine is left running, except a producer still blocked
// inside src.Next after cancellation (see Source).
//
// Run returns the final counter snapshot and the first error among
// the sink's, the source's, and the context's. A nil sink counts and
// discards. EOF from the source is a clean end of stream; any other
// source error stops reading but still delivers every record read
// before it.
func Run(ctx context.Context, src Source, cfg Config, sink Sink) (Counts, error) {
	return run(ctx, cfg, sink, []producer{{src: src, shard: -1}})
}

// Stream runs the TDCAP capture read from r through the pipeline. One
// scanner goroutine finds record boundaries and the workers decode
// the raw records, so decoding scales with Config.Workers. Results,
// counters and errors are those of Run over NewReaderSource(r).
func Stream(ctx context.Context, r io.Reader, cfg Config, sink Sink) (Counts, error) {
	return run(ctx, cfg, sink, []producer{{scan: capture.NewScanner(r), shard: -1}})
}
