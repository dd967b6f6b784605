package pipeline

import (
	"context"
	"runtime"

	"tamperdetect/internal/capture"
)

// ShardedScan streams an indexed TDCAP capture with one scanner
// producer per segment of src, each with its own worker group, so no
// serial stage remains. Record indexes are file-global, so results,
// Counts and ordered delivery are those of Stream over the same file,
// and so are the Sink and Observe contracts.
//
// Errors differ in one honest way: a corrupt record stops only its own
// segment, so the delivered "good prefix" is the union of every
// segment's good prefix — more data recovered than a single scanner
// would manage, never less — and the error still surfaces. A seam
// violation (the index promised a boundary that is not one) surfaces
// as capture.ErrBadIndex; callers then rerun with Stream, which is why
// a hostile index can waste time but cannot corrupt output.
//
// Ordered runs deliver segments in file order: a later segment runs
// ahead only as far as its bounded channels while an earlier one
// drains, so ordered sharded ingest is for deterministic output, not
// peak throughput.
func ShardedScan(ctx context.Context, src *capture.SegmentedSource, cfg Config, sink Sink) (Counts, error) {
	// Scanners are created here, before anything runs concurrently, so
	// SegmentedSource.BytesRead can sum them from a telemetry scrape
	// without racing lazy construction.
	ps := make([]producer, src.Segments())
	for i := range ps {
		ps[i] = producer{
			scan:  src.Scanner(i),
			first: src.Segment(i).FirstRecord,
			shard: int32(i),
			check: func() error { return src.CheckSegment(i) },
		}
	}
	return run(ctx, cfg, sink, ps)
}

// ShardWorkers reports the total worker count a ShardedScan run will
// use for the given Config.Workers and shard count: every shard gets
// at least one worker, so the total exceeds Config.Workers when there
// are more shards than workers. Callers that size per-worker observers
// (analysis.NewSharded) must use this resolved total, and
// Config.Observe receives worker indexes in [0, ShardWorkers(...)).
func ShardWorkers(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(workers, shards, 1)
}

// shardWorkerCounts splits the resolved worker total across shards,
// front-loading the remainder so counts differ by at most one.
// Worker indexes are assigned in shard order.
func shardWorkerCounts(workers, shards int) []int {
	total := ShardWorkers(workers, shards)
	counts := make([]int, shards)
	for i := range counts {
		counts[i] = total / shards
		if i < total%shards {
			counts[i]++
		}
	}
	return counts
}
