package analysis

// Sharded adapts an Aggregator factory to the pipeline's per-worker
// Observe hook: one shard (and one geo cache) per worker, no locks on
// the hot path, a single Merge pass after the run. This is the
// paper's deployment shape in miniature — each PoP (here: worker)
// aggregates the traffic it happens to see, and the merged result is
// the global report. Because every aggregator is a pure function of
// its record multiset, the nondeterministic record→worker assignment
// cannot change a byte of the merged output.

import (
	"fmt"

	"tamperdetect/internal/geo"
	"tamperdetect/internal/pipeline"
)

// Sharded accumulates pipeline output into per-worker aggregator
// shards.
type Sharded struct {
	shards []Aggregator
	caches []*geo.Cache
	// recs holds the Record each worker builds its observations into.
	// Aggregators only borrow the record for the Add call, so one per
	// worker serves every record without allocating.
	recs   []Record
	merged bool
}

// NewSharded builds one fresh aggregator and one geo cache per worker.
// workers must equal the pipeline's resolved worker count (Observe
// panics on an out-of-range index otherwise); fresh must return a new
// identically-parameterised Aggregator on every call.
func NewSharded(db *geo.DB, workers int, fresh func() Aggregator) *Sharded {
	if workers < 1 {
		workers = 1
	}
	s := &Sharded{
		shards: make([]Aggregator, workers),
		caches: make([]*geo.Cache, workers),
		recs:   make([]Record, workers),
	}
	for i := range s.shards {
		s.shards[i] = fresh()
		s.caches[i] = geo.NewCache(db)
	}
	return s
}

// Observe is the pipeline.Config.Observe hook: it builds the
// aggregation record into the worker's own Record, with the worker's
// private geo cache, and adds it to the worker's shard. Per the
// Observe contract this runs sequentially per worker and concurrently
// across workers, which is exactly the isolation the shards provide.
// Errored items (classifier panics) carry no classification and are
// skipped.
func (s *Sharded) Observe(worker int, it pipeline.Item) {
	if it.Err != nil {
		return
	}
	rec := &s.recs[worker]
	*rec = NewRecord(it.Conn, s.caches[worker], it.Res)
	s.shards[worker].Add(rec)
}

// Merged folds every shard into one aggregator and returns it. Call
// it once, after the pipeline run (pipeline.Run, Stream or
// ShardedScan) has returned, never concurrently with Observe: the
// shards merge destructively into shard 0, so a second call would
// double-count and is rejected.
func (s *Sharded) Merged() (Aggregator, error) {
	if s.merged {
		return nil, fmt.Errorf("analysis: Sharded.Merged called twice")
	}
	s.merged = true
	for _, sh := range s.shards[1:] {
		if err := s.shards[0].Merge(sh); err != nil {
			return nil, err
		}
	}
	return s.shards[0], nil
}
