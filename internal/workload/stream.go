package workload

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"tamperdetect/internal/capture"
)

// StreamRun simulates a scenario's specs with bounded parallelism and
// yields the sampled capture records incrementally, in spec order,
// through Next — the streaming counterpart of Run. It satisfies the
// classification pipeline's Source contract, so a scenario can be
// classified while it is still being simulated, without ever holding
// the full []*capture.Connection in memory.
//
// At most ~4×workers simulated connections are buffered ahead of the
// consumer; a slow consumer throttles the simulation. The caller must
// either drain Next to io.EOF or call Close, or the producer and worker
// goroutines leak.
type StreamRun struct {
	// futures carries, in spec order, one single-use channel per spec;
	// each receives that spec's simulation result exactly once (nil
	// when the sampler did not select the connection).
	futures  chan chan *capture.Connection
	stop     chan struct{}
	stopOnce sync.Once
	// done is atomic because Close may run concurrently with a Next
	// still in flight: a cancelled pipeline returns to its caller —
	// who Closes the source — without waiting for a source goroutine
	// that may be blocked in Next. Channel operations are already safe
	// under that overlap; this flag must be too.
	done atomic.Bool
}

// Stream starts a streaming simulation of all the scenario's specs
// with the given parallelism (0 = GOMAXPROCS).
func (s *Scenario) Stream(workers int) *StreamRun {
	return s.StreamSpecs(s.Specs(), workers)
}

// StreamSpecs starts a streaming simulation of a prepared spec list on
// a fixed set of workers, each owning one Simulator.
func (s *Scenario) StreamSpecs(specs []ConnSpec, workers int) *StreamRun {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sr := &StreamRun{
		futures: make(chan chan *capture.Connection, 4*workers),
		stop:    make(chan struct{}),
	}
	// jobs hands a free worker its spec and the future to fill; the
	// producer closes it on exit, which retires the workers.
	type job struct {
		i int
		f chan *capture.Connection
	}
	jobs := make(chan job)
	for w := 0; w < workers; w++ {
		go func() {
			sim := s.simulator()
			for j := range jobs {
				j.f <- sim.Simulate(&specs[j.i])
			}
		}()
	}
	go func() {
		defer close(sr.futures)
		defer close(jobs)
		for i := range specs {
			f := make(chan *capture.Connection, 1)
			select {
			case sr.futures <- f: // bounded read-ahead: backpressure
			case <-sr.stop:
				return
			}
			select {
			case jobs <- job{i, f}:
			case <-sr.stop:
				f <- nil // unblock a Next already waiting on f
				return
			}
		}
	}()
	return sr
}

// Next returns the next sampled connection in spec order, skipping
// specs the sampler did not select, and io.EOF after the last spec.
// The sequence of non-nil records is exactly Run's output.
func (sr *StreamRun) Next() (*capture.Connection, error) {
	for {
		f, ok := <-sr.futures
		if !ok {
			sr.done.Store(true)
			return nil, io.EOF
		}
		if c := <-f; c != nil {
			return c, nil
		}
	}
}

// Close abandons the stream early: in-flight simulations finish, the
// producer stops scheduling new ones, and subsequent Next calls drain
// to io.EOF quickly. Close is idempotent, safe to defer alongside a
// full drain, and safe to call while another goroutine is blocked in
// Next (the cancelled-pipeline hand-off).
func (sr *StreamRun) Close() {
	sr.stopOnce.Do(func() { close(sr.stop) })
	if !sr.done.Load() {
		// Release buffered futures so the workers' sends (to cap-1
		// channels) are garbage, not blockers, and observe the
		// producer's close. A concurrent Next draining the same channel
		// is fine: both receivers discard toward the same io.EOF.
		for range sr.futures {
		}
		sr.done.Store(true)
	}
}
