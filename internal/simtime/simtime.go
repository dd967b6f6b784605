// Package simtime is the shared discrete-event virtual-time core: a
// heap-backed event queue with a deterministic clock and cancellable
// timers. It was extracted verbatim from internal/netsim (which keeps
// type aliases, so per-connection simulation semantics are
// byte-identical — pinned by workload's TestSimCorpusGolden) so that
// the workload layer can schedule *connection arrivals* on the same
// engine the packet-level simulator uses for retransmission timers:
// one clock abstraction spans everything from a 14-day scenario window
// down to a sub-millisecond RTO, and capture timestamps fall out of
// virtual time instead of being painted on.
//
// An Engine is single-threaded by design: determinism comes from the
// (time, schedule-order) total order of its queue, so two runs with
// the same seed replay the exact same event sequence. Run one Engine
// per goroutine.
package simtime

import (
	"container/heap"
	"time"
)

// Time is virtual time, in nanoseconds since scenario start.
type Time int64

// Add shifts the time by a standard duration.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Seconds returns the time in (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Unix returns the whole-second timestamp the capture pipeline records
// (the paper's 1-second granularity).
func (t Time) Unix() int64 { return int64(t) / 1e9 }

// event is a scheduled callback. Events are recycled through the
// engine's free list once they fire, are found cancelled, or are
// dropped by Reset; gen counts those recyclings so a Timer can tell
// its own scheduling from a later one that reuses the slot.
type event struct {
	at   Time
	seq  uint64 // tiebreaker preserving schedule order
	fn   func()
	dead bool
	gen  uint64
}

// Timer handles allow cancelling a scheduled event (e.g. a TCP
// retransmission timer that was answered).
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer if it has not fired. Safe to call repeatedly,
// on a zero Timer, and after the event fired and its slot was reused
// by a later Schedule: a stale Timer never cancels someone else's
// event.
func (t Timer) Stop() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.dead = true
	}
}

// eventQueue is a container/heap min-heap on (at, seq). (at, seq) is
// a total order, so the pop sequence does not depend on the heap's
// layout.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; run one Engine per goroutine.
type Engine struct {
	now   Time
	queue eventQueue
	free  []*event // recycled events, reused by the next Schedule
	seq   uint64
	// Steps counts processed events, a cheap runaway guard for tests.
	Steps int
}

// New returns an engine starting at the given virtual time.
func New(start Time) *Engine {
	return &Engine{now: start}
}

// Reset returns the engine to a fresh state at start, keeping its
// queue and event storage for reuse. Every pending event is dropped
// and every outstanding Timer goes stale.
func (s *Engine) Reset(start Time) {
	for _, ev := range s.queue {
		s.release(ev)
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	s.now, s.seq, s.Steps = start, 0, 0
}

// release recycles an event that left the queue.
func (s *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.dead = false
	s.free = append(s.free, ev)
}

// Now returns the current virtual time.
func (s *Engine) Now() Time { return s.now }

// Schedule runs fn after d of virtual time and returns a cancellable
// handle. A negative d schedules immediately.
func (s *Engine) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt runs fn at the given absolute virtual time and returns a
// cancellable handle. A time in the past schedules at the current
// instant (the event still runs, after already-queued events at now).
func (s *Engine) ScheduleAt(at Time, fn func()) Timer {
	if at < s.now {
		at = s.now
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn = at, s.seq, fn
	heap.Push(&s.queue, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// next pops the earliest event and recycles it, returning its time and
// callback, or a nil callback when the event was cancelled. The event
// is recycled before the callback runs, so the callback's own Schedule
// calls can reuse it.
func (s *Engine) next() (Time, func()) {
	ev := heap.Pop(&s.queue).(*event)
	at, fn := ev.at, ev.fn
	if ev.dead {
		fn = nil
	}
	s.release(ev)
	return at, fn
}

// Run processes events until the queue is empty or maxSteps events have
// run (0 means no limit). It returns the number of events processed.
func (s *Engine) Run(maxSteps int) int {
	n := 0
	for len(s.queue) > 0 {
		if maxSteps > 0 && n >= maxSteps {
			break
		}
		at, fn := s.next()
		if fn == nil {
			continue
		}
		s.now = at
		fn()
		n++
		s.Steps++
	}
	return n
}

// RunUntil processes events with at ≤ deadline, advancing the clock to
// the deadline afterwards.
func (s *Engine) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		at, fn := s.next()
		if fn == nil {
			continue
		}
		s.now = at
		fn()
		s.Steps++
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of live events still queued.
func (s *Engine) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}
