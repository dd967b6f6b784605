package simtime

import (
	"testing"
	"time"
)

func TestEventOrderAndClock(t *testing.T) {
	s := New(0)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() {
		order = append(order, 2)
		if s.Now() != Time(20*time.Millisecond) {
			t.Errorf("Now = %d inside event at 20ms", s.Now())
		}
	})
	if n := s.Run(0); n != 3 {
		t.Fatalf("Run processed %d events", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Errorf("final Now = %d", s.Now())
	}
}

// TestTieBreakPreservesScheduleOrder pins the determinism contract:
// events at the same instant run in the order they were scheduled.
func TestTieBreakPreservesScheduleOrder(t *testing.T) {
	s := New(0)
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order not FIFO: %v", order)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	s := New(Time(5 * time.Second))
	var at []Time
	s.ScheduleAt(Time(7*time.Second), func() { at = append(at, s.Now()) })
	// Past deadlines clamp to now instead of rewinding the clock.
	s.ScheduleAt(Time(time.Second), func() { at = append(at, s.Now()) })
	s.Run(0)
	if len(at) != 2 || at[0] != Time(5*time.Second) || at[1] != Time(7*time.Second) {
		t.Fatalf("fire times = %v", at)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(0)
	fired := false
	tm := s.Schedule(time.Millisecond, func() { fired = true })
	tm.Stop()
	tm.Stop() // idempotent
	(Timer{}).Stop()
	if n := s.Run(0); n != 0 || fired {
		t.Fatalf("cancelled event ran (n=%d fired=%v)", n, fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(0)
	var fired []int
	s.Schedule(time.Second, func() { fired = append(fired, 1) })
	s.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	s.RunUntil(Time(2 * time.Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now = %d after RunUntil", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run(0)
	if len(fired) != 2 || s.Now() != Time(3*time.Second) {
		t.Fatalf("fired = %v, Now = %d", fired, s.Now())
	}
}

func TestMaxStepsGuard(t *testing.T) {
	s := New(0)
	var reschedule func()
	reschedule = func() { s.Schedule(time.Millisecond, reschedule) }
	s.Schedule(0, reschedule)
	if n := s.Run(100); n != 100 {
		t.Fatalf("Run(100) processed %d", n)
	}
	if s.Steps != 100 {
		t.Errorf("Steps = %d", s.Steps)
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(90*time.Second + 500*time.Millisecond)
	if tm.Unix() != 90 {
		t.Errorf("Unix = %d", tm.Unix())
	}
	if tm.Seconds() != 90.5 {
		t.Errorf("Seconds = %f", tm.Seconds())
	}
	if tm.Add(500*time.Millisecond) != Time(91*time.Second) {
		t.Errorf("Add broken")
	}
}

// TestStaleTimerAfterRecycle pins the generation check: once an event
// fires, its storage is reused by the next Schedule, and stopping the
// old Timer must not cancel the event that now holds the slot.
func TestStaleTimerAfterRecycle(t *testing.T) {
	s := New(0)
	old := s.Schedule(time.Millisecond, func() {})
	s.Run(0)
	fired := false
	fresh := s.Schedule(time.Millisecond, func() { fired = true })
	if fresh.ev != old.ev {
		t.Fatal("fired event was not recycled into the next Schedule")
	}
	old.Stop()
	if s.Run(0); !fired {
		t.Fatal("stale Timer.Stop cancelled the event that reused its slot")
	}

	// The same holds for a Timer stopped from inside its own callback
	// after the callback scheduled into the recycled slot.
	var self Timer
	ran := false
	self = s.Schedule(time.Millisecond, func() {
		s.Schedule(time.Millisecond, func() { ran = true })
		self.Stop()
	})
	if s.Run(0); !ran {
		t.Fatal("Stop inside the firing callback cancelled the event it scheduled")
	}

	// A cancelled event is recycled too, and its Timer stays stale.
	dead := s.Schedule(time.Millisecond, func() { t.Error("cancelled event ran") })
	dead.Stop()
	s.Run(0)
	ran = false
	s.Schedule(time.Millisecond, func() { ran = true })
	dead.Stop()
	if s.Run(0); !ran {
		t.Fatal("stale Stop of a recycled cancelled event cancelled its successor")
	}
}

// TestResetDropsPending checks that Reset discards every queued event,
// rewinds the clock and counters, and leaves outstanding Timers stale.
func TestResetDropsPending(t *testing.T) {
	s := New(0)
	ran := 0
	var timers []Timer
	for i := 0; i < 8; i++ {
		timers = append(timers, s.Schedule(time.Duration(i+1)*time.Second, func() { ran++ }))
	}
	s.RunUntil(Time(2 * time.Second))
	if ran != 2 {
		t.Fatalf("ran %d events before Reset, want 2", ran)
	}
	s.Reset(Time(time.Hour))
	if s.Pending() != 0 || s.Now() != Time(time.Hour) || s.Steps != 0 {
		t.Fatalf("after Reset: Pending=%d Now=%d Steps=%d", s.Pending(), s.Now(), s.Steps)
	}
	fired := 0
	for i := 0; i < 8; i++ {
		s.Schedule(time.Second, func() { fired++ })
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if n := s.Run(0); n != 8 || fired != 8 || ran != 2 {
		t.Fatalf("after Reset: Run=%d fired=%d ran=%d, want 8, 8, 2", n, fired, ran)
	}
	if s.Now() != Time(time.Hour+time.Second) {
		t.Errorf("Now = %d after Reset and Run", s.Now())
	}
}
