package workload

import (
	"io"
	"runtime"
	"testing"
	"time"

	"tamperdetect/internal/capture"
)

func TestStreamSpecsMatchesRun(t *testing.T) {
	s, err := BuildScenario("stream-test", 1500, 24, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run(1)
	for _, workers := range []int{1, 4} {
		sr := s.Stream(workers)
		i := 0
		for {
			c, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("workers=%d: Next: %v", workers, err)
			}
			if i >= len(want) {
				t.Fatalf("workers=%d: stream yielded more than %d connections", workers, len(want))
			}
			w := want[i]
			if c.SrcIP != w.SrcIP || c.SrcPort != w.SrcPort || c.TotalPackets != w.TotalPackets ||
				len(c.Packets) != len(w.Packets) {
				t.Fatalf("workers=%d: connection %d differs from Run's output", workers, i)
			}
			i++
		}
		if i != len(want) {
			t.Errorf("workers=%d: streamed %d connections, Run produced %d", workers, i, len(want))
		}
	}
}

func TestStreamRunClose(t *testing.T) {
	s, err := BuildScenario("stream-close", 2000, 24, 13)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	sr := s.Stream(4)
	// Consume a few, then abandon.
	for i := 0; i < 5; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	sr.Close()
	sr.Close() // idempotent
	// After Close, Next drains to EOF rather than hanging.
	for {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after Close: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked after Close: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// TestStreamCloseDuringNext pins the cancelled-pipeline hand-off: a
// cancelled run returns to its caller — who Closes the source — while
// the pipeline's source goroutine may still be inside Next. Close and
// Next must be safe under that overlap (this is a -race test; the
// regression it guards was a data race on the drained flag, not a
// wrong result).
func TestStreamCloseDuringNext(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		s, err := BuildScenario("stream-overlap", 300, 24, uint64(21+iter))
		if err != nil {
			t.Fatal(err)
		}
		sr := s.Stream(2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, err := sr.Next(); err == io.EOF {
					return
				} else if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
			}
		}()
		time.Sleep(time.Duration(iter%5) * time.Millisecond)
		sr.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Next did not drain to EOF after a concurrent Close")
		}
	}
}

// TestStreamBoundedReadAhead checks that an unconsumed stream parks
// after its bounded read-ahead instead of simulating every spec: the
// goroutine population during the stall stays at producer + worker
// pool, not one goroutine per remaining spec.
func TestStreamBoundedReadAhead(t *testing.T) {
	s, err := BuildScenario("stream-bound", 1200, 24, 17)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	workers := 2
	sr := s.Stream(workers)
	time.Sleep(300 * time.Millisecond)
	if g := runtime.NumGoroutine(); g > before+workers+2 {
		t.Errorf("stalled stream is running %d goroutines over baseline (want ≤ %d)",
			g-before, workers+2)
	}
	n := 0
	for {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("stream yielded nothing")
	}
}

// TestRunnersAgreeAcrossWorkers checks that the per-worker Simulators
// behind RunSpecs and StreamSpecs leak nothing between connections:
// both runners, at 1, 2 and 8 workers, yield byte-identical captures.
func TestRunnersAgreeAcrossWorkers(t *testing.T) {
	s, err := BuildScenario("runners", 1200, 24, 21)
	if err != nil {
		t.Fatal(err)
	}
	specs := s.Specs()
	sampled := func(conns []*capture.Connection) []*capture.Connection {
		var out []*capture.Connection
		for _, c := range conns {
			if c != nil {
				out = append(out, c)
			}
		}
		return out
	}
	want := digestConns(t, sampled(s.RunSpecs(specs, 1)))
	for _, workers := range []int{1, 2, 8} {
		if got := digestConns(t, sampled(s.RunSpecs(specs, workers))); got != want {
			t.Errorf("RunSpecs workers=%d: digest %s, want %s", workers, got, want)
		}
		sr := s.StreamSpecs(specs, workers)
		var streamed []*capture.Connection
		for {
			c, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("StreamSpecs workers=%d: Next: %v", workers, err)
			}
			streamed = append(streamed, c)
		}
		if got := digestConns(t, streamed); got != want {
			t.Errorf("StreamSpecs workers=%d: digest %s, want %s", workers, got, want)
		}
	}
}
