package slab

import (
	"bytes"
	"testing"
)

// TestCarveNeverHandsOutMemoryTwice fills every carved buffer with its
// own byte, across chunk boundaries and the own-buffer path, and
// checks that no later Carve or append by a holder changed it.
func TestCarveNeverHandsOutMemoryTwice(t *testing.T) {
	var b Bytes
	var bufs [][]byte
	for i := 0; i < 2000; i++ {
		n := 1 + (i*977)%1500
		if i%211 == 0 {
			n = Size/4 + 1
		}
		buf := b.Carve(n)
		if len(buf) != n || cap(buf) != n {
			t.Fatalf("Carve(%d): len %d cap %d", n, len(buf), cap(buf))
		}
		if !bytes.Equal(buf, make([]byte, n)) {
			t.Fatalf("Carve(%d) returned non-zero bytes", n)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		_ = append(buf, 0xff) // must reallocate, not spill into the next buffer
		bufs = append(bufs, buf)
	}
	for i, buf := range bufs {
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i)}, len(buf))) {
			t.Fatalf("buffer %d changed after later carves", i)
		}
	}
}
