package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/packet"
)

// testConns builds n deterministic connection records: every third one
// carries an injected RST+ACK after the handshake (a tampering
// signature), the rest complete cleanly with a FIN.
func testConns(n int) []*capture.Connection {
	out := make([]*capture.Connection, n)
	for i := range out {
		src := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		c := &capture.Connection{
			SrcIP: src, DstIP: netip.MustParseAddr("192.0.2.80"),
			SrcPort: uint16(30000 + i%20000), DstPort: 443, IPVersion: 4,
		}
		if i%3 == 0 {
			c.Packets = []capture.PacketRecord{
				{Timestamp: 0, Flags: packet.FlagsSYN, Seq: 100, TTL: 54, IPID: 1, HasOptions: true},
				{Timestamp: 0, Flags: packet.FlagsACK, Seq: 101, TTL: 54, IPID: 2},
				{Timestamp: 1, Flags: packet.FlagsRSTACK, Seq: 101, Ack: 7, TTL: 200, IPID: 50000},
			}
			c.TotalPackets = 3
			c.LastActivity = 1
			c.CloseTime = 30
		} else {
			c.Packets = []capture.PacketRecord{
				{Timestamp: 0, Flags: packet.FlagsSYN, Seq: 100, TTL: 54, IPID: 1, HasOptions: true},
				{Timestamp: 0, Flags: packet.FlagsACK, Seq: 101, TTL: 54, IPID: 2},
				{Timestamp: 1, Flags: packet.FlagsPSHACK, Seq: 101, TTL: 54, IPID: 3,
					PayloadLen: 5, Payload: []byte("GET /")},
				{Timestamp: 1, Flags: packet.FlagsFINACK, Seq: 106, TTL: 54, IPID: 4},
			}
			c.TotalPackets = 4
			c.LastActivity = 1
			c.CloseTime = 2
		}
		out[i] = c
	}
	return out
}

// encode serialises conns to an in-memory TDCAP capture.
func encode(t testing.TB, conns []*capture.Connection) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchHistogram is the reference single-threaded classification.
func batchHistogram(conns []*capture.Connection) [core.NumSignatures]int64 {
	cl := core.NewClassifier(core.DefaultConfig())
	var h [core.NumSignatures]int64
	for _, c := range conns {
		h[cl.Classify(c).Signature]++
	}
	return h
}

func TestStreamMatchesBatch(t *testing.T) {
	conns := testConns(500)
	data := encode(t, conns)
	want := batchHistogram(conns)
	for _, workers := range []int{1, 4, 16} {
		for _, ordered := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/ordered=%v", workers, ordered)
			var got [core.NumSignatures]int64
			counts, err := Stream(context.Background(), bytes.NewReader(data),
				Config{Workers: workers, Ordered: ordered, Depth: 8},
				func(it Item) error {
					got[it.Res.Signature]++
					return nil
				})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Errorf("%s: histogram mismatch:\n got %v\nwant %v", name, got, want)
			}
			if counts.Decoded != int64(len(conns)) || counts.Classified != int64(len(conns)) ||
				counts.Delivered != int64(len(conns)) || counts.Dropped != 0 || counts.Errors != 0 {
				t.Errorf("%s: counts = %+v", name, counts)
			}
			if counts.Tampering != want[core.SigACKRSTACK] {
				t.Errorf("%s: tampering = %d, want %d", name, counts.Tampering, want[core.SigACKRSTACK])
			}
		}
	}
}

func TestOrderedDelivery(t *testing.T) {
	conns := testConns(300)
	next := 0
	_, err := Run(context.Background(), NewSliceSource(conns),
		Config{Workers: 8, Depth: 4, Ordered: true},
		func(it Item) error {
			if it.Index != next {
				return fmt.Errorf("index %d out of order, want %d", it.Index, next)
			}
			if it.Conn != conns[next] {
				return fmt.Errorf("index %d delivered wrong connection", it.Index)
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(conns) {
		t.Errorf("delivered %d items, want %d", next, len(conns))
	}
}

func TestSliceSourceSkipsNil(t *testing.T) {
	conns := testConns(10)
	withNils := make([]*capture.Connection, 0, 15)
	for i, c := range conns {
		withNils = append(withNils, c)
		if i%2 == 0 {
			withNils = append(withNils, nil)
		}
	}
	delivered := 0
	counts, err := Run(context.Background(), NewSliceSource(withNils), Config{Workers: 2},
		func(it Item) error { delivered++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if delivered != len(conns) || counts.Decoded != int64(len(conns)) {
		t.Errorf("delivered %d decoded %d, want %d", delivered, counts.Decoded, len(conns))
	}
}

func TestDecodeError(t *testing.T) {
	conns := testConns(50)
	data := encode(t, conns)
	// Truncate mid-record: the good prefix classifies, then the decode
	// error surfaces. A truncated file has no index footer, so only Run
	// and Stream can read it; TestShardedScanCorruptSegment covers the
	// corrupt tail on all three entry points.
	truncated := data[:len(data)-10]
	for _, ep := range entryPoints(t, truncated, 1)[:2] {
		delivered := 0
		counts, err := ep.run(context.Background(),
			Config{Workers: 4, Ordered: true},
			func(it Item) error { delivered++; return nil })
		if err == nil {
			t.Fatalf("%s: truncated capture streamed without error", ep.name)
		}
		if !errors.Is(err, capture.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", ep.name, err)
		}
		if counts.Errors != 1 {
			t.Errorf("%s: Errors = %d, want 1", ep.name, counts.Errors)
		}
		// The good prefix — every record before the corrupt tail — still
		// drains through and is delivered.
		if delivered != len(conns)-1 {
			t.Errorf("%s: delivered = %d, want %d (good prefix)", ep.name, delivered, len(conns)-1)
		}
	}
}

func TestSinkError(t *testing.T) {
	data := encodeIndexed(t, testConns(200), 16)
	sentinel := errors.New("disk full")
	for _, ep := range entryPoints(t, data, 4) {
		delivered := 0
		counts, err := ep.run(context.Background(),
			Config{Workers: 4, Depth: 4},
			func(it Item) error {
				if delivered == 25 {
					return sentinel
				}
				delivered++
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: err = %v, want %v", ep.name, err, sentinel)
		}
		if counts.Delivered != 25 {
			t.Errorf("%s: Delivered = %d, want 25", ep.name, counts.Delivered)
		}
		if counts.Dropped != counts.Decoded-counts.Delivered {
			t.Errorf("%s: Dropped = %d, want Decoded-Delivered = %d",
				ep.name, counts.Dropped, counts.Decoded-counts.Delivered)
		}
		if counts.Errors != 1 {
			t.Errorf("%s: Errors = %d, want 1", ep.name, counts.Errors)
		}
	}
}

func TestErrStop(t *testing.T) {
	data := encodeIndexed(t, testConns(200), 16)
	for _, ep := range entryPoints(t, data, 4) {
		delivered := 0
		counts, err := ep.run(context.Background(),
			Config{Workers: 4, Depth: 4},
			func(it Item) error {
				delivered++
				if delivered == 10 {
					return ErrStop
				}
				return nil
			})
		if err != nil {
			t.Fatalf("%s: ErrStop surfaced as error: %v", ep.name, err)
		}
		if counts.Delivered != 9 {
			t.Errorf("%s: Delivered = %d, want 9", ep.name, counts.Delivered)
		}
		if counts.Errors != 0 {
			t.Errorf("%s: Errors = %d, want 0", ep.name, counts.Errors)
		}
	}
}

func TestNilSinkCountsOnly(t *testing.T) {
	conns := testConns(120)
	counts, err := Run(context.Background(), NewSliceSource(conns), Config{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Delivered != int64(len(conns)) || counts.Classified != int64(len(conns)) {
		t.Errorf("counts = %+v", counts)
	}
}

func TestLiveMetrics(t *testing.T) {
	conns := testConns(80)
	var m Metrics
	counts, err := Run(context.Background(), NewSliceSource(conns),
		Config{Workers: 2, Metrics: &m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != counts {
		t.Errorf("Metrics snapshot %+v != returned counts %+v", m.Snapshot(), counts)
	}
	m.Reset()
	if m.Snapshot() != (Counts{}) {
		t.Errorf("Reset left %+v", m.Snapshot())
	}
}

func TestChanSource(t *testing.T) {
	conns := testConns(40)
	ch := make(chan *capture.Connection)
	go func() {
		defer close(ch)
		for i, c := range conns {
			ch <- c
			if i%5 == 0 {
				ch <- nil // sources may emit nil gaps; they are skipped
			}
		}
	}()
	counts, err := Run(context.Background(), ChanSource(ch), Config{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Classified != int64(len(conns)) {
		t.Errorf("classified %d, want %d", counts.Classified, len(conns))
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	if err := w.Flush(); err != nil { // header-only capture
		t.Fatal(err)
	}
	counts, err := Stream(context.Background(), &buf, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts != (Counts{}) {
		t.Errorf("counts = %+v, want zero", counts)
	}
}

func TestStreamPreservesReaderSemantics(t *testing.T) {
	// A zero-byte reader is a clean EOF (as in the batch path); junk
	// bytes are a bad-magic error.
	if counts, err := Stream(context.Background(), bytes.NewReader(nil), Config{}, nil); err != nil || counts != (Counts{}) {
		t.Fatalf("empty reader: counts=%+v err=%v", counts, err)
	}
	if _, err := Stream(context.Background(), bytes.NewReader([]byte("not a capture")), Config{}, nil); !errors.Is(err, capture.ErrBadMagic) {
		t.Fatalf("junk reader: err = %v, want ErrBadMagic", err)
	}
}
