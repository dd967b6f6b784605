package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"tamperdetect/internal/slab"
)

// slabCapture writes n raw packets of varied sizes, including some
// larger than a quarter slab, so reads cross slab boundaries and take
// the own-buffer path too. Each packet's bytes encode its index.
func slabCapture(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	for i := 0; i < n; i++ {
		size := 20 + (i*131)%1480
		if i%97 == 0 {
			size = slab.Size/4 + 1 + i%500
		}
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j*7)
		}
		p[0] = 0x45
		if err := w.Write(int64(i)*1e6, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderAllocsPerPacket pins Read at one slab allocation per many
// packets rather than one buffer per packet.
func TestReaderAllocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4000
	data := slabCapture(t, n)
	perPkt := testing.AllocsPerRun(3, func() {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.Read(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	t.Logf("%.4f allocs per packet", perPkt)
	if perPkt > 0.05 {
		t.Errorf("Reader.Read: %.4f allocs per packet, want <= 0.05", perPkt)
	}
}

// TestReaderPacketsOwnData collects every packet of a capture before
// looking at any, then checks each against an independent walk of the
// file: a slab handed out twice would show as a later packet's bytes
// in an earlier one. Appending to one packet's Data must not reach the
// next packet either.
func TestReaderPacketsOwnData(t *testing.T) {
	const n = 3000
	data := slabCapture(t, n)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var pkts []Packet
	for {
		p, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	if len(pkts) != n {
		t.Fatalf("read %d packets, want %d", len(pkts), n)
	}
	for i := range pkts[:n-1] {
		_ = append(pkts[i].Data, 0xff, 0xff, 0xff, 0xff)
	}
	off := 24
	for i, p := range pkts {
		capLen := int(binary.LittleEndian.Uint32(data[off+8 : off+12]))
		want := data[off+16 : off+16+capLen]
		off += 16 + capLen
		if !bytes.Equal(p.Data, want) {
			t.Fatalf("packet %d: Data differs from the file's bytes", i)
		}
	}
}
