// Package pcap reads and writes classic libpcap capture files
// (https://wiki.wireshark.org/Development/LibpcapFileFormat) with the
// standard library only. It supports the two link types relevant to
// tampering analysis — LINKTYPE_RAW (bare IP, what our simulator
// produces) and LINKTYPE_ETHERNET (what most real taps produce; the
// 14-byte frame header is stripped on read) — in both byte orders and
// both microsecond and nanosecond timestamp precisions.
//
// This is the bridge between the paper's pipeline and real packet
// captures: cmd/tamperscan ingests .pcap files via this package, and
// cmd/trafficgen can emit them for inspection in Wireshark.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tamperdetect/internal/slab"
)

// Link types (from the tcpdump LINKTYPE registry).
const (
	LinkTypeEthernet uint32 = 1
	LinkTypeRaw      uint32 = 101
	// LinkTypeLoop is OpenBSD loopback: a 4-byte family header.
	LinkTypeLoop uint32 = 0
)

// Magic numbers.
const (
	magicMicros = 0xa1b2c3d4
	magicNanos  = 0xa1b23c4d
)

// Errors.
var (
	ErrBadMagic        = errors.New("pcap: not a pcap file")
	ErrUnsupportedLink = errors.New("pcap: unsupported link type")
	ErrTruncated       = errors.New("pcap: truncated file")
)

// Packet is one captured packet.
//
// Data is carved from the Reader's packet chunks (see Reader.Read):
// it is never overwritten, but a retained Packet keeps its whole
// 64 KiB chunk alive.
type Packet struct {
	// TimestampNanos is the capture time in nanoseconds since the
	// epoch of the capture (pcap stores seconds + sub-seconds).
	TimestampNanos int64
	// Data is the packet bytes starting at the IP header (link-layer
	// headers are stripped).
	Data []byte
	// OriginalLen is the untruncated packet length on the wire.
	OriginalLen int
}

// Reader streams packets from a pcap file.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType uint32
	snapLen  uint32
	// hdr holds the global header, then each record header in turn.
	hdr [24]byte
	// data carves each packet's bytes.
	data slab.Bytes
}

// NewReader parses the global header and prepares to stream packets.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{r: bufio.NewReader(r)}
	hdr := pr.hdr[:]
	if _, err := io.ReadFull(pr.r, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == magicMicros:
		pr.order = binary.LittleEndian
	case magicBE == magicMicros:
		pr.order = binary.BigEndian
	case magicLE == magicNanos:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == magicNanos:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	pr.snapLen = pr.order.Uint32(hdr[16:20])
	pr.linkType = pr.order.Uint32(hdr[20:24])
	switch pr.linkType {
	case LinkTypeRaw, LinkTypeEthernet, LinkTypeLoop:
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedLink, pr.linkType)
	}
	return pr, nil
}

// LinkType reports the file's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen reports the file's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Read returns the next packet, or io.EOF at the end. Packets whose
// link-layer payload is not IPv4/IPv6 (e.g. ARP frames) are returned
// with empty Data; callers skip them.
//
// Each packet's bytes are carved from a shared 64 KiB chunk
// (internal/slab), so reading costs one allocation per chunk rather
// than one per packet. Every returned
// Packet owns its Data: later reads never overwrite it, and callers
// may keep any number of packets.
func (r *Reader) Read() (Packet, error) {
	hdr := r.hdr[:16]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	sec := int64(r.order.Uint32(hdr[0:4]))
	sub := int64(r.order.Uint32(hdr[4:8]))
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > 256*1024 {
		return Packet{}, fmt.Errorf("%w: implausible capture length %d", ErrTruncated, capLen)
	}
	buf := r.data.Carve(int(capLen))
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return Packet{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	pkt := Packet{OriginalLen: int(origLen)}
	if r.nanos {
		pkt.TimestampNanos = sec*1e9 + sub
	} else {
		pkt.TimestampNanos = sec*1e9 + sub*1e3
	}
	pkt.Data = stripLink(r.linkType, buf)
	return pkt, nil
}

// stripLink removes the link-layer header, returning nil for non-IP
// payloads.
func stripLink(linkType uint32, data []byte) []byte {
	switch linkType {
	case LinkTypeRaw:
		return data
	case LinkTypeLoop:
		if len(data) < 4 {
			return nil
		}
		return data[4:]
	case LinkTypeEthernet:
		if len(data) < 14 {
			return nil
		}
		etherType := binary.BigEndian.Uint16(data[12:14])
		payload := data[14:]
		// 802.1Q VLAN tag: skip 4 more bytes.
		if etherType == 0x8100 && len(payload) >= 4 {
			etherType = binary.BigEndian.Uint16(payload[2:4])
			payload = payload[4:]
		}
		switch etherType {
		case 0x0800, 0x86dd: // IPv4, IPv6
			return payload
		default:
			return nil
		}
	default:
		return nil
	}
}

// ReadAll drains the reader, skipping non-IP packets.
func (r *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if len(p.Data) == 0 {
			continue
		}
		out = append(out, p)
	}
}

// Writer streams packets into a pcap file with LINKTYPE_RAW and
// microsecond timestamps — readable by tcpdump and Wireshark.
type Writer struct {
	w       *bufio.Writer
	began   bool
	snapLen uint32
	// hdr holds the global header, then each record header in turn.
	hdr [24]byte
}

// NewWriter wraps w. snapLen 0 defaults to 65535.
func NewWriter(w io.Writer, snapLen uint32) *Writer {
	if snapLen == 0 {
		snapLen = 65535
	}
	return &Writer{w: bufio.NewWriter(w), snapLen: snapLen}
}

func (w *Writer) writeHeader() error {
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	_, err := w.w.Write(hdr)
	return err
}

// Write appends one raw IP packet with the given timestamp.
func (w *Writer) Write(tsNanos int64, data []byte) error {
	if !w.began {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.began = true
	}
	capLen := uint32(len(data))
	if capLen > w.snapLen {
		capLen = w.snapLen
	}
	hdr := w.hdr[:16]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(tsNanos/1e9))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(tsNanos%1e9/1e3))
	binary.LittleEndian.PutUint32(hdr[8:12], capLen)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	_, err := w.w.Write(data[:capLen])
	return err
}

// Flush commits buffered data; an empty capture still gets a header.
func (w *Writer) Flush() error {
	if !w.began {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.began = true
	}
	return w.w.Flush()
}
