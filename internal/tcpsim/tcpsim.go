// Package tcpsim implements simplified but wire-faithful TCP endpoint
// state machines: a client that opens connections, sends requests, and
// closes gracefully, and a server that accepts, acknowledges, and
// responds. Both endpoints emit and consume real serialized IPv4/IPv6 +
// TCP packets via internal/packet, so everything between them — DPI
// middleboxes, the capture tap, the classifier — sees genuine wire
// bytes with coherent sequence numbers, IP-IDs, and TTLs.
//
// The state machines implement the subset of TCP that determines
// tampering signatures: the three-way handshake, data transfer with
// cumulative ACKs, graceful FIN teardown, RST handling and generation,
// and retransmission with exponential backoff. Congestion control,
// SACK, and window management are deliberately out of scope; no
// signature in the paper depends on them.
package tcpsim

import (
	"math/rand/v2"
	"net/netip"

	"tamperdetect/internal/packet"
)

// IPIDStrategy selects how an endpoint fills the IPv4 identification
// field — the behaviours observed in the wild (paper §4.3): zero,
// per-connection counter, or a fixed value (ZMap uses 54321).
type IPIDStrategy int

// IP-ID strategies.
const (
	IPIDCounter IPIDStrategy = iota
	IPIDZero
	IPIDFixed
)

// NetProfile describes one endpoint's network identity and header
// conventions.
type NetProfile struct {
	LocalIP    netip.Addr
	RemoteIP   netip.Addr
	LocalPort  uint16
	RemotePort uint16
	// InitialTTL is the TTL/hop-limit the endpoint stamps on packets
	// (64 and 128 are the common OS defaults, §4.3).
	InitialTTL uint8
	IPID       IPIDStrategy
	// IPIDValue seeds the counter or holds the fixed value.
	IPIDValue uint16
	Window    uint16
	// SYNOptions emits the conventional MSS/SACK/WS options on the SYN
	// (absence of options is a scanner fingerprint, §4.2).
	SYNOptions bool
}

// IsV6 reports whether the endpoint speaks IPv6.
func (n *NetProfile) IsV6() bool { return n.LocalIP.Is6() && !n.LocalIP.Is4In6() }

// wire builds serialized packets for one endpoint of a connection.
// Serialization goes through the packet package's pooled buffers and
// appends every packet to buf, which reset rewinds for the next
// connection. Packet bytes are therefore valid until the endpoint's
// Reset. Handed-out packets are capacity-clipped, so appending to one
// never writes into its neighbour.
type wire struct {
	prof    NetProfile
	ipid    uint16
	buf     []byte
	ip4     packet.IPv4
	ip6     packet.IPv6
	tcp     packet.TCP
	payload packet.Payload
}

// serialOpts fixes lengths and checksums on every built packet.
var serialOpts = packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}

// reset points the wire at a new connection's profile and rewinds its
// packet buffer.
func (w *wire) reset(prof NetProfile) {
	w.prof = prof
	w.ipid = prof.IPIDValue
	w.buf = w.buf[:0]
}

func (w *wire) nextIPID() uint16 {
	switch w.prof.IPID {
	case IPIDZero:
		return 0
	case IPIDFixed:
		return w.prof.IPIDValue
	default:
		id := w.ipid
		w.ipid++
		return id
	}
}

// synOptions are the standard client SYN options: MSS 1460, SACK
// permitted, window scale 7.
var synOptions = []packet.TCPOption{
	{Kind: packet.TCPOptionMSS, Data: []byte{0x05, 0xb4}},
	{Kind: packet.TCPOptionSACKOK},
	{Kind: packet.TCPOptionNOP},
	{Kind: packet.TCPOptionWindowScale, Data: []byte{7}},
}

// build serializes one segment from this endpoint with the given TCP
// fields and payload. The result is safe to hand to the path: no other
// packet shares its bytes.
func (w *wire) build(flags packet.TCPFlags, seq, ack uint32, payload []byte, withOpts bool) []byte {
	w.tcp = packet.TCP{
		SrcPort: w.prof.LocalPort,
		DstPort: w.prof.RemotePort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  w.prof.Window,
	}
	if withOpts && w.prof.SYNOptions {
		w.tcp.Options = synOptions
	}
	w.payload = payload
	var layer packet.SerializableLayer = &w.ip4
	if w.prof.IsV6() {
		w.ip6 = packet.IPv6{
			NextHeader: 6,
			HopLimit:   w.prof.InitialTTL,
			SrcIP:      w.prof.LocalIP,
			DstIP:      w.prof.RemoteIP,
		}
		w.tcp.SetNetworkLayerForChecksum(&w.ip6)
		layer = &w.ip6
	} else {
		w.ip4 = packet.IPv4{
			TTL:      w.prof.InitialTTL,
			ID:       w.nextIPID(),
			Flags:    packet.IPv4DontFragment,
			Protocol: 6,
			SrcIP:    w.prof.LocalIP,
			DstIP:    w.prof.RemoteIP,
		}
		w.tcp.SetNetworkLayerForChecksum(&w.ip4)
	}
	start := len(w.buf)
	out, err := packet.AppendLayers(w.buf, serialOpts, layer, &w.tcp, &w.payload)
	w.payload = nil
	if err != nil {
		// The layers are fully under our control; a serialize error is
		// a programming bug.
		panic("tcpsim: serialize failed: " + err.Error())
	}
	w.buf = out
	return out[start:len(out):len(out)]
}

// randISN draws a random initial sequence number away from wraparound.
func randISN(rng *rand.Rand) uint32 {
	return rng.Uint32()%0xf0000000 + 0x1000
}

// decodeFor parses raw bytes, filtering to this endpoint's ports.
// Packets with broken IP/TCP checksums are discarded first, as a real
// NIC/kernel would — in-flight corruption degenerates to loss.
func decodeFor(parser *packet.SummaryParser, prof *NetProfile, data []byte) (packet.Summary, bool) {
	var s packet.Summary
	if !packet.ChecksumsValid(data) {
		return s, false
	}
	if err := parser.Parse(data, &s); err != nil {
		return s, false
	}
	if s.DstPort != prof.LocalPort || s.SrcPort != prof.RemotePort {
		return s, false
	}
	return s, true
}
