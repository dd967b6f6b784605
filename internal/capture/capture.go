// Package capture implements the paper's data-collection pipeline with
// all four of its §3.2 constraints:
//
//  1. only inbound packets are logged;
//  2. timestamps have 1-second granularity, so packets may be recorded
//     out of order and order must be reconstructed from headers;
//  3. only the first MaxPackets (10) packets of a connection are kept;
//  4. connections are sampled uniformly (1 in Rate) by flow hash.
//
// The output — Connection records — is the classifier's input format.
// A binary file codec (codec.go) lets the cmd tools exchange captures.
package capture

import (
	"math/rand/v2"
	"net/netip"

	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
	"tamperdetect/internal/slab"
)

// PacketRecord is one logged inbound packet: exactly the header fields
// and truncated payload the paper's pipeline retains.
type PacketRecord struct {
	// Timestamp is whole seconds since scenario start (1 s granularity
	// per §3.2).
	Timestamp int64
	Flags     packet.TCPFlags
	Seq       uint32
	Ack       uint32
	IPID      uint16
	TTL       uint8
	Window    uint16
	// PayloadLen is the original payload length; Payload holds at most
	// MaxPayload captured bytes of it.
	PayloadLen int
	Payload    []byte
	HasOptions bool
}

// Connection is one sampled connection's inbound record.
type Connection struct {
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstPort   uint16
	IPVersion int

	// Packets holds up to MaxPackets records in logging order (which
	// may differ from arrival order within a second).
	Packets []PacketRecord
	// TotalPackets counts every inbound packet including unrecorded
	// ones beyond the cap.
	TotalPackets int
	// LastActivity is the 1-second timestamp of the last inbound
	// packet, recorded or not.
	LastActivity int64
	// CloseTime is when the collection window for this connection
	// ended (sampler drain time), for trailing-silence measurement.
	CloseTime int64
}

// Key identifies the connection's flow.
func (c *Connection) Key() FlowKey {
	return FlowKey{Src: c.SrcIP, Dst: c.DstIP, SrcPort: c.SrcPort, DstPort: c.DstPort}
}

// FlowKey is the 4-tuple of the client→server direction.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
}

// Config tunes the sampler.
type Config struct {
	// Rate samples 1 in Rate connections (1 records everything; the
	// paper's deployment uses 10 000).
	Rate uint64
	// MaxPackets caps recorded packets per connection (paper: 10).
	MaxPackets int
	// MaxPayload caps captured payload bytes per packet.
	MaxPayload int
	// ShuffleWithinSecond randomizes logging order among packets that
	// share a timestamp, reproducing constraint 2; nil disables.
	ShuffleWithinSecond *rand.Rand
	// VerifyChecksums drops inbound packets whose IP/TCP checksums do
	// not verify, as the deployment's kernel tap would never surface
	// them. Enable when the feed can carry corrupted-in-flight packets
	// (e.g. simulations with bit-corruption impairments).
	VerifyChecksums bool
}

// DefaultConfig is the paper's deployment configuration, except Rate=1:
// scenario generators emit the sampled population directly (see
// DESIGN.md), and the ablation benches re-enable 1-in-10k sampling.
func DefaultConfig() Config {
	return Config{Rate: 1, MaxPackets: 10, MaxPayload: 512}
}

// Sampler ingests inbound packets at the server tap and accumulates
// sampled connection records.
//
// Records are carved from chunks the sampler allocates in bulk: the
// Connection itself, an initial Packets array of initialPackets
// entries (longer flows grow by append), and each payload copy. No
// carved memory is ever handed out twice, so a drained record stays
// valid for as long as its holder keeps it, across later Inbound,
// DrainIdle, Drain and Reset calls. A flow still open at a DrainIdle
// after having outlived a whole sweep interval is moved out of the
// chunks (see detach), so long-lived flows do not keep the chunks
// alive, and with them the records drained from the same chunks.
type Sampler struct {
	cfg    Config
	parser *packet.SummaryParser
	flows  map[FlowKey]flow
	order  []FlowKey // insertion order for deterministic drains
	// settled counts the leading order entries that were already
	// tracked at the previous DrainIdle.
	settled int

	// Unused tails of the current record chunks, and the payload
	// allocator.
	conns    []Connection
	packets  []PacketRecord
	payloads slab.Bytes

	// Stats.
	SeenPackets    int
	SampledPackets int
}

// NewSampler builds a sampler.
func NewSampler(cfg Config) *Sampler {
	s := &Sampler{
		parser: packet.NewSummaryParser(),
		flows:  make(map[FlowKey]flow),
	}
	s.Reset(cfg)
	return s
}

// Reset drops every tracked flow and the stats and applies cfg, keeping
// the parser, flow table and record chunks for reuse. Records already
// drained stay valid: carving continues after them.
func (s *Sampler) Reset(cfg Config) {
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	if cfg.MaxPackets == 0 {
		cfg.MaxPackets = 10
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 512
	}
	s.cfg = cfg
	clear(s.flows)
	clear(s.order)
	s.order, s.settled = s.order[:0], 0
	s.SeenPackets, s.SampledPackets = 0, 0
}

// Inbound ingests one inbound packet; use it as a netsim path tap.
func (s *Sampler) Inbound(at netsim.Time, data []byte) {
	if s.cfg.VerifyChecksums && !packet.ChecksumsValid(data) {
		return
	}
	var sum packet.Summary
	if err := s.parser.Parse(data, &sum); err != nil {
		return
	}
	s.SeenPackets++
	key := FlowKey{Src: sum.SrcIP, Dst: sum.DstIP, SrcPort: sum.SrcPort, DstPort: sum.DstPort}
	f, tracked := s.flows[key]
	if !tracked {
		// New flows are admitted only on their SYN and only when the
		// flow hash selects them; mid-flow packets of unsampled
		// connections are ignored, as in the deployment.
		if !sum.Flags.Has(packet.FlagSYN) || sum.Flags.Has(packet.FlagACK) {
			return
		}
		if !s.selected(key) {
			return
		}
		f.conn = s.newConn()
		f.conn.SrcIP, f.conn.DstIP = sum.SrcIP, sum.DstIP
		f.conn.SrcPort, f.conn.DstPort = sum.SrcPort, sum.DstPort
		f.conn.IPVersion = sum.IPVersion
		s.flows[key] = f
		s.order = append(s.order, key)
	}
	conn := f.conn
	ts := at.Unix()
	conn.TotalPackets++
	conn.LastActivity = ts
	if len(conn.Packets) >= s.cfg.MaxPackets {
		return
	}
	s.SampledPackets++
	rec := PacketRecord{
		Timestamp:  ts,
		Flags:      sum.Flags,
		Seq:        sum.Seq,
		Ack:        sum.Ack,
		IPID:       sum.IPID,
		TTL:        sum.TTL,
		Window:     sum.Window,
		PayloadLen: sum.PayloadLen,
		HasOptions: sum.HasOptions,
	}
	if n := sum.PayloadLen; n > 0 {
		if n > s.cfg.MaxPayload {
			n = s.cfg.MaxPayload
		}
		if f.own {
			rec.Payload = make([]byte, n)
		} else {
			rec.Payload = s.payloads.Carve(n)
		}
		copy(rec.Payload, sum.Payload)
	}
	if rng := s.cfg.ShuffleWithinSecond; rng != nil && len(conn.Packets) > 0 {
		// Insert at a random position among records of the same second,
		// modelling the unordered log.
		lo := len(conn.Packets)
		for lo > 0 && conn.Packets[lo-1].Timestamp == ts {
			lo--
		}
		pos := lo + rng.IntN(len(conn.Packets)-lo+1)
		conn.Packets = append(conn.Packets, PacketRecord{})
		copy(conn.Packets[pos+1:], conn.Packets[pos:])
		conn.Packets[pos] = rec
		return
	}
	conn.Packets = append(conn.Packets, rec)
}

// flow is one tracked connection. own marks a record detached from
// the shared chunks, whose later payloads get buffers of their own.
type flow struct {
	conn *Connection
	own  bool
}

// Chunk sizes for the sampler's record memory. initialPackets covers
// a typical sampled flow (about 3.7 recorded packets per connection
// on the iran2022 scenario).
const (
	connChunk      = 128
	initialPackets = 4
)

// newConn carves a zeroed Connection whose Packets is an empty slice
// over a private initialPackets-entry array.
func (s *Sampler) newConn() *Connection {
	if len(s.conns) == 0 {
		s.conns = make([]Connection, connChunk)
	}
	c := &s.conns[0]
	s.conns = s.conns[1:]
	n := min(initialPackets, max(s.cfg.MaxPackets, 0))
	if len(s.packets) < n {
		s.packets = make([]PacketRecord, connChunk*initialPackets)
	}
	c.Packets = s.packets[:0:n]
	s.packets = s.packets[n:]
	return c
}

// detach copies an open flow's record, packets and payloads into
// memory of its own and clears the carved original, so that the
// flow no longer keeps the chunks it was carved from alive.
func (s *Sampler) detach(c *Connection) *Connection {
	own := new(Connection)
	*own = *c
	own.Packets = make([]PacketRecord, len(c.Packets), max(len(c.Packets), s.cfg.MaxPackets))
	copy(own.Packets, c.Packets)
	n := 0
	for _, p := range c.Packets {
		n += len(p.Payload)
	}
	buf := make([]byte, 0, n)
	for i, p := range own.Packets {
		if p.Payload != nil {
			at := len(buf)
			buf = append(buf, p.Payload...)
			own.Packets[i].Payload = buf[at:len(buf):len(buf)]
		}
	}
	*c = Connection{}
	return own
}

// selected applies the deterministic uniform flow-hash sampling: the
// hash depends on the 4-tuple alone, so every sampler in every run
// selects the same flows.
func (s *Sampler) selected(key FlowKey) bool {
	if s.cfg.Rate <= 1 {
		return true
	}
	return flowHash(key)%s.cfg.Rate == 0
}

// flowHash is FNV-1a over the 4-tuple (addresses in 16-byte form,
// ports big-endian), finished with the SplitMix64 mixer so that every
// output bit depends on every input byte before the modulus.
func flowHash(key FlowKey) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	src, dst := key.Src.As16(), key.Dst.As16()
	for _, b := range src {
		h = (h ^ uint64(b)) * prime
	}
	for _, b := range dst {
		h = (h ^ uint64(b)) * prime
	}
	for _, b := range [4]byte{byte(key.SrcPort >> 8), byte(key.SrcPort), byte(key.DstPort >> 8), byte(key.DstPort)} {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// DrainIdle closes and returns connections whose last activity is at
// least idleSeconds old, keeping active flows tracked. Long-running
// deployments call it periodically to bound memory; the returned
// records have CloseTime set to now. A kept flow that was already
// tracked at the previous DrainIdle is detached from the record
// chunks, so memory stays bounded by the flows admitted over the
// last two calls' interval, however long some flows live.
func (s *Sampler) DrainIdle(now netsim.Time, idleSeconds int64) []*Connection {
	ts := now.Unix()
	var out []*Connection
	keep := s.order[:0]
	for i, key := range s.order {
		f := s.flows[key]
		if ts-f.conn.LastActivity >= idleSeconds {
			f.conn.CloseTime = ts
			out = append(out, f.conn)
			delete(s.flows, key)
			continue
		}
		if i < s.settled && !f.own {
			s.flows[key] = flow{conn: s.detach(f.conn), own: true}
		}
		keep = append(keep, key)
	}
	s.order, s.settled = keep, len(keep)
	return out
}

// Drain closes all tracked connections at the given time and returns
// them in admission order, emptying the sampler's flow table.
func (s *Sampler) Drain(closeAt netsim.Time) []*Connection {
	out := make([]*Connection, 0, len(s.flows))
	ts := closeAt.Unix()
	for _, key := range s.order {
		conn := s.flows[key].conn
		conn.CloseTime = ts
		out = append(out, conn)
	}
	clear(s.flows)
	clear(s.order)
	s.order, s.settled = s.order[:0], 0
	return out
}

// Pending reports the number of open connection records.
func (s *Sampler) Pending() int { return len(s.flows) }
