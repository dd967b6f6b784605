// Package middlebox implements tampering middleboxes: deep-packet
// inspection over real wire bytes, trigger matching on destination IPs,
// TLS SNI values, HTTP Host headers, and payload keywords, and the
// tampering actions the paper catalogues — packet dropping and RST/
// RST+ACK injection with configurable packet counts, acknowledgment-
// number strategies, IP-ID strategies, and TTL strategies (§2.1, §4).
//
// An Engine implements netsim.Middlebox. Its policies are generic; the
// named censor profiles from the paper's observations (China's GFW,
// Iran's DPI, Turkmenistan's HTTP blocker, commercial enterprise
// firewalls, …) are provided as constructors in profiles.go.
package middlebox

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"time"

	"tamperdetect/internal/httpwire"
	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
	"tamperdetect/internal/tlswire"
)

// TriggerStage says how deep into a connection the policy inspects.
type TriggerStage int

// Trigger stages.
const (
	// StageSYN triggers on the connection's first SYN; only IP-based
	// matching is possible (SYNs carry no domain, §4.1).
	StageSYN TriggerStage = iota
	// StageFirstData triggers on client data packets carrying a
	// parseable TLS SNI or HTTP Host (the dominant censorship trigger).
	StageFirstData
	// StageAnyData triggers on a keyword substring in any client data
	// packet, including beyond the first (cleartext keyword censors
	// and TLS-terminating enterprise firewalls, §4.1).
	StageAnyData
)

// AckMode selects the acknowledgment-number strategy of injected
// tear-down packets — the distinguishing feature of several Post-PSH
// signatures (⟨PSH+ACK → RST=RST⟩, ⟨… RST≠RST⟩, ⟨… RST;RST₀⟩).
type AckMode int

// Ack strategies.
const (
	// AckEcho uses the triggering packet's own acknowledgment number.
	AckEcho AckMode = iota
	// AckZero sets the acknowledgment field to zero.
	AckZero
	// AckGuess advances the acknowledgment by i*1460 on the i-th
	// injected packet — Weaver et al.'s "guess the next segment"
	// middleboxes.
	AckGuess
)

// IPIDMode selects the IP identification strategy of injected packets.
type IPIDMode int

// IP-ID strategies for injectors.
const (
	// IPIDRandom draws a fresh random ID per packet: the common case
	// that makes IP-ID deltas strong injection evidence (§4.3).
	IPIDRandom IPIDMode = iota
	// IPIDZeroMode always sends zero.
	IPIDZeroMode
	// IPIDCopy copies the triggering packet's IP-ID, the evasive
	// behaviour prior work observed in some censors.
	IPIDCopy
)

// TTLMode selects the initial TTL of injected packets.
type TTLMode int

// TTL strategies for injectors.
const (
	// TTLFixed stamps TTLValue on every injected packet.
	TTLFixed TTLMode = iota
	// TTLRandom draws uniformly from [TTLMin, TTLMax] per packet — the
	// South Korean ISP behaviour in §4.3/Figure 3.
	TTLRandom
)

// InjectSpec describes one burst of forged tear-down packets.
type InjectSpec struct {
	Flags packet.TCPFlags // FlagsRST or FlagsRSTACK
	Count int
	Ack   AckMode
	IPID  IPIDMode
	TTL   TTLMode
	// TTLValue is the fixed initial TTL; TTLMin/TTLMax bound TTLRandom.
	TTLValue uint8
	TTLMin   uint8
	TTLMax   uint8
	// SeqJitter advances the sequence number by i*1460 per packet,
	// pairing with AckGuess.
	SeqJitter bool
	// Payload attaches application bytes to the injected packet
	// (block-page injection); PayloadOffset advances the sequence
	// number past previously injected payload bytes.
	Payload       []byte
	PayloadOffset int
}

// Action is one weighted tampering reaction.
type Action struct {
	// Weight is the relative probability of this variant; weights are
	// normalized across the policy's Actions.
	Weight float64
	// DropTriggering drops the packet that matched.
	DropTriggering bool
	// Blackhole drops every subsequent packet of the flow in both
	// directions (in-path censors).
	Blackhole bool
	// ToServer and ToClient are forged packets sent each way.
	ToServer []InjectSpec
	ToClient []InjectSpec
}

// Policy couples a trigger with weighted actions.
type Policy struct {
	Name  string
	Stage TriggerStage
	// MatchIP gates StageSYN triggers; nil matches nothing.
	MatchIP func(dst netip.Addr) bool
	// MatchDomain gates StageFirstData triggers on the SNI/Host value;
	// nil matches nothing.
	MatchDomain func(domain string) bool
	// Keyword gates StageAnyData triggers; empty matches nothing.
	Keyword string
	Actions []Action
	// ActionSeed, when nonzero, makes the weighted-action choice
	// deterministic (hash-based) with a small residual random share —
	// real deployments apply the same behaviour to the same route and
	// destination, which is what makes Appendix B's IP-domain pairs
	// consistent.
	ActionSeed uint64
	// ResidualSeconds enables residual censorship (Appendix B,
	// hypothesis 2; the GFW's well-documented behaviour): once a flow
	// triggers, *new* connections between the same client and server
	// are torn down at the SYN for this long, regardless of content.
	ResidualSeconds int
	// Reverse also applies the policy's blackhole to server->client
	// traffic before the trigger (unused by current profiles; kept for
	// symmetric censors).
	Reverse bool
}

// flowKey identifies a flow by its initiator-side 4-tuple.
type flowKey struct {
	client, server netip.Addr
	cport, sport   uint16
}

// hostPair keys residual-censorship state by client/server addresses.
type hostPair struct {
	client, server netip.Addr
}

// flowState tracks a flow's progress past the middlebox.
type flowState struct {
	synSeen    bool
	ackSeen    bool
	dataCount  int
	triggered  bool
	blackholed bool
	lastSeen   netsim.Time
}

// Engine is a DPI middlebox applying a set of policies. It implements
// netsim.Middlebox. One Engine may serve many flows.
type Engine struct {
	policies []Policy
	rng      *rand.Rand
	parser   *packet.SummaryParser
	flows    map[flowKey]*flowState
	now      func() netsim.Time
	// residualUntil records, per host pair, the virtual time until
	// which new connections are punished (residual censorship).
	residualUntil map[hostPair]netsim.Time

	// Stats for tests and reports.
	Triggered int
	Dropped   int
	Injected  int
}

// NewEngine builds a middlebox engine. now may be nil when flow aging
// is not needed.
func NewEngine(policies []Policy, rng *rand.Rand, now func() netsim.Time) *Engine {
	e := &Engine{
		parser:        packet.NewSummaryParser(),
		flows:         make(map[flowKey]*flowState),
		residualUntil: make(map[hostPair]netsim.Time),
	}
	e.Reset(policies, rng, now)
	return e
}

// Reset reconfigures the engine as NewEngine would, forgetting every
// flow, all residual-censorship state and the stats, while keeping its
// parser and tables for reuse.
func (e *Engine) Reset(policies []Policy, rng *rand.Rand, now func() netsim.Time) {
	e.policies, e.rng, e.now = policies, rng, now
	clear(e.flows)
	clear(e.residualUntil)
	e.Triggered, e.Dropped, e.Injected = 0, 0, 0
}

// Process implements netsim.Middlebox.
func (e *Engine) Process(dir netsim.Direction, data []byte, inject func(netsim.Direction, []byte)) bool {
	var s packet.Summary
	if err := e.parser.Parse(data, &s); err != nil {
		return true // not IP/TCP: forward untouched
	}
	key, fromClient := e.flowKeyOf(dir, &s)
	st := e.flows[key]
	if st == nil {
		st = &flowState{}
		e.flows[key] = st
	}
	if e.now != nil {
		st.lastSeen = e.now()
	}
	if st.blackholed {
		e.Dropped++
		return false
	}

	// Residual censorship: a punished host pair gets its new SYNs
	// reset immediately, before any content is inspected.
	if fromClient && s.Flags.Has(packet.FlagSYN) && !st.triggered && e.now != nil {
		pair := hostPair{client: key.client, server: key.server}
		if until, ok := e.residualUntil[pair]; ok {
			if e.now() <= until {
				// Off-path style: the SYN still reaches the server,
				// chased by forged RSTs, and the rest of the flow is
				// swallowed — ⟨SYN → RST⟩ at the server.
				st.triggered = true
				st.blackholed = true
				e.Triggered++
				spec := InjectSpec{Flags: packet.FlagsRST, Count: 1, Ack: AckEcho, IPID: IPIDRandom, TTL: TTLFixed, TTLValue: 64}
				inject(netsim.ClientToServer, e.forge(spec, 0, &s, true))
				inject(netsim.ServerToClient, e.forge(spec, 0, &s, false))
				e.Injected += 2
				return true
			}
			delete(e.residualUntil, pair)
		}
	}

	// Track stage progress from the client side.
	if fromClient {
		switch {
		case s.Flags.Has(packet.FlagSYN):
			st.synSeen = true
		case s.PayloadLen > 0:
			st.dataCount++
		case s.Flags.Has(packet.FlagACK):
			st.ackSeen = true
		}
	}

	// Match policies. A flow triggers at most once: real censors act
	// on the first match and their residual state handles the rest —
	// retransmissions of the triggering packet are swallowed by the
	// blackhole or re-trigger identically, which we suppress to avoid
	// double bursts. Blackhole-only policies keep absorbing.
	if fromClient && !st.triggered {
		for i := range e.policies {
			p := &e.policies[i]
			if !e.matches(p, st, &s) {
				continue
			}
			st.triggered = true
			e.Triggered++
			act := e.pickAction(p.Actions, p.ActionSeed)
			if act == nil {
				break
			}
			if act.Blackhole {
				// The blackhole swallows *subsequent* packets; the
				// trigger itself passes unless DropTriggering is set
				// (⟨SYN → ∅⟩ and ⟨PSH+ACK → ∅⟩ both require the
				// trigger to reach the server).
				st.blackholed = true
			}
			if p.ResidualSeconds > 0 && e.now != nil {
				pair := hostPair{client: key.client, server: key.server}
				e.residualUntil[pair] = e.now().Add(time.Duration(p.ResidualSeconds) * time.Second)
			}
			e.injectBursts(act, &s, inject)
			if act.DropTriggering {
				e.Dropped++
				return false
			}
			break
		}
	} else if fromClient && st.triggered {
		// Retransmissions of a dropped trigger stay dropped even
		// without a full blackhole: the DPI re-matches them.
		if st.lastDropRetrigger(e, &s) {
			e.Dropped++
			return false
		}
	}
	return true
}

// lastDropRetrigger reports whether a post-trigger client packet would
// re-match a dropping policy (so trigger retransmissions die the same
// death as the original).
func (st *flowState) lastDropRetrigger(e *Engine, s *packet.Summary) bool {
	if s.PayloadLen == 0 {
		return false
	}
	for i := range e.policies {
		p := &e.policies[i]
		if !triggerContent(p, s) {
			continue
		}
		for _, a := range p.Actions {
			if a.DropTriggering || a.Blackhole {
				return true
			}
		}
	}
	return false
}

// matches evaluates the policy trigger against the current packet and
// flow stage.
func (e *Engine) matches(p *Policy, st *flowState, s *packet.Summary) bool {
	switch p.Stage {
	case StageSYN:
		return s.Flags.Has(packet.FlagSYN) && p.MatchIP != nil && p.MatchIP(s.DstIP)
	case StageFirstData, StageAnyData:
		if s.PayloadLen == 0 {
			return false
		}
		return triggerContent(p, s)
	default:
		return false
	}
}

// triggerContent checks only the packet content against the policy
// (stage progress aside) — used both for first matches and for
// retransmission re-matching.
func triggerContent(p *Policy, s *packet.Summary) bool {
	switch p.Stage {
	case StageFirstData:
		if p.MatchDomain == nil {
			return false
		}
		domain := DomainOf(s.Payload)
		return domain != "" && p.MatchDomain(domain)
	case StageAnyData:
		return p.Keyword != "" && bytes.Contains(s.Payload, []byte(p.Keyword))
	default:
		return false
	}
}

// DomainOf extracts the tampering-relevant domain from a client data
// payload: the TLS SNI if the payload is a ClientHello, else the HTTP
// Host header, else "".
func DomainOf(payload []byte) string {
	if tlswire.LooksLikeClientHello(payload) {
		if sni, err := tlswire.ParseSNI(payload); err == nil {
			return sni
		}
		return ""
	}
	if httpwire.LooksLikeRequest(payload) {
		return httpwire.HostOf(payload)
	}
	return ""
}

// pickAction draws a weighted action variant. A nonzero seed pins the
// choice deterministically for ~85% of triggers, modelling per-route
// consistency; the remainder stays random (packet loss, load-balanced
// boxes) — the Appendix B off-diagonal bleed.
func (e *Engine) pickAction(actions []Action, seed uint64) *Action {
	if len(actions) == 0 {
		return nil
	}
	if len(actions) == 1 {
		return &actions[0]
	}
	total := 0.0
	for i := range actions {
		w := actions[i].Weight
		if w <= 0 {
			w = 1
		}
		total += w
	}
	u := e.rng.Float64()
	if seed != 0 && e.rng.Float64() < 0.85 {
		u = float64(splitmix(seed)>>11) / float64(1<<53)
	}
	r := u * total
	for i := range actions {
		w := actions[i].Weight
		if w <= 0 {
			w = 1
		}
		if r < w {
			return &actions[i]
		}
		r -= w
	}
	return &actions[len(actions)-1]
}

// injectBursts forges and sends the action's packets, derived from the
// triggering packet s.
func (e *Engine) injectBursts(act *Action, s *packet.Summary, inject func(netsim.Direction, []byte)) {
	for _, spec := range act.ToServer {
		for i := 0; i < spec.Count; i++ {
			pkt := e.forge(spec, i, s, true)
			inject(netsim.ClientToServer, pkt)
			e.Injected++
		}
	}
	for _, spec := range act.ToClient {
		for i := 0; i < spec.Count; i++ {
			pkt := e.forge(spec, i, s, false)
			inject(netsim.ServerToClient, pkt)
			e.Injected++
		}
	}
}

// forge builds one injected packet. toServer selects spoofing the
// client (packet travels to the server) versus spoofing the server.
func (e *Engine) forge(spec InjectSpec, i int, s *packet.Summary, toServer bool) []byte {
	// SYN and FIN consume one sequence number beyond the payload.
	trigEnd := s.Seq + uint32(s.PayloadLen)
	if s.Flags.HasAny(packet.FlagSYN | packet.FlagFIN) {
		trigEnd++
	}
	var seq, ack uint32
	if toServer {
		// Land on the server's rcv.nxt so the RST is accepted.
		seq = trigEnd
		ack = s.Ack
	} else {
		seq = s.Ack
		ack = trigEnd
	}
	if spec.SeqJitter {
		seq += uint32(i) * 1460
	}
	seq += uint32(spec.PayloadOffset)
	switch spec.Ack {
	case AckZero:
		ack = 0
	case AckGuess:
		ack += uint32(i) * 1460
	}
	var ttl uint8
	switch spec.TTL {
	case TTLRandom:
		lo, hi := spec.TTLMin, spec.TTLMax
		if hi <= lo {
			hi = lo + 1
		}
		ttl = lo + uint8(e.rng.IntN(int(hi-lo)+1))
	default:
		ttl = spec.TTLValue
		if ttl == 0 {
			ttl = 64
		}
	}
	var ipid uint16
	switch spec.IPID {
	case IPIDZeroMode:
		ipid = 0
	case IPIDCopy:
		ipid = s.IPID
	default:
		ipid = uint16(e.rng.IntN(0x10000))
	}

	prof := tcpWireProfile(s, toServer, ttl, ipid)
	w := newForgeWire(prof)
	return w.build(spec.Flags, seq, ack, spec.Payload)
}

// splitmix is a tiny deterministic hash finalizer (SplitMix64).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// flowKeyOf normalizes a packet to its initiator-side key. The
// simulator always has the client on the ClientToServer side.
func (e *Engine) flowKeyOf(dir netsim.Direction, s *packet.Summary) (flowKey, bool) {
	if dir == netsim.ClientToServer {
		return flowKey{client: s.SrcIP, server: s.DstIP, cport: s.SrcPort, sport: s.DstPort}, true
	}
	return flowKey{client: s.DstIP, server: s.SrcIP, cport: s.DstPort, sport: s.SrcPort}, false
}

// ExpireFlows drops state for flows idle longer than maxIdle; call it
// periodically in long simulations to bound memory.
func (e *Engine) ExpireFlows(maxIdle time.Duration) {
	if e.now == nil {
		return
	}
	cut := e.now().Add(-maxIdle)
	for k, st := range e.flows {
		if st.lastSeen < cut {
			delete(e.flows, k)
		}
	}
}
