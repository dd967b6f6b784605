package workload

import (
	"math/rand/v2"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/faults"
	"tamperdetect/internal/httpwire"
	"tamperdetect/internal/middlebox"
	"tamperdetect/internal/netsim"
	"tamperdetect/internal/tcpsim"
	"tamperdetect/internal/tlswire"
)

// Simulator is one goroutine's reusable connection simulator: the
// event engine, both TCP endpoints, the path, the censor engine, the
// impairment chain, the capture sampler and the RNGs, built once and
// reset between connections. In steady state a
// simulated connection allocates little beyond the capture record it
// returns (and a censored one, its policies).
//
// Ownership rule: each endpoint serializes its packets into its own
// buffer, which the endpoint's Reset rewinds, so packet bytes stay
// valid only until the connection's sampler Drain; the next Simulate
// overwrites them. Nothing that outlives a connection may keep a
// packet slice — the sampler copies the payload bytes it records, and
// the middlebox engines keep only flow state.
//
// A Simulator is not safe for concurrent use. The output of Simulate
// depends only on the spec, never on what the simulator ran before.
type Simulator struct {
	u      *domains.Universe
	capCfg capture.Config
	// impSalt decorrelates the impairment stream across grades.
	impSalt uint64

	sim                 *netsim.Sim
	now                 func() netsim.Time
	pcg, capPCG, impPCG rand.PCG
	rng, capRNG, impRNG *rand.Rand
	cli                 *tcpsim.Client
	srv                 *tcpsim.Server
	path                *netsim.Path
	sampler             *capture.Sampler
	censor              *middlebox.Engine
	chain               *faults.Chain
	hook                netsim.SegmentHook

	segs    [2]netsim.Segment
	mbs     [1]netsim.Middlebox
	reqBuf  []byte
	reqSegs []tcpsim.Segment
}

// NewSimulator builds a simulator for connections of universe u,
// recorded under capCfg (zero value: capture.DefaultConfig()) over
// paths impaired by imp (zero value: a clean network).
func NewSimulator(u *domains.Universe, capCfg capture.Config, imp faults.Config) *Simulator {
	a := &Simulator{u: u, sim: netsim.NewSim(0)}
	if capCfg.Rate == 0 {
		capCfg = capture.DefaultConfig()
	}
	// The deployment's tap never surfaces checksum-broken packets.
	capCfg.VerifyChecksums = true
	a.capCfg = capCfg
	a.now = a.sim.Now
	a.rng, a.capRNG, a.impRNG = rand.New(&a.pcg), rand.New(&a.capPCG), rand.New(&a.impPCG)
	a.cli = tcpsim.NewClient(a.sim, tcpsim.ClientConfig{}, a.rng)
	a.srv = tcpsim.NewServer(a.sim, tcpsim.ServerConfig{}, a.rng)
	a.path = netsim.NewPath(a.sim, netsim.PathConfig{Segments: a.segs[:1]}, a.cli, a.srv)
	a.sampler = capture.NewSampler(capCfg)
	a.path.Tap = a.sampler.Inbound
	a.cli.Attach(a.path.SendFromClient)
	a.srv.Attach(a.path.SendFromServer)
	a.censor = middlebox.NewEngine(nil, a.rng, a.now)
	if imp.Enabled() {
		a.impSalt = splitmixStr(imp.Grade)
		a.chain = faults.NewChain(imp, a.impRNG)
		a.hook = a.chain.Hook
	}
	return a
}

// simulator returns a fresh Simulator for the scenario's connections.
func (s *Scenario) simulator() *Simulator {
	return NewSimulator(s.Universe, s.CaptureConfig, s.Impairments)
}

// SimulateConn runs one connection through the full stack and returns
// its capture record (nil if the sampler did not select it). A non-zero
// imp applies benign link impairments to the path; endpoints get extra
// retransmission budget so an impaired-but-untampered connection still
// completes, and the capture tap verifies checksums (corrupted packets
// behave as loss, never as records). It builds a throwaway Simulator;
// loops over many specs should hold one and call Simulate.
func SimulateConn(spec *ConnSpec, u *domains.Universe, capCfg capture.Config, imp faults.Config) *capture.Connection {
	return NewSimulator(u, capCfg, imp).Simulate(spec)
}

// Simulate runs one connection with the spec's configured censor and
// returns its capture record, or nil if the sampler did not select it.
func (a *Simulator) Simulate(spec *ConnSpec) *capture.Connection {
	return a.simulate(spec, nil)
}

// simulate runs one connection. A non-nil override replaces the
// spec's censor as the path's only middlebox.
func (a *Simulator) simulate(spec *ConnSpec, override netsim.Middlebox) *capture.Connection {
	rng := a.rng
	a.pcg.Seed(spec.Seed, spec.Seed^0xabcdef)
	a.sim.Reset(spec.Start)

	clientIP := spec.AS.RandomAddr(rng, spec.V6)
	if spec.HostIdx >= 0 {
		clientIP = spec.AS.HostAddr(spec.HostIdx, spec.V6)
	}
	serverIP := serverIP4
	if spec.V6 {
		serverIP = serverIP6
	}
	dstPort := uint16(443)
	if !spec.UseTLS {
		dstPort = 80
	}
	srcPort := uint16(32768 + rng.IntN(28000))

	cprof := tcpsim.NetProfile{
		LocalIP: clientIP, RemoteIP: serverIP,
		LocalPort: srcPort, RemotePort: dstPort,
		InitialTTL: spec.TTLInit,
		IPID:       tcpsim.IPIDCounter,
		IPIDValue:  uint16(rng.IntN(60000)),
		Window:     64240,
		SYNOptions: true,
	}
	if spec.IPIDZero {
		cprof.IPID = tcpsim.IPIDZero
	}
	if spec.Behavior == tcpsim.BehaviorScanner {
		cprof.IPID = tcpsim.IPIDFixed
		cprof.IPIDValue = 54321
		cprof.SYNOptions = false
		cprof.InitialTTL = 255
	}
	sprof := tcpsim.NetProfile{
		LocalIP: serverIP, RemoteIP: clientIP,
		LocalPort: dstPort, RemotePort: srcPort,
		InitialTTL: 64, IPID: tcpsim.IPIDCounter, IPIDValue: uint16(rng.IntN(60000)),
		Window: 65535, SYNOptions: true,
	}

	ccfg := tcpsim.ClientConfig{Net: cprof, Behavior: spec.Behavior}
	if a.chain != nil {
		// Real stacks retry far more than our clean-path defaults; give
		// impaired connections the budget to survive burst loss.
		ccfg.SYNRetries = 6
		ccfg.DataRetries = 5
	}
	needsRequest := spec.Behavior == tcpsim.BehaviorNormal ||
		spec.Behavior == tcpsim.BehaviorDoubleSYN ||
		spec.Behavior == tcpsim.BehaviorAbandon ||
		spec.Behavior == tcpsim.BehaviorResetClose
	if spec.Domain != nil && needsRequest {
		ccfg.Segments = a.requestSegments(spec)
		if spec.SYNPayload {
			// The request rides the SYN; no separate data segment.
			ccfg.SYNPayload = ccfg.Segments[0].Data
			ccfg.Segments = ccfg.Segments[1:]
		}
	}

	a.cli.Reset(ccfg, rng)
	a.srv.Reset(tcpsim.ServerConfig{Net: sprof}, rng)

	mbs := a.mbs[:0]
	if override != nil {
		mbs = append(mbs, override)
	} else if pols := policiesFor(spec, a.u); len(pols) > 0 {
		a.censor.Reset(pols, rng, a.now)
		mbs = append(mbs, a.censor)
	}
	segs := a.segs[:len(mbs)+1]
	for i := range segs {
		segs[i] = netsim.Segment{
			Delay: time.Duration(5+rng.IntN(40)) * time.Millisecond,
			Hops:  uint8(3 + rng.IntN(7)),
		}
	}
	pathCfg := netsim.PathConfig{Segments: segs, Middleboxes: mbs}
	if a.chain != nil {
		// Per-connection impairment stream, deterministically seeded
		// from the spec and the grade so sweeps across grades
		// decorrelate.
		iseed := spec.Seed ^ 0xfa0175
		a.impPCG.Seed(iseed, iseed^a.impSalt)
		a.chain.Reset()
		pathCfg.Hook = a.hook
	}
	a.path.Reset(pathCfg)

	capCfg := a.capCfg
	if capCfg.ShuffleWithinSecond == nil {
		a.capPCG.Seed(spec.Seed^0x5417, spec.Seed)
		capCfg.ShuffleWithinSecond = a.capRNG
	}
	a.sampler.Reset(capCfg)
	a.cli.Start()
	a.sim.Run(500000)
	conns := a.sampler.Drain(a.sim.Now().Add(45 * time.Second))
	if len(conns) == 0 {
		return nil
	}
	return conns[0]
}

// userAgent is the request header set every simulated browser sends.
var userAgent = map[string]string{"User-Agent": "Mozilla/5.0"}

// requestSegments builds the client's data script into the simulator's
// request buffer; the segments stay valid until the next Simulate.
func (a *Simulator) requestSegments(spec *ConnSpec) []tcpsim.Segment {
	d := spec.Domain
	buf := a.reqBuf[:0]
	if spec.UseTLS {
		var random [32]byte
		for i := 0; i < len(random); i += 8 {
			v := a.rng.Uint64()
			for j := 0; j < 8; j++ {
				random[i+j] = byte(v >> (8 * j))
			}
		}
		buf = tlswire.AppendClientHello(buf, tlswire.ClientHelloSpec{ServerName: d.Name, Random: random})
	} else {
		buf = httpwire.AppendRequest(buf, "GET", d.Name, "/", userAgent)
	}
	first := len(buf)
	switch {
	case spec.KeywordTrigger && spec.UseTLS:
		// Enterprise firewalls see inside TLS (trusted-cert MitM,
		// §4.1); we model the visible keyword as a follow-up
		// cleartext-equivalent record after the response.
		buf = append(buf, "\x17\x03\x03 app-data "+blockKeyword...)
	case spec.KeywordTrigger:
		buf = httpwire.AppendRequest(buf, "GET", d.Name, "/"+blockKeyword, userAgent)
	case !spec.UseTLS && a.rng.Float64() < 0.25:
		// Some keep-alive second requests, so Post-Data prefixes exist
		// organically.
		buf = httpwire.AppendRequest(buf, "GET", d.Name, "/page2", nil)
	}
	a.reqBuf = buf
	segs := append(a.reqSegs[:0], tcpsim.Segment{Data: buf[:first:first]})
	if len(buf) > first {
		segs = append(segs, tcpsim.Segment{Data: buf[first:], AfterResponse: true})
	}
	a.reqSegs = segs
	return segs
}
