package tcpsim

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"strings"
	"testing"
	"time"

	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
)

// harness wires a client and server over a plain two-segment path and
// records the inbound packets at the server tap.
type harness struct {
	sim    *netsim.Sim
	client *Client
	server *Server
	path   *netsim.Path
	seen   []packet.Summary
	times  []netsim.Time
}

func clientProfile() NetProfile {
	return NetProfile{
		LocalIP:    netip.MustParseAddr("203.0.113.10"),
		RemoteIP:   netip.MustParseAddr("192.0.2.80"),
		LocalPort:  40000,
		RemotePort: 443,
		InitialTTL: 64,
		IPID:       IPIDCounter,
		IPIDValue:  7000,
		Window:     64240,
		SYNOptions: true,
	}
}

func serverProfile() NetProfile {
	return NetProfile{
		LocalIP:    netip.MustParseAddr("192.0.2.80"),
		RemoteIP:   netip.MustParseAddr("203.0.113.10"),
		LocalPort:  443,
		RemotePort: 40000,
		InitialTTL: 64,
		IPID:       IPIDCounter,
		IPIDValue:  20000,
		Window:     65535,
		SYNOptions: true,
	}
}

func newHarness(t *testing.T, ccfg ClientConfig, mbs ...netsim.Middlebox) *harness {
	t.Helper()
	h := &harness{sim: netsim.NewSim(0)}
	rng := rand.New(rand.NewPCG(1, 2))
	h.client = NewClient(h.sim, ccfg, rng)
	h.server = NewServer(h.sim, ServerConfig{Net: serverProfile()}, rng)
	segs := make([]netsim.Segment, len(mbs)+1)
	for i := range segs {
		segs[i] = netsim.Segment{Delay: 20 * time.Millisecond, Hops: 5}
	}
	h.path = netsim.NewPath(h.sim, netsim.PathConfig{Segments: segs, Middleboxes: mbs}, h.client, h.server)
	parser := packet.NewSummaryParser()
	h.path.Tap = func(at netsim.Time, data []byte) {
		var s packet.Summary
		if err := parser.Parse(data, &s); err != nil {
			t.Fatalf("tap parse: %v", err)
		}
		h.seen = append(h.seen, s)
		h.times = append(h.times, at)
	}
	h.client.Attach(h.path.SendFromClient)
	h.server.Attach(h.path.SendFromServer)
	return h
}

func (h *harness) run() {
	h.client.Start()
	h.sim.Run(100000)
}

func (h *harness) flagSeq() string {
	var parts []string
	for _, s := range h.seen {
		parts = append(parts, s.Flags.String())
	}
	return strings.Join(parts, " ")
}

func TestNormalConnection(t *testing.T) {
	req := []byte("GET / HTTP/1.1\r\nHost: ok.example\r\n\r\n")
	h := newHarness(t, ClientConfig{
		Net:      clientProfile(),
		Segments: []Segment{{Data: req}},
	})
	h.run()

	got := h.flagSeq()
	// SYN, handshake ACK, request, ACK(s) of response, FIN+ACK, final ACK.
	if !strings.HasPrefix(got, "SYN ACK PSH+ACK") {
		t.Fatalf("inbound sequence = %q", got)
	}
	if !strings.Contains(got, "FIN+ACK") {
		t.Errorf("no graceful close seen: %q", got)
	}
	if !bytes.Equal(h.server.RequestData, req) {
		t.Errorf("server got %q, want %q", h.server.RequestData, req)
	}
	if !h.client.Done || h.client.Reason != "closed-by-peer" {
		t.Errorf("client done=%v reason=%q", h.client.Done, h.client.Reason)
	}
	// No RSTs anywhere in a clean connection.
	for _, s := range h.seen {
		if s.Flags.IsRST() {
			t.Errorf("unexpected RST in clean connection: %v", got)
		}
	}
}

func TestSequenceNumbersCoherent(t *testing.T) {
	req := []byte("0123456789")
	h := newHarness(t, ClientConfig{Net: clientProfile(), Segments: []Segment{{Data: req}}})
	h.run()

	syn := h.seen[0]
	ack := h.seen[1]
	psh := h.seen[2]
	if ack.Seq != syn.Seq+1 {
		t.Errorf("handshake ACK seq = %d, want ISN+1 = %d", ack.Seq, syn.Seq+1)
	}
	if psh.Seq != syn.Seq+1 {
		t.Errorf("first data seq = %d, want ISN+1 = %d", psh.Seq, syn.Seq+1)
	}
	// Later client packets ack into server space monotonically.
	var last uint32
	for _, s := range h.seen[1:] {
		if s.Flags.Has(packet.FlagACK) {
			if last != 0 && int32(s.Ack-last) < 0 {
				t.Errorf("client acks went backwards: %d then %d", last, s.Ack)
			}
			last = s.Ack
		}
	}
}

func TestClientIPIDCounter(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Segments: []Segment{{Data: []byte("x")}}})
	h.run()
	for i := 1; i < len(h.seen); i++ {
		d := int(h.seen[i].IPID) - int(h.seen[i-1].IPID)
		if d != 1 {
			t.Errorf("IP-ID delta between consecutive client packets = %d, want 1", d)
		}
	}
}

func TestClientIPIDZero(t *testing.T) {
	prof := clientProfile()
	prof.IPID = IPIDZero
	h := newHarness(t, ClientConfig{Net: prof, Segments: []Segment{{Data: []byte("x")}}})
	h.run()
	for _, s := range h.seen {
		if s.IPID != 0 {
			t.Errorf("IP-ID = %d, want 0", s.IPID)
		}
	}
}

func TestClientTTLDecremented(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Segments: []Segment{{Data: []byte("x")}}})
	h.run()
	// The middlebox-free harness path has one 5-hop segment.
	for _, s := range h.seen {
		if s.TTL != 64-5 {
			t.Errorf("TTL at server = %d, want 59", s.TTL)
		}
	}
}

func TestScannerBehavior(t *testing.T) {
	prof := clientProfile()
	prof.IPID = IPIDFixed
	prof.IPIDValue = 54321
	prof.SYNOptions = false
	h := newHarness(t, ClientConfig{Net: prof, Behavior: BehaviorScanner})
	h.run()
	if got := h.flagSeq(); got != "SYN RST" {
		t.Errorf("scanner sequence = %q, want SYN RST", got)
	}
	if h.seen[0].IPID != 54321 {
		t.Errorf("scanner SYN IP-ID = %d, want 54321", h.seen[0].IPID)
	}
	if h.seen[0].HasOptions {
		t.Error("scanner SYN has TCP options")
	}
}

func TestHappyEyeballsReset(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Behavior: BehaviorHappyEyeballsReset})
	h.run()
	if got := h.flagSeq(); got != "SYN RST" {
		t.Errorf("sequence = %q, want SYN RST", got)
	}
}

func TestHappyEyeballsDrop(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Behavior: BehaviorHappyEyeballsDrop})
	h.run()
	if got := h.flagSeq(); got != "SYN" {
		t.Errorf("sequence = %q, want bare SYN", got)
	}
}

func TestStallAfterHandshake(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Behavior: BehaviorStallHandshake})
	h.run()
	if got := h.flagSeq(); got != "SYN ACK" {
		t.Errorf("sequence = %q, want SYN ACK", got)
	}
}

func TestRedundantACK(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Behavior: BehaviorRedundantACK})
	h.run()
	if got := h.flagSeq(); got != "SYN ACK ACK" {
		t.Errorf("sequence = %q, want SYN ACK ACK", got)
	}
}

func TestDoubleSYN(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Behavior: BehaviorDoubleSYN,
		Segments: []Segment{{Data: []byte("q")}}})
	h.run()
	if got := h.flagSeq(); !strings.HasPrefix(got, "SYN SYN") {
		t.Errorf("sequence = %q, want SYN SYN prefix", got)
	}
	if !h.client.Done {
		t.Error("double-SYN client never finished")
	}
}

func TestSYNPayload(t *testing.T) {
	req := []byte("GET /fast HTTP/1.1\r\nHost: syn.example\r\n\r\n")
	h := newHarness(t, ClientConfig{Net: clientProfile(), SYNPayload: req,
		Segments: nil})
	h.run()
	if h.seen[0].PayloadLen != len(req) {
		t.Errorf("SYN payload len = %d, want %d", h.seen[0].PayloadLen, len(req))
	}
	if !bytes.Equal(h.server.RequestData, req) {
		t.Errorf("server request data = %q", h.server.RequestData)
	}
}

func TestKeepAliveSecondRequest(t *testing.T) {
	h := newHarness(t, ClientConfig{
		Net: clientProfile(),
		Segments: []Segment{
			{Data: []byte("GET /a HTTP/1.1\r\nHost: h\r\n\r\n")},
			{Data: []byte("GET /b HTTP/1.1\r\nHost: h\r\n\r\n"), AfterResponse: true},
		},
	})
	h.run()
	var pshCount int
	for _, s := range h.seen {
		if s.Flags.Has(packet.FlagPSH) {
			pshCount++
		}
	}
	if pshCount != 2 {
		t.Errorf("PSH count = %d, want 2: %q", pshCount, h.flagSeq())
	}
	if want := "GET /a"; !strings.Contains(string(h.server.RequestData), want) {
		t.Errorf("missing first request")
	}
	if want := "GET /b"; !strings.Contains(string(h.server.RequestData), want) {
		t.Errorf("missing second request")
	}
}

// synDropMB drops every client->server packet after the first SYN, and
// everything server->client: the in-path IP-blocking censor that
// produces ⟨SYN → ∅⟩.
type synDropMB struct{ sawSYN bool }

func (m *synDropMB) Process(dir netsim.Direction, data []byte, inject func(netsim.Direction, []byte)) bool {
	if !m.sawSYN {
		if dir == netsim.ClientToServer {
			m.sawSYN = true
		}
		return true
	}
	return false
}

func TestSYNTimeoutProducesSingleSYN(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Segments: []Segment{{Data: []byte("x")}}},
		&synDropMB{})
	h.run()
	if got := h.flagSeq(); got != "SYN" {
		t.Errorf("sequence = %q, want single SYN (retransmissions dropped)", got)
	}
	if !h.client.Done || h.client.Reason != "syn-timeout" {
		t.Errorf("client reason = %q, want syn-timeout", h.client.Reason)
	}
}

// dataDropMB silently drops client data packets (and the server's
// responses stay unaffected): the Iran-style ClientHello drop producing
// ⟨SYN;ACK → ∅⟩.
type dataDropMB struct{}

func (dataDropMB) Process(dir netsim.Direction, data []byte, inject func(netsim.Direction, []byte)) bool {
	if dir != netsim.ClientToServer {
		return true
	}
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		return true
	}
	var tcp packet.TCP
	if err := tcp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		return true
	}
	return len(tcp.LayerPayload()) == 0
}

func TestDataDropProducesHandshakeOnly(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Segments: []Segment{{Data: []byte("\x16\x03\x01hello")}}},
		dataDropMB{})
	h.run()
	if got := h.flagSeq(); got != "SYN ACK" {
		t.Errorf("sequence = %q, want SYN ACK (all data dropped)", got)
	}
	if h.client.Reason != "data-timeout" {
		t.Errorf("client reason = %q, want data-timeout", h.client.Reason)
	}
}

func TestClientAbortsOnRST(t *testing.T) {
	h := newHarness(t, ClientConfig{Net: clientProfile(), Segments: []Segment{{Data: []byte("x")}}})
	// Deliver a forged RST straight to the client mid-handshake.
	h.client.Attach(h.path.SendFromClient)
	h.client.Start()
	h.sim.Run(2) // SYN sent, SYN+ACK on its way
	rst := NewServer(h.sim, ServerConfig{Net: serverProfile()}, rand.New(rand.NewPCG(3, 4)))
	_ = rst
	// Build a RST as if from the server.
	w := newWire(serverProfile())
	h.client.Recv(w.build(packet.FlagsRST, 1, 0, nil, false))
	if !h.client.Done || h.client.Reason != "rst" {
		t.Errorf("client done=%v reason=%q, want rst", h.client.Done, h.client.Reason)
	}
}

func TestServerRespondsRSTAfterAbort(t *testing.T) {
	sim := netsim.NewSim(0)
	rng := rand.New(rand.NewPCG(9, 9))
	srv := NewServer(sim, ServerConfig{Net: serverProfile()}, rng)
	var out [][]byte
	srv.Attach(func(d []byte) { out = append(out, d) })

	cw := newWire(clientProfile())
	srv.Recv(cw.build(packet.FlagsSYN, 1000, 0, nil, true))
	sim.Run(0)
	if len(out) == 0 {
		t.Fatal("no SYN+ACK")
	}
	// Forge an inbound RST (as a middlebox would, spoofing the client).
	srv.Recv(cw.build(packet.FlagsRST, 1001, 0, nil, false))
	if !srv.Aborted {
		t.Fatal("server did not abort on RST")
	}
	// A late client ACK now draws a RST.
	n := len(out)
	srv.Recv(cw.build(packet.FlagsACK, 1001, 4242, nil, false))
	if len(out) != n+1 {
		t.Fatal("no response to half-open segment")
	}
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(out[n]); err != nil {
		t.Fatal(err)
	}
	var tcp packet.TCP
	if err := tcp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if !tcp.Flags.IsRST() {
		t.Errorf("reply flags = %v, want RST", tcp.Flags)
	}
	if tcp.Seq != 4242 {
		t.Errorf("RST seq = %d, want incoming ack 4242", tcp.Seq)
	}
}

func TestIPv6Connection(t *testing.T) {
	cprof := NetProfile{
		LocalIP:    netip.MustParseAddr("2001:db8:1::10"),
		RemoteIP:   netip.MustParseAddr("2001:db8:2::80"),
		LocalPort:  40001,
		RemotePort: 443,
		InitialTTL: 64,
		Window:     64240,
		SYNOptions: true,
	}
	sprof := NetProfile{
		LocalIP:    cprof.RemoteIP,
		RemoteIP:   cprof.LocalIP,
		LocalPort:  443,
		RemotePort: 40001,
		InitialTTL: 64,
		Window:     65535,
		SYNOptions: true,
	}
	sim := netsim.NewSim(0)
	rng := rand.New(rand.NewPCG(5, 6))
	cli := NewClient(sim, ClientConfig{Net: cprof, Segments: []Segment{{Data: []byte("v6 req")}}}, rng)
	srv := NewServer(sim, ServerConfig{Net: sprof}, rng)
	var seen []packet.Summary
	parser := packet.NewSummaryParser()
	path := netsim.NewPath(sim, netsim.PathConfig{Segments: []netsim.Segment{{Delay: time.Millisecond, Hops: 8}}}, cli, srv)
	path.Tap = func(at netsim.Time, data []byte) {
		var s packet.Summary
		if err := parser.Parse(data, &s); err != nil {
			t.Fatalf("parse: %v", err)
		}
		seen = append(seen, s)
	}
	cli.Attach(path.SendFromClient)
	srv.Attach(path.SendFromServer)
	cli.Start()
	sim.Run(0)
	if len(seen) < 3 {
		t.Fatalf("only %d inbound packets", len(seen))
	}
	if seen[0].IPVersion != 6 || seen[0].TTL != 56 {
		t.Errorf("v6 SYN version/ttl = %d/%d, want 6/56", seen[0].IPVersion, seen[0].TTL)
	}
	if string(srv.RequestData) != "v6 req" {
		t.Errorf("request = %q", srv.RequestData)
	}
}

func TestNetProfileIsV6(t *testing.T) {
	p := NetProfile{LocalIP: netip.MustParseAddr("::ffff:10.0.0.1")}
	if p.IsV6() {
		t.Error("4-in-6 mapped address reported as v6")
	}
	p.LocalIP = netip.MustParseAddr("2001:db8::1")
	if !p.IsV6() {
		t.Error("v6 address not reported as v6")
	}
}

// testRNG returns a fixed-seed RNG for deterministic tests.
func testRNG() *rand.Rand { return rand.New(rand.NewPCG(77, 78)) }

// newWire returns a wire for prof.
func newWire(prof NetProfile) *wire {
	w := &wire{}
	w.reset(prof)
	return w
}
