package capture

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
)

// shortFlows builds n inbound flows of one to four packets each: SYN,
// ACK, a PSH+ACK with payload, then RST+ACK, cut short per flow.
func shortFlows(t testing.TB, n, base int) [][]byte {
	t.Helper()
	var pkts [][]byte
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("20.%d.%d.%d", base, (i>>8)&0xff, i&0xff)
		sport := uint16(1024 + i)
		flow := [][]byte{
			buildPkt(t, src, "192.0.2.1", sport, 443, packet.FlagsSYN, 100, nil),
			buildPkt(t, src, "192.0.2.1", sport, 443, packet.FlagsACK, 101, nil),
			buildPkt(t, src, "192.0.2.1", sport, 443, packet.FlagsPSHACK, 101, []byte(request(base, i))),
			buildPkt(t, src, "192.0.2.1", sport, 443, packet.FlagsRSTACK, 140, nil),
		}
		pkts = append(pkts, flow[:1+i%4]...)
	}
	return pkts
}

// request is flow i's payload in shortFlows(base).
func request(base, i int) string {
	return fmt.Sprintf("GET /%d/%d HTTP/1.1\r\nHost: d%d.example\r\n\r\n", base, i, i)
}

// checkPayloads fails unless every recorded payload in conns is the
// request shortFlows(base) sent on that flow.
func checkPayloads(t *testing.T, conns []*Connection, base int) {
	t.Helper()
	for _, c := range conns {
		for _, p := range c.Packets {
			if want := request(base, int(c.SrcPort)-1024); p.Payload != nil && string(p.Payload) != want {
				t.Fatalf("flow %d payload %q, want %q", c.SrcPort, p.Payload, want)
			}
		}
	}
}

// cloneConns deep-copies records, payload bytes included.
func cloneConns(conns []*Connection) []Connection {
	out := make([]Connection, len(conns))
	for i, c := range conns {
		out[i] = *c
		out[i].Packets = append([]PacketRecord(nil), c.Packets...)
		for j := range out[i].Packets {
			if p := out[i].Packets[j].Payload; p != nil {
				out[i].Packets[j].Payload = append([]byte(nil), p...)
			}
		}
	}
	return out
}

// TestSamplerAllocsPerConnection pins the sampler's record memory at a
// fraction of an allocation per connection on short flows: records,
// their first packets and their payloads are carved from chunks.
func TestSamplerAllocsPerConnection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 512
	pkts := shortFlows(t, n, 1)
	s := NewSampler(DefaultConfig())
	perConn := testing.AllocsPerRun(5, func() {
		for i, p := range pkts {
			s.Inbound(netsim.Time(i)*netsim.Time(time.Millisecond), p)
		}
		if got := len(s.Drain(netsim.Time(time.Hour))); got != n {
			t.Fatalf("drained %d connections, want %d", got, n)
		}
	}) / n
	t.Logf("%.3f allocs per connection", perConn)
	if perConn > 0.3 {
		t.Errorf("Sampler: %.3f allocs per connection, want <= 0.3", perConn)
	}
}

// TestSamplerDrainedRecordsStayValid: records drained earlier keep
// every byte while the sampler goes on carving new records through
// more Inbound, DrainIdle, Drain and Reset calls.
func TestSamplerDrainedRecordsStayValid(t *testing.T) {
	s := NewSampler(DefaultConfig())
	feed := func(base int, start time.Duration) {
		for i, p := range shortFlows(t, 300, base) {
			s.Inbound(netsim.Time(start+time.Duration(i)*time.Millisecond), p)
		}
	}
	feed(1, 0)
	first := s.Drain(netsim.Time(time.Minute))
	want := cloneConns(first)

	feed(2, time.Hour)
	feed(3, 3*time.Hour)
	idle := s.DrainIdle(netsim.Time(3*time.Hour+time.Minute), 120)
	wantIdle := cloneConns(idle)
	s.Reset(DefaultConfig())
	feed(4, 5*time.Hour)
	feed(5, 6*time.Hour)
	s.Drain(netsim.Time(7 * time.Hour))

	if len(first) != 300 || len(idle) != 300 {
		t.Fatalf("drained %d then %d idle connections, want 300 each", len(first), len(idle))
	}
	checkPayloads(t, first, 1)
	checkPayloads(t, idle, 2)
	if !reflect.DeepEqual(cloneConns(first), want) {
		t.Error("a record from Drain changed after later sampler calls")
	}
	if !reflect.DeepEqual(cloneConns(idle), wantIdle) {
		t.Error("a record from DrainIdle changed after Reset and later sampler calls")
	}
}

// TestSamplerLongLivedFlowsReleaseDrainedRecords: one flow in every
// 100 stays open for the whole capture, as keep-alive connections do,
// while tamperscan-style sweeps (DrainIdle every 300 s, 120 s idle)
// drain the rest. Once their holder drops them, drained records and
// their payloads must become unreachable: an open flow must not keep
// the chunks it was carved from, and with them its drained
// neighbours, alive. The long-lived flows' records must stay intact
// through their move out of the chunks.
func TestSamplerLongLivedFlowsReleaseDrainedRecords(t *testing.T) {
	const (
		sweeps   = 12
		checked  = 5 // sweeps whose drained records must be collectable
		perSweep = 600
		interval = 300
	)
	s := NewSampler(DefaultConfig())
	type drainedRef struct {
		conn    weak.Pointer[Connection]
		payload weak.Pointer[byte]
	}
	var refs []drainedRef
	var long []int // flow ids of the long-lived flows
	keepAlive := func(id int) []byte { return []byte(fmt.Sprintf("keep-alive of flow %d", id)) }
	flowPkt := func(id int, flags packet.TCPFlags, payload []byte) []byte {
		src := fmt.Sprintf("20.%d.%d.%d", (id>>16)&0xff, (id>>8)&0xff, id&0xff)
		return buildPkt(t, src, "192.0.2.1", uint16(1024+id), 443, flags, 100, payload)
	}
	id := 0
	for k := 0; k < sweeps; k++ {
		for sec := k * interval; sec < (k+1)*interval; sec++ {
			at := netsim.Time(time.Duration(sec) * time.Second)
			if sec%60 == 0 {
				for _, l := range long {
					s.Inbound(at, flowPkt(l, packet.FlagsPSHACK, keepAlive(l)))
				}
			}
			for n := 0; n < perSweep/interval; n++ {
				s.Inbound(at, flowPkt(id, packet.FlagsSYN, nil))
				s.Inbound(at, flowPkt(id, packet.FlagsPSHACK, []byte(request(0, id))))
				if id%100 == 0 {
					long = append(long, id)
				} else {
					s.Inbound(at, flowPkt(id, packet.FlagsRSTACK, nil))
				}
				id++
			}
		}
		end := netsim.Time(time.Duration((k+1)*interval) * time.Second)
		for _, c := range s.DrainIdle(end, 120) {
			if k < checked {
				refs = append(refs, drainedRef{weak.Make(c), weak.Make(&c.Packets[1].Payload[0])})
			}
		}
	}
	if want := checked * perSweep * 99 / 100; len(refs) < want*9/10 {
		t.Fatalf("%d records drained in the first %d sweeps, want about %d", len(refs), checked, want)
	}
	runtime.GC()
	runtime.GC()
	conns, payloads := 0, 0
	for _, r := range refs {
		if r.conn.Value() != nil {
			conns++
		}
		if r.payload.Value() != nil {
			payloads++
		}
	}
	if conns+payloads > 0 {
		t.Errorf("of %d records drained in the first %d of %d sweeps and then dropped, %d are still reachable, and %d of their payloads",
			len(refs), checked, sweeps, conns, payloads)
	}

	// Drain also returns the short flows of the last two minutes.
	open := make(map[uint16]*Connection)
	for _, c := range s.Drain(netsim.Time(time.Duration(sweeps*interval) * time.Second)) {
		open[c.SrcPort] = c
	}
	for _, l := range long {
		c := open[uint16(1024+l)]
		if c == nil || len(c.Packets) < 2 {
			t.Fatalf("long-lived flow %d: not open at the end, or fewer than 2 packets", l)
		}
		for j, p := range c.Packets[1:] {
			want := string(keepAlive(l))
			if j == 0 {
				want = request(0, l)
			}
			if string(p.Payload) != want {
				t.Fatalf("long-lived flow %d packet %d payload %q, want %q", l, j+1, p.Payload, want)
			}
		}
	}
}
