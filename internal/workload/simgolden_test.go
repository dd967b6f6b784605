package workload

// Clock-extraction parity gate: the discrete-event core moved from
// internal/netsim into internal/simtime (PR 9) with the contract that
// every per-connection simulation stays byte-identical. This test pins
// that contract to golden digests computed on the pre-refactor tree: a
// seeded corpus of hand-built specs — every censor style, the client
// quirk behaviours, v4/v6, TLS/plain, SYN payloads, keyword triggers —
// is simulated under the clean and lossy impairment grades and the
// serialized captures are hashed. The digests below were recorded
// before the extraction; any drift in the event queue, timer
// semantics, or tie-breaking shows up here as a hash mismatch.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/faults"
	"tamperdetect/internal/netsim"
	"tamperdetect/internal/tcpsim"
)

// simCorpusGolden holds the pre-refactor digests per impairment grade.
var simCorpusGolden = map[string]string{
	"clean": "f37f9f905eb87dad4b3c3f2be6a8ecd8f9af58d6ca691e6267f154f58fa74641",
	"lossy": "aac8bf1f8cc2de4d3d5b765db38353afb1faa616d5471430ec41d68409bb975a",
}

// buildGoldenCorpus hand-assembles a deterministic spec set that does
// not depend on the scenario's arrival process (whose representation
// the virtual-time refactor is allowed to change).
func buildGoldenCorpus(t *testing.T) (*Scenario, []ConnSpec) {
	t.Helper()
	s, err := BuildScenario("simgolden", 10, 24, 42)
	if err != nil {
		t.Fatal(err)
	}
	countryByCode := map[string]*CountryConfig{}
	for i := range s.Countries {
		countryByCode[s.Countries[i].Code] = &s.Countries[i]
	}
	// A blocked domain per country so censor policies actually trigger.
	blockedDomain := func(c *CountryConfig) int {
		all := s.Universe.All()
		for i := range all {
			if IsBlocked(c, &all[i]) {
				return i
			}
		}
		t.Fatalf("no blocked domain for %s", c.Code)
		return -1
	}

	var specs []ConnSpec
	add := func(code string, style CensorStyle, behavior tcpsim.Behavior, v6, tls, synPayload bool) {
		c := countryByCode[code]
		if c == nil {
			t.Fatalf("country %s missing", code)
		}
		i := len(specs)
		all := s.Universe.All()
		dom := &all[blockedDomain(c)]
		spec := ConnSpec{
			Index:    i,
			Seed:     0xdead ^ uint64(i)*0x9e3779b97f4a7c15,
			Start:    netsim.Time(int64(i)*37+3) * netsim.Time(time.Second),
			Country:  c,
			AS:       s.Geo.ASes(code)[i%len(s.Geo.ASes(code))],
			V6:       v6,
			HostIdx:  -1,
			Domain:   dom,
			UseTLS:   tls,
			Behavior: behavior,
			Blocked:  true,
			Style:    style,
			Variant:  i % 5,
			TTLInit:  64,
		}
		if i%3 == 0 {
			spec.TTLInit = 128
		}
		if i%4 == 0 {
			spec.IPIDZero = true
		}
		if i%5 == 0 {
			spec.HostIdx = i % 120
		}
		spec.SYNPayload = synPayload && !tls
		spec.CensorActive = style != StyleNone
		if style == StyleEnterpriseRST || style == StyleEnterpriseRSTACK {
			spec.KeywordTrigger = true
		}
		specs = append(specs, spec)
	}

	styles := []CensorStyle{
		StyleNone, StyleGFW, StyleGFWIPBlock, StyleIranDPI, StyleHTTPReset,
		StyleTSPU, StyleAckGuessRandomTTL, StyleAckGuessFixedTTL,
		StylePostACKMultiRST, StyleEnterpriseRST, StyleEnterpriseRSTACK,
		StyleIPBlackhole, StyleIPResetRST, StyleIPResetRSTACK, StyleIPIDCopy,
		StyleDropRSTACK, StylePSHBlackhole, StylePSHSingleRST,
		StylePSHDoubleRST, StylePSHSingleRSTACK,
	}
	codes := []string{"CN", "IR", "RU", "US"}
	for si, style := range styles {
		code := codes[si%len(codes)]
		add(code, style, tcpsim.BehaviorNormal, si%2 == 1, si%3 != 0, si%4 == 2)
	}
	behaviors := []tcpsim.Behavior{
		tcpsim.BehaviorScanner, tcpsim.BehaviorHappyEyeballsReset,
		tcpsim.BehaviorHappyEyeballsDrop, tcpsim.BehaviorStallHandshake,
		tcpsim.BehaviorRedundantACK, tcpsim.BehaviorDoubleSYN,
		tcpsim.BehaviorAbandon, tcpsim.BehaviorResetClose,
	}
	for bi, b := range behaviors {
		add(codes[bi%len(codes)], StyleNone, b, bi%2 == 0, bi%3 == 0, false)
	}
	return s, specs
}

// gradeConfig resolves an impairment grade name ("clean" is the zero
// config).
func gradeConfig(t *testing.T, grade string) faults.Config {
	t.Helper()
	if grade == "clean" {
		return faults.Config{}
	}
	imp, err := faults.Grade(grade)
	if err != nil {
		t.Fatal(err)
	}
	return imp
}

// digestConns serializes positional capture records and hashes them.
func digestConns(t *testing.T, conns []*capture.Connection) string {
	t.Helper()
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for i, conn := range conns {
		if conn == nil {
			// Record absence positionally so a sampler change cannot
			// silently cancel out a simulation change.
			fmt.Fprintf(&buf, "nil:%d\n", i)
			continue
		}
		if err := w.Write(conn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// corpusDigest simulates the corpus under one impairment grade and
// hashes the resulting serialized captures.
func corpusDigest(t *testing.T, s *Scenario, specs []ConnSpec, grade string) string {
	t.Helper()
	imp := gradeConfig(t, grade)
	conns := make([]*capture.Connection, len(specs))
	for i := range specs {
		conns[i] = SimulateConn(&specs[i], s.Universe, s.CaptureConfig, imp)
	}
	return digestConns(t, conns)
}

func TestSimCorpusGolden(t *testing.T) {
	s, specs := buildGoldenCorpus(t)
	if len(specs) < 25 {
		t.Fatalf("corpus too small: %d specs", len(specs))
	}
	for grade, want := range simCorpusGolden {
		got := corpusDigest(t, s, specs, grade)
		if want == "" {
			t.Errorf("golden for %q unset; computed %s", grade, got)
			continue
		}
		if got != want {
			t.Errorf("grade %s: corpus digest %s, want %s (per-connection simulation no longer byte-identical)", grade, got, want)
		}
	}
}

// TestSimulatorReuseMatchesGolden holds the reusable Simulator to the
// golden digests: one Simulator per grade runs the corpus forward,
// reversed and shuffled, so any state a connection leaves behind in
// the engine, endpoints, path, censor, sampler, RNGs or packet buffers
// would change some later connection's record. Records from earlier
// connections are hashed only at the end, after the buffers they must
// not alias have been reused many times over.
func TestSimulatorReuseMatchesGolden(t *testing.T) {
	s, specs := buildGoldenCorpus(t)
	n := len(specs)
	forward := make([]int, n)
	reverse := make([]int, n)
	for i := range forward {
		forward[i], reverse[i] = i, n-1-i
	}
	shuffled := rand.New(rand.NewPCG(5, 11)).Perm(n)
	for grade, want := range simCorpusGolden {
		sim := NewSimulator(s.Universe, s.CaptureConfig, gradeConfig(t, grade))
		for _, order := range []struct {
			name string
			idx  []int
		}{{"forward", forward}, {"reverse", reverse}, {"shuffled", shuffled}} {
			conns := make([]*capture.Connection, n)
			for _, i := range order.idx {
				conns[i] = sim.Simulate(&specs[i])
			}
			if got := digestConns(t, conns); got != want {
				t.Errorf("grade %s, %s order on a reused Simulator: digest %s, want %s", grade, order.name, got, want)
			}
		}
	}
}

// simEvasionGolden is the digest of SimulateEvasive over the corpus's
// plain-browser specs, recorded while it still had its own setup path;
// the evasion experiment's numbers must not move.
const simEvasionGolden = "2d0106eca96aab7e4abb1374a29960c2e099d975bad87079aebb184bf43089cd"

func TestSimulateEvasiveGolden(t *testing.T) {
	s, specs := buildGoldenCorpus(t)
	var conns []*capture.Connection
	for i := range specs {
		if specs[i].Behavior == tcpsim.BehaviorNormal {
			conns = append(conns, SimulateEvasive(&specs[i], s.Universe))
		}
	}
	if got := digestConns(t, conns); got != simEvasionGolden {
		t.Errorf("evasive corpus digest %s, want %s", got, simEvasionGolden)
	}
}
