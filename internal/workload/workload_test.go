package workload

import (
	"testing"

	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
)

func smallScenario(t *testing.T, total, hours int) *Scenario {
	t.Helper()
	s, err := BuildScenario("test", total, hours, 11)
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}
	return s
}

func TestSpecsCountAndDistribution(t *testing.T) {
	s := smallScenario(t, 5000, 24)
	specs := s.Specs()
	if len(specs) < 4900 || len(specs) > 5100 {
		t.Fatalf("specs = %d, want ≈5000", len(specs))
	}
	byCountry := map[string]int{}
	for i := range specs {
		byCountry[specs[i].Country.Code]++
	}
	// US has the largest share; TM a tiny one.
	if byCountry["US"] <= byCountry["TM"] {
		t.Errorf("US=%d TM=%d; share ordering broken", byCountry["US"], byCountry["TM"])
	}
	if byCountry["CN"] == 0 || byCountry["IR"] == 0 {
		t.Error("major countries missing from specs")
	}
}

func TestSpecsDeterministic(t *testing.T) {
	a := smallScenario(t, 800, 12).Specs()
	b := smallScenario(t, 800, 12).Specs()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Country.Code != b[i].Country.Code ||
			a[i].Start != b[i].Start || a[i].Style != b[i].Style {
			t.Fatalf("spec %d differs between identical scenarios", i)
		}
	}
}

func TestIsBlockedConsistent(t *testing.T) {
	s := smallScenario(t, 10, 1)
	c := &s.Countries[0]
	d := s.Universe.All()[0]
	first := IsBlocked(c, &d)
	for i := 0; i < 10; i++ {
		if IsBlocked(c, &d) != first {
			t.Fatal("IsBlocked not consistent")
		}
	}
}

func TestBlockCoverageApproximatesConfig(t *testing.T) {
	s := smallScenario(t, 10, 1)
	var cn *CountryConfig
	for i := range s.Countries {
		if s.Countries[i].Code == "CN" {
			cn = &s.Countries[i]
		}
	}
	if cn == nil {
		t.Fatal("CN missing")
	}
	adult := s.Universe.Categories(domains.AdultThemes)
	blocked := 0
	for _, d := range adult {
		if IsBlocked(cn, d) {
			blocked++
		}
	}
	got := float64(blocked) / float64(len(adult))
	want := cn.BlockCoverage[domains.AdultThemes]
	if got < want-0.06 || got > want+0.06 {
		t.Errorf("CN adult coverage = %.3f, configured %.3f", got, want)
	}
}

func TestNightAndWeekendModulation(t *testing.T) {
	s := smallScenario(t, 10, 24*7)
	var ir *CountryConfig
	for i := range s.Countries {
		if s.Countries[i].Code == "IR" {
			ir = &s.Countries[i]
		}
	}
	// Local night (IR TZ=4): scenario hour 0 → local 4 (night) vs hour
	// 10 → local 14 (day).
	night := s.seekProbability(ir, 0)
	day := s.seekProbability(ir, 10)
	if night <= day {
		t.Errorf("night seek %.3f ≤ day %.3f", night, day)
	}
	// Weekend: StartWeekday=0 (Monday), hour 5*24+12 is Saturday noon.
	weekday := s.seekProbability(ir, 10)
	weekend := s.seekProbability(ir, 5*24+10)
	if weekend >= weekday {
		t.Errorf("weekend seek %.3f ≥ weekday %.3f", weekend, weekday)
	}
}

func TestSimulateConnTamperedAndClean(t *testing.T) {
	s := smallScenario(t, 4000, 6)
	specs := s.Specs()
	cl := core.NewClassifier(core.DefaultConfig())
	var censoredTampered, censoredTotal int
	var cleanTampered, cleanTotal int
	for i := range specs {
		if censoredTotal >= 80 && cleanTotal >= 80 {
			break
		}
		spec := &specs[i]
		if spec.Behavior != 0 { // only normal clients
			continue
		}
		if spec.CensorActive {
			if censoredTotal >= 80 {
				continue
			}
		} else if cleanTotal >= 80 {
			continue
		}
		conn := SimulateConn(spec, s.Universe, s.CaptureConfig, s.Impairments)
		if conn == nil {
			t.Fatal("sampler dropped a rate-1 connection")
		}
		r := cl.Classify(conn)
		if spec.CensorActive {
			censoredTotal++
			if r.Signature.IsTampering() {
				censoredTampered++
			}
		} else {
			cleanTotal++
			if r.Signature.IsTampering() {
				cleanTampered++
			}
		}
	}
	if censoredTotal < 30 {
		t.Fatalf("only %d censored specs found", censoredTotal)
	}
	if float64(censoredTampered) < 0.9*float64(censoredTotal) {
		t.Errorf("censored connections matched a signature %d/%d times", censoredTampered, censoredTotal)
	}
	if float64(cleanTampered) > 0.1*float64(cleanTotal) {
		t.Errorf("clean connections matched a signature %d/%d times", cleanTampered, cleanTotal)
	}
}

func TestRunParallelMatchesSpecCount(t *testing.T) {
	s := smallScenario(t, 600, 4)
	conns := s.Run(4)
	if len(conns) < 550 {
		t.Fatalf("Run returned %d connections for ≈600 specs", len(conns))
	}
}

func TestIran2022ScenarioShape(t *testing.T) {
	s, err := Iran2022Scenario(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Hours != 17*24 {
		t.Errorf("hours = %d", s.Hours)
	}
	specs := s.Specs()
	// Protest days must have a higher censored share than day 0.
	day0, day0Censored, late, lateCensored := 0, 0, 0, 0
	for i := range specs {
		day := specs[i].Day()
		switch {
		case day == 0:
			day0++
			if specs[i].CensorActive {
				day0Censored++
			}
		case day >= 10:
			late++
			if specs[i].CensorActive {
				lateCensored++
			}
		}
	}
	if day0 == 0 || late == 0 {
		t.Fatal("scenario hours not covered")
	}
	r0 := float64(day0Censored) / float64(day0)
	r1 := float64(lateCensored) / float64(late)
	if r1 <= r0 {
		t.Errorf("censored share day0=%.3f late=%.3f; protest escalation missing", r0, r1)
	}
}

func TestCountryTableSane(t *testing.T) {
	cs := DefaultCountries()
	if len(cs) < 40 {
		t.Fatalf("only %d countries", len(cs))
	}
	seen := map[string]bool{}
	total := 0.0
	for _, c := range cs {
		if seen[c.Code] {
			t.Errorf("duplicate country %s", c.Code)
		}
		seen[c.Code] = true
		total += c.Share
		if c.Share <= 0 || c.ASCount < 1 {
			t.Errorf("%s: bad share/ASCount", c.Code)
		}
		if c.BlockedSeekBase < 0 || c.BlockedSeekBase > 0.97 {
			t.Errorf("%s: seek base %f", c.Code, c.BlockedSeekBase)
		}
	}
	if total < 0.8 || total > 1.2 {
		t.Errorf("shares sum to %.3f, want ≈1", total)
	}
	for _, code := range []string{"TM", "CN", "IR", "RU", "KR", "US", "DE", "GB", "IN", "MX", "PE", "UA"} {
		if !seen[code] {
			t.Errorf("paper country %s missing", code)
		}
	}
}

// simulateAllocsBound caps the mean heap allocations per connection of
// a warmed Simulator on the default global mix. Measured 8.4 clean and
// 8.6 lossy (go1.24, linux/amd64): the returned record (Connection,
// the Packets slice as it grows, payload copies, Drain's result slice)
// plus, for censored connections, their policies and forged packets,
// and for impaired ones the corrupted and duplicated copies. The bound
// leaves ~40% headroom; the simulator before the arena made ~125.
const simulateAllocsBound = 12

func TestSimulateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, err := BuildScenario("allocs", 400, 24, 17)
	if err != nil {
		t.Fatal(err)
	}
	specs := s.Specs()
	for _, grade := range []string{"clean", "lossy"} {
		sim := NewSimulator(s.Universe, s.CaptureConfig, gradeConfig(t, grade))
		// AllocsPerRun's own warm-up pass sizes every reusable buffer.
		perConn := testing.AllocsPerRun(2, func() {
			for i := range specs {
				sim.Simulate(&specs[i])
			}
		}) / float64(len(specs))
		t.Logf("%s: %.1f allocs per connection", grade, perConn)
		if perConn > simulateAllocsBound {
			t.Errorf("%s: %.1f allocs per simulated connection, bound %d", grade, perConn, simulateAllocsBound)
		}
	}
}
