// Package faults implements composable benign packet impairments for
// the network simulator: Gilbert–Elliott burst loss, reordering,
// duplication, delay jitter, bit corruption, and MTU truncation. A
// Chain plugs into netsim.Path as a per-segment hook, so every packet
// crossing an impaired path — client traffic, server responses, even
// censor-injected forgeries — is subject to the same pathologies real
// links impose.
//
// The point (paper §3.2, §5.1) is adversarially-benign input: the
// tampering signatures must not fire on loss, retransmission,
// reordering, or duplication. Corrupted and truncated packets carry
// broken TCP/IP checksums, so receivers (endpoints and the capture
// tap) discard them exactly as a real NIC/kernel would — corruption
// degenerates to loss on the wire, never to garbage in a record.
//
// Loss is modelled as a continuous-time two-state Markov chain
// (Gilbert–Elliott): the link dwells in a Good state (rare residual
// loss) and occasionally falls into a Bad burst state (heavy loss),
// with exponential dwell times MeanGood and MeanBad. Burst loss is
// what distinguishes real congestion from i.i.d. drops: consecutive
// packets of one flight die together, while retransmissions spaced
// RTO apart decorrelate — exactly the regime a robust detector must
// tell apart from intentional blackholing.
package faults

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"tamperdetect/internal/netsim"
)

// Config describes one impairment profile. The zero value is a clean
// link (no impairment); fields compose freely.
type Config struct {
	// Grade names the profile ("clean", "lossy", "hostile", or a
	// custom label); informational, and mixed into per-connection
	// impairment seeds so different grades draw different randomness.
	Grade string

	// Gilbert–Elliott burst loss: mean dwell times of the Good and Bad
	// states and the per-packet loss probability within each. With
	// MeanGood/MeanBad unset, LossGood acts as plain i.i.d. loss.
	MeanGood time.Duration
	MeanBad  time.Duration
	LossGood float64
	LossBad  float64

	// DupProb duplicates a packet; the copy trails by DupDelay
	// (default 500µs), the switch-flap pattern.
	DupProb  float64
	DupDelay time.Duration
	// ReorderProb holds a packet back by an extra delay drawn from
	// (ReorderDelay/4, ReorderDelay], letting later packets overtake it.
	ReorderProb  float64
	ReorderDelay time.Duration
	// JitterMax adds uniform [0, JitterMax) delay to every packet.
	JitterMax time.Duration
	// CorruptProb flips one random bit; the receiver's checksum
	// verification then discards the packet.
	CorruptProb float64
	// TruncateProb cuts packets longer than TruncateMTU down to
	// TruncateMTU bytes (a path-MTU black hole without ICMP); the
	// mangled packet fails checksum verification downstream.
	TruncateProb float64
	TruncateMTU  int

	// Stats, when non-nil, receives atomic event counts from every
	// Chain built from this Config. One Stats is typically shared by
	// all of a simulation's chains (Config is copied by value per
	// connection; the pointer rides along), so totals aggregate across
	// the whole run and can be read live.
	Stats *Stats `json:"-"`
}

// Enabled reports whether the profile impairs anything.
func (c *Config) Enabled() bool {
	return c.LossGood > 0 || c.LossBad > 0 || c.DupProb > 0 ||
		c.ReorderProb > 0 || c.JitterMax > 0 || c.CorruptProb > 0 ||
		c.TruncateProb > 0
}

// EffectiveLoss returns the steady-state per-traversal loss
// probability implied by the Gilbert–Elliott parameters (excluding
// corruption/truncation, which also behave as loss).
func (c *Config) EffectiveLoss() float64 {
	if c.MeanGood <= 0 || c.MeanBad <= 0 {
		return c.LossGood
	}
	piBad := c.MeanBad.Seconds() / (c.MeanGood.Seconds() + c.MeanBad.Seconds())
	return piBad*c.LossBad + (1-piBad)*c.LossGood
}

// grades is the named-profile table. "lossy" is a plausible
// congested-but-working consumer path (~1.5% steady-state loss in
// short bursts); "hostile" is a badly degraded link (~9% loss, heavy
// reordering) near the edge of what a TCP session survives.
var grades = map[string]Config{
	"clean": {Grade: "clean"},
	"lossy": {
		Grade:    "lossy",
		MeanGood: 2 * time.Second, MeanBad: 80 * time.Millisecond,
		LossGood: 0.002, LossBad: 0.35,
		DupProb:     0.005,
		ReorderProb: 0.01, ReorderDelay: 25 * time.Millisecond,
		JitterMax:    4 * time.Millisecond,
		CorruptProb:  0.003,
		TruncateProb: 0.001, TruncateMTU: 1000,
	},
	"hostile": {
		Grade:    "hostile",
		MeanGood: 600 * time.Millisecond, MeanBad: 150 * time.Millisecond,
		LossGood: 0.01, LossBad: 0.45,
		DupProb:     0.02,
		ReorderProb: 0.05, ReorderDelay: 60 * time.Millisecond,
		JitterMax:    12 * time.Millisecond,
		CorruptProb:  0.01,
		TruncateProb: 0.005, TruncateMTU: 1000,
	},
}

// Grade resolves a named impairment profile.
func Grade(name string) (Config, error) {
	c, ok := grades[name]
	if !ok {
		return Config{}, fmt.Errorf("faults: unknown impairment grade %q (known: %v)", name, GradeNames())
	}
	return c, nil
}

// GradeNames lists the named profiles, sorted.
func GradeNames() []string {
	out := make([]string, 0, len(grades))
	for n := range grades {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// geState is one direction's Gilbert–Elliott channel state.
type geState struct {
	bad  bool
	last netsim.Time
	init bool
}

// Chain is one path's impairment instance. It keeps independent
// Gilbert–Elliott state per direction (forward and reverse paths
// congest independently) and draws all randomness from its own rng,
// so a simulation stays deterministic per seed. Not safe for
// concurrent use; a Chain belongs to exactly one netsim.Sim.
type Chain struct {
	cfg Config
	rng *rand.Rand
	ge  [2]geState
	out [2]netsim.Delivery // Hook's reusable result
}

// NewChain builds a Chain for one path.
func NewChain(cfg Config, rng *rand.Rand) *Chain {
	return &Chain{cfg: cfg, rng: rng}
}

// Reset readies the chain for a new path: both directions return to
// the initial channel state. The caller reseeds rng if the new path
// needs a fresh stream.
func (ch *Chain) Reset() {
	ch.ge = [2]geState{}
}

// Hook is the netsim.SegmentHook; install it as PathConfig.Hook. The
// returned slice is the chain's own and is reused by the next call.
func (ch *Chain) Hook(now netsim.Time, dir netsim.Direction, data []byte) []netsim.Delivery {
	cfg := &ch.cfg
	if ch.rng.Float64() < ch.lossProb(dir, now) {
		if cfg.Stats != nil {
			cfg.Stats.Lost.Add(1)
		}
		return nil
	}
	d := netsim.Delivery{Data: data}
	if cfg.JitterMax > 0 {
		d.ExtraDelay = time.Duration(ch.rng.Int64N(int64(cfg.JitterMax)))
	}
	if cfg.ReorderProb > 0 && ch.rng.Float64() < cfg.ReorderProb {
		rd := cfg.ReorderDelay
		if rd <= 0 {
			rd = 20 * time.Millisecond
		}
		// Hold back long enough that closely-following packets overtake.
		d.ExtraDelay += rd/4 + time.Duration(ch.rng.Int64N(int64(3*rd/4)))
		if cfg.Stats != nil {
			cfg.Stats.Reordered.Add(1)
		}
	}
	if cfg.CorruptProb > 0 && ch.rng.Float64() < cfg.CorruptProb && len(d.Data) > 0 {
		c := append([]byte(nil), d.Data...)
		c[ch.rng.IntN(len(c))] ^= 1 << ch.rng.IntN(8)
		d.Data = c
		if cfg.Stats != nil {
			cfg.Stats.Corrupted.Add(1)
		}
	}
	if cfg.TruncateProb > 0 && cfg.TruncateMTU > 0 && len(d.Data) > cfg.TruncateMTU &&
		ch.rng.Float64() < cfg.TruncateProb {
		d.Data = append([]byte(nil), d.Data[:cfg.TruncateMTU]...)
		if cfg.Stats != nil {
			cfg.Stats.Truncated.Add(1)
		}
	}
	if cfg.Stats != nil {
		cfg.Stats.Delivered.Add(1)
	}
	ch.out[0] = d
	out := ch.out[:1]
	if cfg.DupProb > 0 && ch.rng.Float64() < cfg.DupProb {
		dd := cfg.DupDelay
		if dd <= 0 {
			dd = 500 * time.Microsecond
		}
		// The duplicate gets its own backing array: the path mutates
		// TTLs in place and both copies travel independently.
		out = append(out, netsim.Delivery{
			Data:       append([]byte(nil), d.Data...),
			ExtraDelay: d.ExtraDelay + dd,
		})
		if cfg.Stats != nil {
			cfg.Stats.Duplicated.Add(1)
		}
	}
	return out
}

// lossProb evolves the direction's Gilbert–Elliott state to now and
// returns the current per-packet loss probability. The continuous-time
// chain has transition rates 1/MeanGood (good→bad) and 1/MeanBad
// (bad→good); over an elapsed dt the probability of being Bad relaxes
// toward the stationary πBad with rate constant (1/MeanGood +
// 1/MeanBad), so bursts persist across back-to-back packets but wash
// out across RTO-spaced retransmissions.
func (ch *Chain) lossProb(dir netsim.Direction, now netsim.Time) float64 {
	cfg := &ch.cfg
	if cfg.LossGood <= 0 && cfg.LossBad <= 0 {
		return 0
	}
	if cfg.MeanGood <= 0 || cfg.MeanBad <= 0 {
		return cfg.LossGood
	}
	st := &ch.ge[dir]
	lgb := 1 / cfg.MeanGood.Seconds() // good→bad rate
	lbg := 1 / cfg.MeanBad.Seconds()  // bad→good rate
	piBad := lgb / (lgb + lbg)
	var pBad float64
	if !st.init {
		// First packet: draw from the stationary distribution.
		st.init = true
		pBad = piBad
	} else {
		dt := time.Duration(now - st.last).Seconds()
		if dt < 0 {
			dt = 0
		}
		decay := math.Exp(-(lgb + lbg) * dt)
		if st.bad {
			pBad = piBad + (1-piBad)*decay
		} else {
			pBad = piBad * (1 - decay)
		}
	}
	st.bad = ch.rng.Float64() < pBad
	st.last = now
	if st.bad {
		return cfg.LossBad
	}
	return cfg.LossGood
}
