package analysis

import (
	"fmt"
	"net/netip"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/pipeline"
)

// tallyAgg has the shape of tamperscan's report: fixed per-signature
// and per-stage counters plus evidence maps keyed by signature.
type tallyAgg struct {
	total       int
	counts      [core.NumSignatures]int
	stages      [core.NumStages]int
	evidenceAll map[core.Signature]int
	evidenceBig map[core.Signature]int
}

func newTallyAgg() Aggregator {
	return &tallyAgg{evidenceAll: map[core.Signature]int{}, evidenceBig: map[core.Signature]int{}}
}

func (a *tallyAgg) Add(r *Record) {
	a.total++
	a.counts[r.Res.Signature]++
	a.stages[r.Res.Stage]++
	if r.Res.Signature.IsTampering() && r.Res.Evidence.IPIDValid {
		a.evidenceAll[r.Res.Signature]++
		if r.Res.Evidence.MaxIPIDDelta > 100 {
			a.evidenceBig[r.Res.Signature]++
		}
	}
}

func (a *tallyAgg) Merge(other Aggregator) error {
	o, ok := other.(*tallyAgg)
	if !ok {
		return mismatch(a, other)
	}
	a.total += o.total
	for s := range a.counts {
		a.counts[s] += o.counts[s]
	}
	for st := range a.stages {
		a.stages[st] += o.stages[st]
	}
	for s, n := range o.evidenceAll {
		a.evidenceAll[s] += n
	}
	for s, n := range o.evidenceBig {
		a.evidenceBig[s] += n
	}
	return nil
}

func (a *tallyAgg) Finalize() any { return a }

// TestShardedObserveAllocFree pins the observe layer of a scan at zero
// allocations per record: Observe builds each record into its
// worker's own Record, and the source address stays a netip.Addr.
func TestShardedObserveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const workers = 2
	items := make([]pipeline.Item, 64)
	for i := range items {
		src := netip.AddrFrom4([4]byte{20, 0, byte(i >> 8), byte(i)})
		if i%3 == 0 {
			src = netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", i+1))
		}
		sig := core.Signature(i % int(core.NumSignatures))
		items[i] = pipeline.Item{
			Index: i,
			Conn: &capture.Connection{
				SrcIP: src, SrcPort: uint16(40000 + i), DstPort: 443, IPVersion: 4,
				Packets: []capture.PacketRecord{{Timestamp: int64(i)}},
			},
			Res: core.Result{
				Signature: sig, Stage: sig.Stage(), PossiblyTampered: sig != core.SigNotTampering,
				Domain:   "example.com",
				Evidence: core.Evidence{IPIDValid: true, MaxIPIDDelta: 50 * (i % 4)},
			},
		}
	}
	s := NewSharded(nil, workers, func() Aggregator { return Multi{NewStageStatsAgg(), newTallyAgg()} })
	perRec := testing.AllocsPerRun(20, func() {
		for i := range items {
			s.Observe(i%workers, items[i])
		}
	}) / float64(len(items))
	if perRec != 0 {
		t.Errorf("Sharded.Observe: %.2f allocs per record, want 0", perRec)
	}
}
