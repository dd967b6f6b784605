package analysis

// Property tests for the Merge algebra: every aggregator's Merge must
// be associative and commutative with the empty aggregator as
// identity, because multi-PoP rollup gives no control over how many
// shards exist or the order they arrive. Equality is judged on
// Finalize() — the only state a caller can see.

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"

	"tamperdetect/internal/core"
)

// mergeCase is one aggregator type under algebra test.
type mergeCase struct {
	name  string
	fresh func() Aggregator
}

func mergeCases() []mergeCase {
	return []mergeCase{
		{"stage-stats", func() Aggregator { return NewStageStatsAgg() }},
		{"signature-by-country", func() Aggregator { return NewSignatureByCountryAgg() }},
		{"country-by-signature", func() Aggregator { return NewCountryBySignatureAgg() }},
		{"asn-view", func() Aggregator { return NewASNViewAgg() }},
		{"time-series", func() Aggregator { return NewTimeSeriesAgg(4, nil, AnySignatureMatch) }},
		{"ip-version", func() Aggregator { return NewIPVersionAgg(5) }},
		{"protocol", func() Aggregator { return NewProtocolAgg(5) }},
		{"evidence", func() Aggregator { return NewEvidenceAgg(64) }},
		{"scanner", func() Aggregator { return NewScannerAgg() }},
		{"domains", func() Aggregator { return NewDomainAgg() }},
		{"overlap", func() Aggregator { return NewOverlapAgg() }},
		{"stability", func() Aggregator { return NewStabilityAgg(10) }},
		{"robustness", func() Aggregator { return NewRobustnessAgg("clean", 0.01) }},
		{"time-span", func() Aggregator { return NewTimeSpanAgg() }},
		{"multi", func() Aggregator {
			return Multi{NewStageStatsAgg(), NewOverlapAgg(), NewEvidenceAgg(16)}
		}},
	}
}

// fill adds every record to a fresh aggregator.
func fill(fresh func() Aggregator, recs []Record) Aggregator {
	a := fresh()
	for i := range recs {
		a.Add(&recs[i])
	}
	return a
}

func mustMerge(t testing.TB, dst, src Aggregator) Aggregator {
	t.Helper()
	if err := dst.Merge(src); err != nil {
		t.Fatalf("merge: %v", err)
	}
	return dst
}

// TestMergeAlgebra checks, for every aggregator over a real record
// population split three ways:
//
//	associativity:  (A ⊕ B) ⊕ C == A ⊕ (B ⊕ C)
//	commutativity:  B ⊕ A      == A ⊕ B ⊕ … (same multiset)
//	identity:       A ⊕ empty  == A
func TestMergeAlgebra(t *testing.T) {
	_, all, _ := dataset(t)
	recs := all[:3000]
	cutB, cutC := len(recs)/3, 2*len(recs)/3
	a, b, c := recs[:cutB], recs[cutB:cutC], recs[cutC:]

	for _, tc := range mergeCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			whole := fill(tc.fresh, recs).Finalize()

			// (A ⊕ B) ⊕ C
			left := mustMerge(t, mustMerge(t, fill(tc.fresh, a), fill(tc.fresh, b)), fill(tc.fresh, c))
			if got := left.Finalize(); !reflect.DeepEqual(got, whole) {
				t.Errorf("(A+B)+C != whole")
			}
			// A ⊕ (B ⊕ C)
			right := mustMerge(t, fill(tc.fresh, a), mustMerge(t, fill(tc.fresh, b), fill(tc.fresh, c)))
			if got := right.Finalize(); !reflect.DeepEqual(got, whole) {
				t.Errorf("A+(B+C) != whole")
			}
			// C ⊕ B ⊕ A
			rev := mustMerge(t, mustMerge(t, fill(tc.fresh, c), fill(tc.fresh, b)), fill(tc.fresh, a))
			if got := rev.Finalize(); !reflect.DeepEqual(got, whole) {
				t.Errorf("C+B+A != whole")
			}
			// A ⊕ empty, empty ⊕ A
			if got := mustMerge(t, fill(tc.fresh, a), tc.fresh()).Finalize(); !reflect.DeepEqual(got, fill(tc.fresh, a).Finalize()) {
				t.Errorf("A+empty != A")
			}
			if got := mustMerge(t, tc.fresh(), fill(tc.fresh, a)).Finalize(); !reflect.DeepEqual(got, fill(tc.fresh, a).Finalize()) {
				t.Errorf("empty+A != A")
			}
		})
	}
}

// TestMergeRejectsMismatches checks Merge fails loudly instead of
// silently corrupting state.
func TestMergeRejectsMismatches(t *testing.T) {
	if err := NewStageStatsAgg().Merge(NewOverlapAgg()); err == nil {
		t.Error("cross-type merge accepted")
	}
	if err := NewRobustnessAgg("clean", 0).Merge(NewRobustnessAgg("lossy", 0.1)); err == nil {
		t.Error("cross-grade robustness merge accepted")
	}
	if err := NewTimeSeriesAgg(4, nil, AnySignatureMatch).Merge(NewTimeSeriesAgg(6, nil, AnySignatureMatch)); err == nil {
		t.Error("cross-bucket-width series merge accepted")
	}
	if err := (Multi{NewStageStatsAgg()}).Merge(Multi{NewOverlapAgg()}); err == nil {
		t.Error("element-mismatched Multi merge accepted")
	}
	if err := (Multi{NewStageStatsAgg()}).Merge(Multi{NewStageStatsAgg(), NewOverlapAgg()}); err == nil {
		t.Error("length-mismatched Multi merge accepted")
	}
}

// TestOverlapMatrixOrderIndependence is the regression test for the
// order-dependence bug the aggregator refactor fixed: the overlap
// matrix used to depend on record order (transitions were counted in
// input order); it must now be a pure function of the multiset.
func TestOverlapMatrixOrderIndependence(t *testing.T) {
	_, recs, _ := dataset(t)
	want := ComputeOverlapMatrix(recs)
	rng := rand.New(rand.NewPCG(11, 17))
	shuffled := append([]Record(nil), recs...)
	for pass := 0; pass < 3; pass++ {
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := ComputeOverlapMatrix(shuffled)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: overlap matrix changed under input shuffle", pass)
		}
	}
}

// fuzzRecord deterministically synthesizes one record from three fuzz
// bytes, spreading values across every aggregation key.
func fuzzRecord(b1, b2, b3 byte) Record {
	countries := []string{"", "CN", "IR", "RU", "US", "DE"}
	ports := []uint16{80, 443, 8080}
	sig := core.Signature(int(b1) % int(core.NumSignatures))
	r := Record{
		Res: core.Result{
			Signature:        sig,
			Stage:            sig.Stage(),
			PossiblyTampered: b1&1 == 0,
			Domain:           fmt.Sprintf("d%d.example", b3%8),
			Protocol:         core.Protocol(int(b2) % 3),
		},
		Country:   countries[int(b2)%len(countries)],
		ASN:       uint32(b3 % 7),
		IPVersion: 4 + 2*int(b2&1),
		Hour:      int(b3 % 48),
		Time:      int64(b3%48)*3600 + int64(b2),
		SrcIP:     netip.AddrFrom4([4]byte{10, 0, b2 % 4, b3 % 4}),
		SrcPort:   uint16(b1)<<8 | uint16(b2),
		DstPort:   ports[int(b1)%len(ports)],
	}
	r.Res.Evidence.IPIDValid = r.IPVersion == 4
	r.Res.Evidence.MaxIPIDDelta = int(b1) * int(b2)
	r.Res.Evidence.MaxTTLDelta = int(b3)
	r.Res.Evidence.HighTTL = b3&2 == 0
	r.Res.Evidence.NoSYNOptions = b3&4 == 0
	r.Res.Evidence.ZMapFingerprint = b3&8 == 0
	r.Res.Evidence.SYNPayloadLen = int(b2 & 3)
	return r
}

// FuzzMergeAssociativity fuzzes the Merge algebra: arbitrary record
// populations split at arbitrary points must finalize identically no
// matter how the shards associate.
func FuzzMergeAssociativity(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0xff, 0x10, 0x33, 0x77, 0x02, 0x40, 0xaa})
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := make([]Record, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			recs = append(recs, fuzzRecord(data[i], data[i+1], data[i+2]))
		}
		// Split points derived from the data itself.
		cutB, cutC := 0, 0
		if len(recs) > 0 {
			cutB = int(data[0]) % (len(recs) + 1)
			cutC = cutB + int(data[len(data)-1])%(len(recs)-cutB+1)
		}
		a, b, c := recs[:cutB], recs[cutB:cutC], recs[cutC:]
		for _, tc := range mergeCases() {
			whole := fill(tc.fresh, recs).Finalize()
			left := mustMerge(t, mustMerge(t, fill(tc.fresh, a), fill(tc.fresh, b)), fill(tc.fresh, c))
			if got := left.Finalize(); !reflect.DeepEqual(got, whole) {
				t.Fatalf("%s: (A+B)+C != whole", tc.name)
			}
			right := mustMerge(t, fill(tc.fresh, a), mustMerge(t, fill(tc.fresh, b), fill(tc.fresh, c)))
			if got := right.Finalize(); !reflect.DeepEqual(got, whole) {
				t.Fatalf("%s: A+(B+C) != whole", tc.name)
			}
		}
	})
}
