package analysis

// Incremental, mergeable aggregation. Every paper table is computed by
// an Aggregator: records stream in one at a time (Add), independently
// built aggregators combine (Merge — the multi-PoP rollup: each
// simulated PoP aggregates its own traffic and the merged result is
// the global report), and a finalize step renders the table.
//
// The load-bearing invariant, which the parity suite and the merge
// fuzz target enforce, is that every finalized table is a pure
// function of the record *multiset*: insertion order, shard
// partitioning, and merge order must not change a single output byte.
// That is what lets the streaming pipeline shard records across
// workers nondeterministically (pipeline.Config.Observe), lets N PoP
// shards merge in any order, and keeps the legacy batch functions —
// now thin Add-in-a-loop wrappers — byte-identical to both. Merge is
// associative, commutative, and identity-respecting (a fresh
// aggregator is the identity element).
//
// This file holds the interface and the per-connection aggregators;
// the per-domain, overlap, stability, and robustness aggregators live
// in aggregate_domains.go, and the per-worker pipeline adapter in
// sharded.go.

import (
	"fmt"
	"sort"

	"tamperdetect/internal/core"
	"tamperdetect/internal/stats"
)

// Aggregator is one incrementally computed paper table.
type Aggregator interface {
	// Add folds one classified record into the aggregate. The record
	// is only borrowed for the call.
	Add(r *Record)
	// Merge folds another aggregator of the same concrete type (and
	// same construction parameters) into this one, as if every record
	// added to other had been added here. Merging a mismatched type
	// returns an error and changes nothing.
	Merge(other Aggregator) error
	// Finalize computes the aggregator's table — exactly the value the
	// package-level batch function returns. It does not consume the
	// aggregator: more Adds and Merges may follow, and Finalize may be
	// called again.
	Finalize() any
}

// mismatch is the shared Merge type-check failure.
func mismatch(dst, src Aggregator) error {
	return fmt.Errorf("analysis: cannot merge %T into %T", src, dst)
}

// Multi composes aggregators so one streaming pass fills all of them.
// Merge is element-wise and requires equal length and matching
// element types.
type Multi []Aggregator

func (m Multi) Add(r *Record) {
	for _, a := range m {
		a.Add(r)
	}
}

func (m Multi) Merge(other Aggregator) error {
	o, ok := other.(Multi)
	if !ok {
		return mismatch(m, other)
	}
	if len(o) != len(m) {
		return fmt.Errorf("analysis: cannot merge Multi of %d into Multi of %d", len(o), len(m))
	}
	// Pre-check element types so a type mismatch cannot leave the
	// Multi half-merged (parameter mismatches, e.g. differing bucket
	// widths, still surface from the element Merge itself).
	for i := range m {
		if err := checkMergeable(m[i], o[i]); err != nil {
			return err
		}
	}
	for i := range m {
		if err := m[i].Merge(o[i]); err != nil {
			return err
		}
	}
	return nil
}

func (m Multi) Finalize() any {
	out := make([]any, len(m))
	for i, a := range m {
		out[i] = a.Finalize()
	}
	return out
}

// checkMergeable rejects a type-mismatched element pair without
// merging.
func checkMergeable(dst, src Aggregator) error {
	if fmt.Sprintf("%T", dst) != fmt.Sprintf("%T", src) {
		return mismatch(dst, src)
	}
	return nil
}

// ---------------------------------------------------------------------
// §4.1 stage stats (Table 1 narrative)

// StageStatsAgg incrementally computes ComputeStageStats.
type StageStatsAgg struct {
	s StageStats
}

// NewStageStatsAgg returns an empty §4.1 aggregator.
func NewStageStatsAgg() *StageStatsAgg { return &StageStatsAgg{} }

func (a *StageStatsAgg) Add(rec *Record) {
	a.s.Total++
	r := &rec.Res
	if !r.PossiblyTampered {
		return
	}
	a.s.PossiblyTampered++
	st := r.Signature.Stage()
	if r.Signature == core.SigOtherAnomalous {
		// Attribute to the prefix stage when known (Post-Data
		// timeouts), else Other.
		st = r.Stage
		if st == core.StageNone {
			st = core.StageOther
		}
	}
	a.s.StageCounts[st]++
	if r.Signature.IsTampering() {
		a.s.StageMatched[st]++
		a.s.Matched++
	}
}

func (a *StageStatsAgg) Merge(other Aggregator) error {
	o, ok := other.(*StageStatsAgg)
	if !ok {
		return mismatch(a, other)
	}
	a.s.Total += o.s.Total
	a.s.PossiblyTampered += o.s.PossiblyTampered
	a.s.Matched += o.s.Matched
	for st := range a.s.StageCounts {
		a.s.StageCounts[st] += o.s.StageCounts[st]
		a.s.StageMatched[st] += o.s.StageMatched[st]
	}
	return nil
}

// Stats finalizes the §4.1 breakdown.
func (a *StageStatsAgg) Stats() StageStats { return a.s }

func (a *StageStatsAgg) Finalize() any { return a.Stats() }

// ---------------------------------------------------------------------
// Figure 4: per-country signature distribution

// SignatureByCountryAgg incrementally computes SignatureByCountry.
type SignatureByCountryAgg struct {
	byCountry map[string]*CountryDistribution
}

// NewSignatureByCountryAgg returns an empty Figure 4 aggregator.
func NewSignatureByCountryAgg() *SignatureByCountryAgg {
	return &SignatureByCountryAgg{byCountry: map[string]*CountryDistribution{}}
}

func (a *SignatureByCountryAgg) Add(r *Record) {
	if r.Country == "" {
		return
	}
	d := a.byCountry[r.Country]
	if d == nil {
		d = &CountryDistribution{Country: r.Country}
		a.byCountry[r.Country] = d
	}
	d.Total++
	d.BySignature[r.Res.Signature]++
}

func (a *SignatureByCountryAgg) Merge(other Aggregator) error {
	o, ok := other.(*SignatureByCountryAgg)
	if !ok {
		return mismatch(a, other)
	}
	for c, od := range o.byCountry {
		d := a.byCountry[c]
		if d == nil {
			cp := *od
			a.byCountry[c] = &cp
			continue
		}
		d.Total += od.Total
		for sig := range d.BySignature {
			d.BySignature[sig] += od.BySignature[sig]
		}
	}
	return nil
}

// Table finalizes Figure 4, sorted by descending tampered share.
func (a *SignatureByCountryAgg) Table() []CountryDistribution {
	out := make([]CountryDistribution, 0, len(a.byCountry))
	for _, d := range a.byCountry {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].TamperedShare(), out[j].TamperedShare()
		if ti != tj {
			return ti > tj
		}
		return out[i].Country < out[j].Country
	})
	return out
}

func (a *SignatureByCountryAgg) Finalize() any { return a.Table() }

// ---------------------------------------------------------------------
// Figure 1: per-signature country composition

// CountryBySignatureAgg incrementally computes CountryBySignature.
type CountryBySignatureAgg struct {
	total     [core.NumSignatures]int
	byCountry [core.NumSignatures]map[string]int
}

// NewCountryBySignatureAgg returns an empty Figure 1 aggregator.
func NewCountryBySignatureAgg() *CountryBySignatureAgg {
	a := &CountryBySignatureAgg{}
	for _, sig := range core.AllSignatures() {
		a.byCountry[sig] = map[string]int{}
	}
	return a
}

func (a *CountryBySignatureAgg) Add(r *Record) {
	sig := r.Res.Signature
	if !sig.IsTampering() || r.Country == "" {
		return
	}
	a.total[sig]++
	a.byCountry[sig][r.Country]++
}

func (a *CountryBySignatureAgg) Merge(other Aggregator) error {
	o, ok := other.(*CountryBySignatureAgg)
	if !ok {
		return mismatch(a, other)
	}
	for _, sig := range core.AllSignatures() {
		a.total[sig] += o.total[sig]
		for c, n := range o.byCountry[sig] {
			a.byCountry[sig][c] += n
		}
	}
	return nil
}

// Table finalizes Figure 1 for all 19 signatures.
func (a *CountryBySignatureAgg) Table() []SignatureComposition {
	out := make([]SignatureComposition, 0, len(core.AllSignatures()))
	for _, sig := range core.AllSignatures() {
		sc := SignatureComposition{
			Signature: sig,
			Total:     a.total[sig],
			ByCountry: make(map[string]int, len(a.byCountry[sig])),
		}
		for c, n := range a.byCountry[sig] {
			sc.ByCountry[c] = n
		}
		out = append(out, sc)
	}
	return out
}

func (a *CountryBySignatureAgg) Finalize() any { return a.Table() }

// ---------------------------------------------------------------------
// Figure 5: per-AS view

// ASNViewAgg incrementally computes ASNView for every country at once.
type ASNViewAgg struct {
	total map[string]int
	byASN map[string]map[uint32]*asnAcc
}

type asnAcc struct{ total, matched int }

// NewASNViewAgg returns an empty Figure 5 aggregator.
func NewASNViewAgg() *ASNViewAgg {
	return &ASNViewAgg{total: map[string]int{}, byASN: map[string]map[uint32]*asnAcc{}}
}

func (a *ASNViewAgg) Add(r *Record) {
	if r.Country == "" {
		return
	}
	a.total[r.Country]++
	m := a.byASN[r.Country]
	if m == nil {
		m = map[uint32]*asnAcc{}
		a.byASN[r.Country] = m
	}
	acc := m[r.ASN]
	if acc == nil {
		acc = &asnAcc{}
		m[r.ASN] = acc
	}
	acc.total++
	if r.Res.Signature.IsTampering() {
		acc.matched++
	}
}

func (a *ASNViewAgg) Merge(other Aggregator) error {
	o, ok := other.(*ASNViewAgg)
	if !ok {
		return mismatch(a, other)
	}
	for c, n := range o.total {
		a.total[c] += n
	}
	for c, om := range o.byASN {
		m := a.byASN[c]
		if m == nil {
			m = map[uint32]*asnAcc{}
			a.byASN[c] = m
		}
		for asn, oacc := range om {
			acc := m[asn]
			if acc == nil {
				acc = &asnAcc{}
				m[asn] = acc
			}
			acc.total += oacc.total
			acc.matched += oacc.matched
		}
	}
	return nil
}

// View finalizes Figure 5 for one country: per-AS match proportions
// among the top ASes carrying 80% of the country's connections,
// ordered by traffic share (ties broken by ASN so the cut is a pure
// function of the counts).
func (a *ASNViewAgg) View(country string) []ASNStat {
	total := a.total[country]
	if total == 0 {
		return nil
	}
	m := a.byASN[country]
	all := make([]ASNStat, 0, len(m))
	for asn, acc := range m {
		all = append(all, ASNStat{
			ASN:          asn,
			Total:        acc.total,
			Matched:      acc.matched,
			CountryShare: stats.Ratio(acc.total, total),
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Total != all[j].Total {
			return all[i].Total > all[j].Total
		}
		return all[i].ASN < all[j].ASN
	})
	// Keep the top ASes covering 80% of traffic.
	covered := 0.0
	cut := len(all)
	for i := range all {
		covered += all[i].CountryShare
		if covered >= 0.8 {
			cut = i + 1
			break
		}
	}
	return all[:cut]
}

// Countries lists the countries with any records, sorted.
func (a *ASNViewAgg) Countries() []string {
	out := make([]string, 0, len(a.total))
	for c := range a.total {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Finalize returns every country's view, keyed by country code.
func (a *ASNViewAgg) Finalize() any {
	out := make(map[string][]ASNStat, len(a.total))
	for c := range a.total {
		out[c] = a.View(c)
	}
	return out
}

// ---------------------------------------------------------------------
// Figures 6, 8, 9: longitudinal series

// TimeSeriesAgg incrementally computes TimeSeries for one
// (bucketHours, include, matched) parameterisation, fixed at
// construction. Merging aggregators built with different predicates
// is not detectable (functions are not comparable) and is the
// caller's responsibility; mismatched bucket widths are rejected.
type TimeSeriesAgg struct {
	bucketHours int
	include     func(*Record) bool
	matched     func(*Record) bool
	byBucket    map[int]*SeriesPoint
}

// NewTimeSeriesAgg returns an empty longitudinal-series aggregator; a
// nil include admits every record.
func NewTimeSeriesAgg(bucketHours int, include func(*Record) bool, matched func(*Record) bool) *TimeSeriesAgg {
	if bucketHours <= 0 {
		bucketHours = 1
	}
	return &TimeSeriesAgg{
		bucketHours: bucketHours,
		include:     include,
		matched:     matched,
		byBucket:    map[int]*SeriesPoint{},
	}
}

func (a *TimeSeriesAgg) Add(r *Record) {
	if a.include != nil && !a.include(r) {
		return
	}
	b := r.Hour / a.bucketHours * a.bucketHours
	p := a.byBucket[b]
	if p == nil {
		p = &SeriesPoint{Hour: b}
		a.byBucket[b] = p
	}
	p.Total++
	if a.matched(r) {
		p.Matched++
	}
}

func (a *TimeSeriesAgg) Merge(other Aggregator) error {
	o, ok := other.(*TimeSeriesAgg)
	if !ok {
		return mismatch(a, other)
	}
	if o.bucketHours != a.bucketHours {
		return fmt.Errorf("analysis: cannot merge %dh-bucket series into %dh-bucket series",
			o.bucketHours, a.bucketHours)
	}
	for b, op := range o.byBucket {
		p := a.byBucket[b]
		if p == nil {
			cp := *op
			a.byBucket[b] = &cp
			continue
		}
		p.Total += op.Total
		p.Matched += op.Matched
	}
	return nil
}

// Series finalizes the bucketed series in hour order.
func (a *TimeSeriesAgg) Series() []SeriesPoint {
	out := make([]SeriesPoint, 0, len(a.byBucket))
	for _, p := range a.byBucket {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hour < out[j].Hour })
	return out
}

func (a *TimeSeriesAgg) Finalize() any { return a.Series() }

// ---------------------------------------------------------------------
// Figure 7a: IPv4 vs IPv6

// IPVersionAgg incrementally computes IPVersionCompare. The
// minPerVersion row filter is fixed at construction.
type IPVersionAgg struct {
	minPerVersion int
	byCountry     map[string]*VersionComparison
}

// NewIPVersionAgg returns an empty Figure 7a aggregator.
func NewIPVersionAgg(minPerVersion int) *IPVersionAgg {
	return &IPVersionAgg{minPerVersion: minPerVersion, byCountry: map[string]*VersionComparison{}}
}

func (a *IPVersionAgg) Add(r *Record) {
	if r.Country == "" {
		return
	}
	v := a.byCountry[r.Country]
	if v == nil {
		v = &VersionComparison{Country: r.Country}
		a.byCountry[r.Country] = v
	}
	m := PostACKPSHMatch(r)
	if r.IPVersion == 6 {
		v.V6Total++
		if m {
			v.V6M++
		}
	} else {
		v.V4Total++
		if m {
			v.V4M++
		}
	}
}

func (a *IPVersionAgg) Merge(other Aggregator) error {
	o, ok := other.(*IPVersionAgg)
	if !ok {
		return mismatch(a, other)
	}
	if o.minPerVersion != a.minPerVersion {
		return fmt.Errorf("analysis: cannot merge minPerVersion=%d into minPerVersion=%d",
			o.minPerVersion, a.minPerVersion)
	}
	for c, ov := range o.byCountry {
		v := a.byCountry[c]
		if v == nil {
			cp := *ov
			a.byCountry[c] = &cp
			continue
		}
		v.V4Total += ov.V4Total
		v.V4M += ov.V4M
		v.V6Total += ov.V6Total
		v.V6M += ov.V6M
	}
	return nil
}

// Table finalizes Figure 7a: the qualifying rows in country order plus
// the through-origin slope. The slope's inputs accumulate in sorted
// country order so the float sum is reproducible bit for bit.
func (a *IPVersionAgg) Table() ([]VersionComparison, float64) {
	countries := make([]string, 0, len(a.byCountry))
	for c := range a.byCountry {
		countries = append(countries, c)
	}
	sort.Strings(countries)
	var out []VersionComparison
	var xs, ys []float64
	for _, c := range countries {
		v := a.byCountry[c]
		if v.V4Total < a.minPerVersion || v.V6Total < a.minPerVersion {
			continue
		}
		out = append(out, *v)
		xs = append(xs, stats.Percent(v.V4Share()))
		ys = append(ys, stats.Percent(v.V6Share()))
	}
	return out, stats.SlopeThroughOrigin(xs, ys)
}

// VersionTable pairs Table's results for Finalize.
type VersionTable struct {
	Rows  []VersionComparison
	Slope float64
}

func (a *IPVersionAgg) Finalize() any {
	rows, slope := a.Table()
	return VersionTable{Rows: rows, Slope: slope}
}

// ---------------------------------------------------------------------
// Figure 7b: TLS vs HTTP

// ProtocolAgg incrementally computes ProtocolCompare. The minPerProto
// row filter is fixed at construction.
type ProtocolAgg struct {
	minPerProto int
	byCountry   map[string]*ProtocolComparison
}

// NewProtocolAgg returns an empty Figure 7b aggregator.
func NewProtocolAgg(minPerProto int) *ProtocolAgg {
	return &ProtocolAgg{minPerProto: minPerProto, byCountry: map[string]*ProtocolComparison{}}
}

func (a *ProtocolAgg) Add(r *Record) {
	if r.Country == "" || r.Res.Protocol == core.ProtoUnknown {
		return
	}
	p := a.byCountry[r.Country]
	if p == nil {
		p = &ProtocolComparison{Country: r.Country}
		a.byCountry[r.Country] = p
	}
	st := r.Res.Signature.Stage()
	m := st == core.StagePostPSH || st == core.StagePostACK
	if r.Res.Protocol == core.ProtoTLS {
		p.TLSTotal++
		if m {
			p.TLSM++
		}
	} else {
		p.HTTPTotal++
		if m {
			p.HTTPM++
		}
	}
}

func (a *ProtocolAgg) Merge(other Aggregator) error {
	o, ok := other.(*ProtocolAgg)
	if !ok {
		return mismatch(a, other)
	}
	if o.minPerProto != a.minPerProto {
		return fmt.Errorf("analysis: cannot merge minPerProto=%d into minPerProto=%d",
			o.minPerProto, a.minPerProto)
	}
	for c, op := range o.byCountry {
		p := a.byCountry[c]
		if p == nil {
			cp := *op
			a.byCountry[c] = &cp
			continue
		}
		p.TLSTotal += op.TLSTotal
		p.TLSM += op.TLSM
		p.HTTPTotal += op.HTTPTotal
		p.HTTPM += op.HTTPM
	}
	return nil
}

// Table finalizes Figure 7b, with the slope inputs in sorted country
// order (see IPVersionAgg.Table).
func (a *ProtocolAgg) Table() ([]ProtocolComparison, float64) {
	countries := make([]string, 0, len(a.byCountry))
	for c := range a.byCountry {
		countries = append(countries, c)
	}
	sort.Strings(countries)
	var out []ProtocolComparison
	var xs, ys []float64
	for _, c := range countries {
		p := a.byCountry[c]
		if p.TLSTotal < a.minPerProto || p.HTTPTotal < a.minPerProto {
			continue
		}
		out = append(out, *p)
		xs = append(xs, stats.Percent(p.TLSShare()))
		ys = append(ys, stats.Percent(p.HTTPShare()))
	}
	return out, stats.SlopeThroughOrigin(xs, ys)
}

// ProtocolTable pairs Table's results for Finalize.
type ProtocolTable struct {
	Rows  []ProtocolComparison
	Slope float64
}

func (a *ProtocolAgg) Finalize() any {
	rows, slope := a.Table()
	return ProtocolTable{Rows: rows, Slope: slope}
}

// ---------------------------------------------------------------------
// Figures 2, 3: evidence CDFs

// EvidenceAgg incrementally computes ComputeEvidenceCDFs. Where the
// batch path sampled the *first* capPerSig connections per signature —
// an order-dependent choice that would break shard parity — the
// aggregator keeps a deterministic bottom-k-by-hash sample
// (stats.Sketch) keyed by the record's identity, so the retained
// sample is a pure function of the record multiset.
type EvidenceAgg struct {
	capPerSig int
	ipid      map[core.Signature]*stats.Sketch
	ttl       map[core.Signature]*stats.Sketch
}

// NewEvidenceAgg returns an empty Figures 2/3 aggregator sampling up
// to capPerSig connections per signature (the paper uses 1 000).
func NewEvidenceAgg(capPerSig int) *EvidenceAgg {
	if capPerSig < 1 {
		capPerSig = 1
	}
	return &EvidenceAgg{
		capPerSig: capPerSig,
		ipid:      map[core.Signature]*stats.Sketch{},
		ttl:       map[core.Signature]*stats.Sketch{},
	}
}

// evidenceKey hashes the record's identity for the sampling sketch.
// It uses only record-derived fields, never arrival order, so every
// shard computes the same key for the same record.
//
// The key is FNV-1a 64 over the source address's text form, the two
// ports big-endian and the time little-endian, computed inline on a
// stack buffer so the per-record path does not allocate.
func evidenceKey(r *Record) uint64 {
	var buf [64]byte
	b := r.SrcIP.AppendTo(buf[:0])
	b = append(b, byte(r.SrcPort>>8), byte(r.SrcPort), byte(r.DstPort>>8), byte(r.DstPort))
	for i := 0; i < 8; i++ {
		b = append(b, byte(r.Time>>(8*i)))
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (a *EvidenceAgg) Add(r *Record) {
	sig := r.Res.Signature
	if sig == core.SigOtherAnomalous {
		return
	}
	key := evidenceKey(r)
	t := a.ttl[sig]
	if t == nil {
		t = stats.NewSketch(a.capPerSig)
		a.ttl[sig] = t
	}
	t.Add(key, float64(r.Res.Evidence.MaxTTLDelta))
	if r.Res.Evidence.IPIDValid {
		p := a.ipid[sig]
		if p == nil {
			p = stats.NewSketch(a.capPerSig)
			a.ipid[sig] = p
		}
		p.Add(key, float64(r.Res.Evidence.MaxIPIDDelta))
	}
}

func (a *EvidenceAgg) Merge(other Aggregator) error {
	o, ok := other.(*EvidenceAgg)
	if !ok {
		return mismatch(a, other)
	}
	if o.capPerSig != a.capPerSig {
		return fmt.Errorf("analysis: cannot merge capPerSig=%d into capPerSig=%d",
			o.capPerSig, a.capPerSig)
	}
	for sig, os := range o.ttl {
		s := a.ttl[sig]
		if s == nil {
			s = stats.NewSketch(a.capPerSig)
			a.ttl[sig] = s
		}
		s.Merge(os)
	}
	for sig, os := range o.ipid {
		s := a.ipid[sig]
		if s == nil {
			s = stats.NewSketch(a.capPerSig)
			a.ipid[sig] = s
		}
		s.Merge(os)
	}
	return nil
}

// CDFs finalizes the Figure 2/3 distributions.
func (a *EvidenceAgg) CDFs() EvidenceCDFs {
	out := EvidenceCDFs{
		IPID: make(map[core.Signature]*stats.CDF, len(a.ipid)),
		TTL:  make(map[core.Signature]*stats.CDF, len(a.ttl)),
	}
	for sig, s := range a.ipid {
		out.IPID[sig] = stats.NewCDF(s.Values())
	}
	for sig, s := range a.ttl {
		out.TTL[sig] = stats.NewCDF(s.Values())
	}
	return out
}

func (a *EvidenceAgg) Finalize() any { return a.CDFs() }

// ---------------------------------------------------------------------
// §4.2 scanner fingerprints

// ScannerAgg incrementally computes ComputeScannerStats from records
// alone (Record carries DstPort, so the original connections are no
// longer needed). It additionally tracks the §5.1 companion counters:
// total tampering matches and the Post-ACK/Post-PSH subset.
type ScannerAgg struct {
	s          ScannerStats
	dayPayload map[int]int
	daySYNs    map[int]int
	// TamperingMatches and PostACKPSHMatches serve the §5.1
	// "Post-ACK/Post-PSH share of matches" statistic.
	TamperingMatches  int
	PostACKPSHMatches int
}

// NewScannerAgg returns an empty §4.2 aggregator.
func NewScannerAgg() *ScannerAgg {
	return &ScannerAgg{dayPayload: map[int]int{}, daySYNs: map[int]int{}}
}

func (a *ScannerAgg) Add(r *Record) {
	a.s.Total++
	ev := &r.Res.Evidence
	if ev.HighTTL {
		a.s.HighTTL++
	}
	if ev.NoSYNOptions {
		a.s.NoSYNOptions++
	}
	if r.Res.Signature == core.SigSYNRST {
		a.s.SYNRSTMatches++
		if ev.ZMapFingerprint {
			a.s.SYNRSTZMap++
		}
	}
	if r.Res.Signature.IsTampering() {
		a.TamperingMatches++
		if r.Res.Signature.PostACKOrPSH() {
			a.PostACKPSHMatches++
		}
	}
	switch r.DstPort {
	case 80:
		a.s.Port80SYNs++
		a.daySYNs[r.Hour/24]++
		if ev.SYNPayloadLen > 0 {
			a.s.SYNPayload80++
			a.dayPayload[r.Hour/24]++
		}
	case 443:
		a.s.Port443SYNs++
		if ev.SYNPayloadLen > 0 {
			a.s.SYNPayload443++
		}
	}
}

func (a *ScannerAgg) Merge(other Aggregator) error {
	o, ok := other.(*ScannerAgg)
	if !ok {
		return mismatch(a, other)
	}
	a.s.Total += o.s.Total
	a.s.HighTTL += o.s.HighTTL
	a.s.NoSYNOptions += o.s.NoSYNOptions
	a.s.SYNRSTMatches += o.s.SYNRSTMatches
	a.s.SYNRSTZMap += o.s.SYNRSTZMap
	a.s.SYNPayload80 += o.s.SYNPayload80
	a.s.Port80SYNs += o.s.Port80SYNs
	a.s.SYNPayload443 += o.s.SYNPayload443
	a.s.Port443SYNs += o.s.Port443SYNs
	a.TamperingMatches += o.TamperingMatches
	a.PostACKPSHMatches += o.PostACKPSHMatches
	for d, n := range o.dayPayload {
		a.dayPayload[d] += n
	}
	for d, n := range o.daySYNs {
		a.daySYNs[d] += n
	}
	return nil
}

// Stats finalizes the §4.2 numbers. PeakDay scans days in ascending
// order with a strict comparison, so ties resolve to the earliest day
// regardless of map iteration order.
func (a *ScannerAgg) Stats() ScannerStats {
	s := a.s
	s.PeakDay = -1
	s.PeakDayShare = 0
	days := make([]int, 0, len(a.daySYNs))
	for d := range a.daySYNs {
		days = append(days, d)
	}
	sort.Ints(days)
	for _, day := range days {
		n := a.daySYNs[day]
		if n < 50 {
			continue
		}
		share := float64(a.dayPayload[day]) / float64(n)
		if share > s.PeakDayShare {
			s.PeakDayShare = share
			s.PeakDay = day
		}
	}
	return s
}

func (a *ScannerAgg) Finalize() any { return a.Stats() }
