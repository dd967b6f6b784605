package analysis

// Aggregators over (country, domain) keys — Tables 2 and 3, the §5.5
// observation set, the Figure 10 overlap matrix — plus the §6
// stability report and the robustness false-positive matrix. See
// aggregate.go for the Aggregator contract and the multiset
// determinism invariant.

import (
	"fmt"
	"sort"

	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/testlists"
)

// ---------------------------------------------------------------------
// Tables 2, 3 and §5.5: per-(country, domain) sighting/match counts

// DomainCount is one (country, domain) row of the DomainAgg table.
type DomainCount struct {
	Country string
	Domain  string
	// Sightings counts records naming the domain; Matches counts the
	// Post-PSH/Post-Data tampering subset.
	Sightings int
	Matches   int
}

type domKey struct{ country, domain string }

// DomainAgg incrementally counts per-(country, domain) sightings and
// Post-PSH tampering matches — the single state behind
// ComputeCategoryTable (Table 2), TamperedDomains (§5.5), and
// ListCoverageTable (Table 3), each a finalize over the same counts.
type DomainAgg struct {
	counts map[domKey]*DomainCount
}

// NewDomainAgg returns an empty per-domain aggregator.
func NewDomainAgg() *DomainAgg {
	return &DomainAgg{counts: map[domKey]*DomainCount{}}
}

func (a *DomainAgg) Add(r *Record) {
	if r.Res.Domain == "" {
		return
	}
	k := domKey{country: r.Country, domain: r.Res.Domain}
	c := a.counts[k]
	if c == nil {
		c = &DomainCount{Country: k.country, Domain: k.domain}
		a.counts[k] = c
	}
	c.Sightings++
	st := r.Res.Signature.Stage()
	if r.Res.Signature.IsTampering() && (st == core.StagePostPSH || st == core.StagePostData) {
		c.Matches++
	}
}

func (a *DomainAgg) Merge(other Aggregator) error {
	o, ok := other.(*DomainAgg)
	if !ok {
		return mismatch(a, other)
	}
	for k, oc := range o.counts {
		c := a.counts[k]
		if c == nil {
			cp := *oc
			a.counts[k] = &cp
			continue
		}
		c.Sightings += oc.Sightings
		c.Matches += oc.Matches
	}
	return nil
}

// Finalize returns the per-(country, domain) counts sorted by
// (country, domain).
func (a *DomainAgg) Finalize() any {
	out := make([]DomainCount, 0, len(a.counts))
	for _, c := range a.counts {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Country != out[j].Country {
			return out[i].Country < out[j].Country
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// regionCounts folds the per-country counts down to per-domain counts
// for one region ("" means global).
func (a *DomainAgg) regionCounts(region string) (matches, sightings map[string]int) {
	matches = map[string]int{}
	sightings = map[string]int{}
	for k, c := range a.counts {
		if region != "" && k.country != region {
			continue
		}
		sightings[k.domain] += c.Sightings
		matches[k.domain] += c.Matches
	}
	return matches, sightings
}

// CategoryTable finalizes Table 2 for one region ("" means global). A
// domain counts as tampered when it has at least minMatches Post-PSH
// signature matches from the region (the paper uses 100 per day at CDN
// scale; scale it to the dataset size).
func (a *DomainAgg) CategoryTable(u *domains.Universe, region string, minMatches int) CategoryTable {
	if minMatches < 1 {
		minMatches = 1
	}
	matches, sightings := a.regionCounts(region)
	// Both the tampered set (numerator) and the observed set
	// (denominator) use the same sighting threshold, mirroring the
	// paper's "domains observed to be accessed" at its larger scale.
	seen := map[string]bool{}
	for d, n := range sightings {
		if n >= minMatches {
			seen[d] = true
		}
	}
	tampered := map[string]bool{}
	for d, n := range matches {
		if n >= minMatches {
			tampered[d] = true
		}
	}
	var tamperedConns [domains.NumCategories]int
	var seenDomains [domains.NumCategories]int
	var tamperedDomains [domains.NumCategories]int
	total := 0
	for d := range seen {
		dom := u.ByName(d)
		if dom == nil {
			continue
		}
		seenDomains[dom.Category]++
		if tampered[d] {
			tamperedDomains[dom.Category]++
		}
	}
	for d, n := range matches {
		if !tampered[d] {
			continue
		}
		dom := u.ByName(d)
		if dom == nil {
			continue
		}
		tamperedConns[dom.Category] += n
		total += n
	}
	t := CategoryTable{Region: region, TamperedTotal: total}
	for _, c := range domains.AllCategories() {
		if tamperedConns[c] == 0 {
			continue
		}
		t.Rows = append(t.Rows, CategoryRow{
			Category:      c,
			TamperedShare: stats.Ratio(tamperedConns[c], total),
			Coverage:      stats.Ratio(tamperedDomains[c], seenDomains[c]),
			TamperedConns: tamperedConns[c],
		})
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].TamperedShare != t.Rows[j].TamperedShare {
			return t.Rows[i].TamperedShare > t.Rows[j].TamperedShare
		}
		return t.Rows[i].Category < t.Rows[j].Category
	})
	return t
}

// TamperedDomains finalizes the §5.5 observation set: domains with at
// least minMatches Post-PSH matches from the region, sorted.
func (a *DomainAgg) TamperedDomains(region string, minMatches int) []string {
	if minMatches < 1 {
		minMatches = 1
	}
	matches, _ := a.regionCounts(region)
	var out []string
	for d, n := range matches {
		if n >= minMatches {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// ListCoverage finalizes Table 3 over the given regions ("" means
// global).
func (a *DomainAgg) ListCoverage(suite *testlists.Suite, regions []string, minMatches int) []ListCoverageRow {
	tamperedByRegion := map[string][]string{}
	for _, reg := range regions {
		tamperedByRegion[reg] = a.TamperedDomains(reg, minMatches)
	}
	lists := suite.Lists()
	// Union rows, as in the table's last four rows.
	curated := testlists.Union("Union: Citizenlab + Greatfire", suite.CitizenLab, suite.CitizenLabGlobal, suite.GreatfireAll, suite.Greatfire30d)
	all := testlists.Union("Union: All lists", append([]*testlists.List{curated}, lists...)...)
	rows := make([]ListCoverageRow, 0, len(lists)+4)
	addRow := func(l *testlists.List, substring bool, nameOverride string) {
		row := ListCoverageRow{
			ListName:  l.Name,
			Entries:   l.Len(),
			Exact:     map[string]float64{},
			Substring: map[string]float64{},
		}
		if nameOverride != "" {
			row.ListName = nameOverride
		}
		for _, reg := range regions {
			td := tamperedByRegion[reg]
			row.Exact[reg] = testlists.Coverage(l, td, false)
			if substring {
				row.Substring[reg] = testlists.Coverage(l, td, true)
			}
		}
		rows = append(rows, row)
	}
	for _, l := range lists {
		addRow(l, false, "")
	}
	addRow(curated, false, "")
	addRow(all, false, "")
	addRow(curated, true, "Substring: Citizenlab + Greatfire")
	addRow(all, true, "Substring: All lists")
	return rows
}

// ---------------------------------------------------------------------
// Figure 10: signature overlap

type pairKey struct{ src, domain string }

type pairObs struct {
	time int64
	sig  core.Signature
}

// OverlapAgg incrementally computes ComputeOverlapMatrix. It retains
// one (time, signature) observation per axis-relevant record of every
// (client, domain) pair and sorts each pair's observations by
// (time, signature) at finalize, so the transition counts are a pure
// function of the record multiset — the batch path's silent dependence
// on per-pair temporal input order is gone, and unordered sinks or
// shuffled inputs produce the identical matrix. State is bounded by
// the number of domain-visible observations on the Figure 10 axes
// (Not-Tampering and Post-PSH signatures), not by capture size.
type OverlapAgg struct {
	axisIdx map[core.Signature]int
	obs     map[pairKey][]pairObs
}

// NewOverlapAgg returns an empty Figure 10 aggregator.
func NewOverlapAgg() *OverlapAgg {
	a := &OverlapAgg{axisIdx: map[core.Signature]int{}, obs: map[pairKey][]pairObs{}}
	for i, s := range postPSHAxes() {
		a.axisIdx[s] = i
	}
	return a
}

func (a *OverlapAgg) Add(r *Record) {
	if r.Res.Domain == "" {
		return
	}
	if _, ok := a.axisIdx[r.Res.Signature]; !ok {
		return
	}
	k := pairKey{src: r.SrcIP.String(), domain: r.Res.Domain}
	a.obs[k] = append(a.obs[k], pairObs{time: r.Time, sig: r.Res.Signature})
}

func (a *OverlapAgg) Merge(other Aggregator) error {
	o, ok := other.(*OverlapAgg)
	if !ok {
		return mismatch(a, other)
	}
	for k, oo := range o.obs {
		a.obs[k] = append(a.obs[k], oo...)
	}
	return nil
}

// Matrix finalizes Figure 10. Each pair's observations are ordered by
// (time, signature) — the canonical temporal order, with the signature
// tie-break covering the 1-second timestamp granularity — and adjacent
// observations contribute one transition.
func (a *OverlapAgg) Matrix() OverlapMatrix {
	axes := postPSHAxes()
	n := len(axes)
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	pairs := 0
	for _, obs := range a.obs {
		sort.Slice(obs, func(i, j int) bool {
			if obs[i].time != obs[j].time {
				return obs[i].time < obs[j].time
			}
			return obs[i].sig < obs[j].sig
		})
		for i := 1; i < len(obs); i++ {
			counts[a.axisIdx[obs[i-1].sig]][a.axisIdx[obs[i].sig]]++
			pairs++
		}
	}
	frac := make([][]float64, n)
	for i := range frac {
		frac[i] = make([]float64, n)
		rowTotal := 0
		for j := range counts[i] {
			rowTotal += counts[i][j]
		}
		for j := range counts[i] {
			frac[i][j] = stats.Ratio(counts[i][j], rowTotal)
		}
	}
	return OverlapMatrix{Sigs: axes, Fraction: frac, Counts: counts, Pairs: pairs}
}

func (a *OverlapAgg) Finalize() any { return a.Matrix() }

// ---------------------------------------------------------------------
// §6 stability

type hourCount struct {
	all   int
	total int
	sig   [core.NumSignatures]int
}

// StabilityAgg incrementally computes StabilityReport. The batch path
// needs two passes (the half-window split depends on the maximum hour
// seen); the aggregator instead keeps per-(country, hour) signature
// counts and folds them into halves at finalize.
type StabilityAgg struct {
	minPerHalf int
	maxHour    int
	any        bool
	byCountry  map[string]map[int]*hourCount
}

// NewStabilityAgg returns an empty §6 aggregator with the given
// per-half inclusion threshold.
func NewStabilityAgg(minPerHalf int) *StabilityAgg {
	return &StabilityAgg{minPerHalf: minPerHalf, byCountry: map[string]map[int]*hourCount{}}
}

func (a *StabilityAgg) Add(r *Record) {
	a.any = true
	if r.Hour > a.maxHour {
		a.maxHour = r.Hour
	}
	if r.Country == "" {
		return
	}
	hours := a.byCountry[r.Country]
	if hours == nil {
		hours = map[int]*hourCount{}
		a.byCountry[r.Country] = hours
	}
	h := hours[r.Hour]
	if h == nil {
		h = &hourCount{}
		hours[r.Hour] = h
	}
	h.all++
	if r.Res.Signature.IsTampering() {
		h.sig[r.Res.Signature]++
		h.total++
	}
}

func (a *StabilityAgg) Merge(other Aggregator) error {
	o, ok := other.(*StabilityAgg)
	if !ok {
		return mismatch(a, other)
	}
	if o.minPerHalf != a.minPerHalf {
		return fmt.Errorf("analysis: cannot merge minPerHalf=%d into minPerHalf=%d",
			o.minPerHalf, a.minPerHalf)
	}
	a.any = a.any || o.any
	if o.maxHour > a.maxHour {
		a.maxHour = o.maxHour
	}
	for c, ohours := range o.byCountry {
		hours := a.byCountry[c]
		if hours == nil {
			hours = map[int]*hourCount{}
			a.byCountry[c] = hours
		}
		for hr, oh := range ohours {
			h := hours[hr]
			if h == nil {
				h = &hourCount{}
				hours[hr] = h
			}
			h.all += oh.all
			h.total += oh.total
			for sig := range h.sig {
				h.sig[sig] += oh.sig[sig]
			}
		}
	}
	return nil
}

// Report finalizes the §6 comparison, sorted by ascending similarity.
func (a *StabilityAgg) Report() []StabilityRow {
	if !a.any {
		return nil
	}
	split := a.maxHour / 2
	var out []StabilityRow
	for country, hours := range a.byCountry {
		var sig [2][core.NumSignatures]int
		var total, all [2]int
		for hr, h := range hours {
			half := 0
			if hr > split {
				half = 1
			}
			all[half] += h.all
			total[half] += h.total
			for s := range h.sig {
				sig[half][s] += h.sig[s]
			}
		}
		if total[0] < a.minPerHalf || total[1] < a.minPerHalf {
			continue
		}
		row := StabilityRow{
			Country:     country,
			FirstTotal:  total[0],
			SecondTotal: total[1],
			Cosine:      cosine(sig[0][:], sig[1][:]),
		}
		r0 := stats.Ratio(total[0], all[0])
		r1 := stats.Ratio(total[1], all[1])
		if r1 > r0 {
			row.RateDelta = r1 - r0
		} else {
			row.RateDelta = r0 - r1
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cosine != out[j].Cosine {
			return out[i].Cosine < out[j].Cosine
		}
		return out[i].Country < out[j].Country
	})
	return out
}

func (a *StabilityAgg) Finalize() any { return a.Report() }

// ---------------------------------------------------------------------
// Robustness false-positive matrix

// RobustnessAgg incrementally computes one impairment grade's cell of
// the robustness matrix (TallyRobustness). Merge models the same grade
// observed at several PoPs, so grade labels must match.
type RobustnessAgg struct {
	grade         string
	effectiveLoss float64
	total         int
	fps           [core.NumSignatures]int
	anomalous     int
	notTampering  int
}

// NewRobustnessAgg returns an empty aggregator for one grade.
func NewRobustnessAgg(grade string, effectiveLoss float64) *RobustnessAgg {
	return &RobustnessAgg{grade: grade, effectiveLoss: effectiveLoss}
}

func (a *RobustnessAgg) Add(r *Record) {
	a.total++
	switch sig := r.Res.Signature; {
	case sig.IsTampering():
		a.fps[sig]++
	case sig == core.SigOtherAnomalous:
		a.anomalous++
	default:
		a.notTampering++
	}
}

func (a *RobustnessAgg) Merge(other Aggregator) error {
	o, ok := other.(*RobustnessAgg)
	if !ok {
		return mismatch(a, other)
	}
	if o.grade != a.grade {
		return fmt.Errorf("analysis: cannot merge robustness grade %q into %q", o.grade, a.grade)
	}
	a.total += o.total
	a.anomalous += o.anomalous
	a.notTampering += o.notTampering
	for sig := range a.fps {
		a.fps[sig] += o.fps[sig]
	}
	return nil
}

// Grade finalizes the cell.
func (a *RobustnessAgg) Grade() RobustnessGrade {
	g := RobustnessGrade{
		Grade:          a.grade,
		EffectiveLoss:  a.effectiveLoss,
		Total:          a.total,
		FalsePositives: make(map[core.Signature]int),
		Anomalous:      a.anomalous,
		NotTampering:   a.notTampering,
	}
	for sig, n := range a.fps {
		if n > 0 {
			g.FalsePositives[core.Signature(sig)] = n
		}
	}
	return g
}

func (a *RobustnessAgg) Finalize() any { return a.Grade() }
