// Package analysis aggregates classified connections into the paper's
// tables and figures: per-country and per-AS tampering rates (Figures
// 1, 4, 5), longitudinal series (Figures 6, 8, 9), IP-version and
// protocol comparisons (Figure 7), category and test-list tables
// (Tables 2, 3), evidence CDFs (Figures 2, 3), the signature-overlap
// matrix (Figure 10), and the §4.1/§4.2 summary statistics.
package analysis

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/stats"
)

// Record is one classified connection with its aggregation keys.
type Record struct {
	Res       core.Result
	Country   string
	ASN       uint32
	IPVersion int
	// Hour is the scenario hour of the first packet (capture
	// timestamps are seconds from scenario start).
	Hour int
	// Time is the first packet's timestamp in seconds — the canonical
	// per-pair ordering key of the overlap matrix.
	Time int64
	// SrcIP is the client address; the overlap matrix keys client
	// and domain pairs by its text form.
	SrcIP netip.Addr
	// SrcPort and DstPort come from the connection's flow key; DstPort
	// drives the scanner port counters without the raw connection.
	SrcPort uint16
	DstPort uint16
}

// NewRecord builds one aggregation record from a classified
// connection, attaching country/AS via the geo resolver — exactly the
// paper's pipeline: aggregation keys come only from the source
// address. It is the single-record form of Analyze, used by streaming
// classification sinks; those pass a per-worker *geo.Cache so the
// per-record resolution skips the binary search.
func NewRecord(c *capture.Connection, db geo.Resolver, res core.Result) Record {
	rec := Record{
		Res:       res,
		IPVersion: c.IPVersion,
		SrcIP:     c.SrcIP,
		SrcPort:   c.SrcPort,
		DstPort:   c.DstPort,
	}
	if as := db.Lookup(c.SrcIP); as != nil {
		rec.Country = as.Country
		rec.ASN = as.ASN
	}
	if len(c.Packets) > 0 {
		rec.Time = c.Packets[0].Timestamp
		rec.Hour = int(rec.Time / 3600)
	}
	return rec
}

// Analyze classifies every connection (in parallel) and attaches
// country/AS via the geo database.
func Analyze(conns []*capture.Connection, db *geo.DB, cl *core.Classifier, workers int) []Record {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]Record, len(conns))
	var wg sync.WaitGroup
	ch := make(chan int, 256)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				c := conns[i]
				out[i] = NewRecord(c, db, cl.Classify(c))
			}
		}()
	}
	for i := range conns {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// StageStats is the §4.1 headline breakdown (Table 1's narrative).
type StageStats struct {
	Total            int
	PossiblyTampered int
	// StageCounts counts possibly-tampered connections per stage
	// (StageOther collects the uncovered remainder).
	StageCounts [core.NumStages]int
	// StageMatched counts, per stage, those matching a Table 1
	// signature.
	StageMatched [core.NumStages]int
	// Matched is the total matching any signature.
	Matched int
}

// PossiblyTamperedShare is the §4.1 25.7% statistic.
func (s *StageStats) PossiblyTamperedShare() float64 {
	return stats.Ratio(s.PossiblyTampered, s.Total)
}

// SignatureCoverage is the §4.1 86.9% statistic: the share of possibly
// tampered connections matching one of the 19 signatures.
func (s *StageStats) SignatureCoverage() float64 {
	return stats.Ratio(s.Matched, s.PossiblyTampered)
}

// StageShare is a stage's share of possibly-tampered connections
// (43.2% / 16.1% / 5.3% / 33.0% / 2.3% in the paper).
func (s *StageStats) StageShare(st core.Stage) float64 {
	return stats.Ratio(s.StageCounts[st], s.PossiblyTampered)
}

// StageCoverage is the share of a stage's connections matched by a
// signature (99.5% / 98.7% / 97.9% / 69.2%).
func (s *StageStats) StageCoverage(st core.Stage) float64 {
	return stats.Ratio(s.StageMatched[st], s.StageCounts[st])
}

// ComputeStageStats builds the §4.1 breakdown. The stage of unmatched
// possibly-tampered connections is derived from how far the canonical
// prefix got: the classifier reports StageOther for those, except
// Post-Data timeouts which it attributes to Post-Data with no match —
// the aggregator counts by the connection's classified stage.
func ComputeStageStats(recs []Record) StageStats {
	a := NewStageStatsAgg()
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Stats()
}

// CountryDistribution is Figure 4: per country, the share of
// connections per signature (and not tampering).
type CountryDistribution struct {
	Country string
	Total   int
	// BySignature counts connections per signature.
	BySignature [core.NumSignatures]int
}

// TamperedShare is the country's share of connections matching any of
// the 19 signatures.
func (c *CountryDistribution) TamperedShare() float64 {
	matched := 0
	for _, sig := range core.AllSignatures() {
		matched += c.BySignature[sig]
	}
	return stats.Ratio(matched, c.Total)
}

// SignatureShare is the country share matching one signature.
func (c *CountryDistribution) SignatureShare(sig core.Signature) float64 {
	return stats.Ratio(c.BySignature[sig], c.Total)
}

// SignatureByCountry computes Figure 4 for every country present,
// sorted by descending tampered share.
func SignatureByCountry(recs []Record) []CountryDistribution {
	a := NewSignatureByCountryAgg()
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Table()
}

// SignatureComposition is Figure 1: for one signature, which countries
// its matches come from.
type SignatureComposition struct {
	Signature core.Signature
	Total     int
	// ByCountry maps country → match count.
	ByCountry map[string]int
}

// Share returns the country's share of the signature's matches.
func (s *SignatureComposition) Share(country string) float64 {
	return stats.Ratio(s.ByCountry[country], s.Total)
}

// TopCountries returns up to n countries by descending share.
func (s *SignatureComposition) TopCountries(n int) []string {
	type kv struct {
		c string
		n int
	}
	var kvs []kv
	for c, cnt := range s.ByCountry {
		kvs = append(kvs, kv{c, cnt})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].n != kvs[j].n {
			return kvs[i].n > kvs[j].n
		}
		return kvs[i].c < kvs[j].c
	})
	if len(kvs) > n {
		kvs = kvs[:n]
	}
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.c
	}
	return out
}

// CountryBySignature computes Figure 1 for all 19 signatures.
func CountryBySignature(recs []Record) []SignatureComposition {
	a := NewCountryBySignatureAgg()
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Table()
}

// ASNStat is one AS's row in Figure 5.
type ASNStat struct {
	ASN          uint32
	Total        int
	Matched      int
	CountryShare float64 // share of the country's connections
}

// MatchShare is the AS's tampering match proportion.
func (a *ASNStat) MatchShare() float64 { return stats.Ratio(a.Matched, a.Total) }

// ASNView computes Figure 5 for one country: the per-AS match
// proportions among the top ASes carrying 80% of the country's
// connections, ordered by traffic share.
func ASNView(recs []Record, country string) []ASNStat {
	a := NewASNViewAgg()
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.View(country)
}

// SpreadOfASNView measures Figure 5's key contrast: the range (max-min)
// of match shares across a country's major ASes — small for
// centralized censors, large for decentralized ones.
func SpreadOfASNView(view []ASNStat) float64 {
	if len(view) == 0 {
		return 0
	}
	lo, hi := view[0].MatchShare(), view[0].MatchShare()
	for _, a := range view[1:] {
		m := a.MatchShare()
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	return hi - lo
}

// SeriesPoint is one bucket of a longitudinal series.
type SeriesPoint struct {
	Hour    int
	Total   int
	Matched int
}

// Share is the bucket's match proportion.
func (p SeriesPoint) Share() float64 { return stats.Ratio(p.Matched, p.Total) }

// TimeSeries computes a match-share series bucketed by hour, counting
// records that pass the filter as matched (Figures 6, 8, 9 use
// different filters).
func TimeSeries(recs []Record, bucketHours int, include func(*Record) bool, matched func(*Record) bool) []SeriesPoint {
	a := NewTimeSeriesAgg(bucketHours, include, matched)
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Series()
}

// PostACKPSHMatch is the Figure 6/7 matched-predicate: Post-ACK or
// Post-PSH signatures only (§4.2 robustness restriction).
func PostACKPSHMatch(r *Record) bool { return r.Res.Signature.PostACKOrPSH() }

// AnySignatureMatch matches all 19 signatures.
func AnySignatureMatch(r *Record) bool { return r.Res.Signature.IsTampering() }

// VersionComparison is Figure 7a: per-country tampering shares over
// IPv4 vs IPv6.
type VersionComparison struct {
	Country      string
	V4Total, V4M int
	V6Total, V6M int
}

// V4Share and V6Share are the per-version match proportions.
func (v *VersionComparison) V4Share() float64 { return stats.Ratio(v.V4M, v.V4Total) }
func (v *VersionComparison) V6Share() float64 { return stats.Ratio(v.V6M, v.V6Total) }

// IPVersionCompare computes Figure 7a, returning rows for countries
// with at least minPerVersion connections in each family, plus the
// through-origin regression slope (paper: 0.92).
func IPVersionCompare(recs []Record, minPerVersion int) ([]VersionComparison, float64) {
	a := NewIPVersionAgg(minPerVersion)
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Table()
}

// ProtocolComparison is Figure 7b: per-country Post-PSH match shares
// for TLS vs HTTP.
type ProtocolComparison struct {
	Country          string
	TLSTotal, TLSM   int
	HTTPTotal, HTTPM int
}

// TLSShare and HTTPShare are the per-protocol Post-PSH match rates.
func (p *ProtocolComparison) TLSShare() float64  { return stats.Ratio(p.TLSM, p.TLSTotal) }
func (p *ProtocolComparison) HTTPShare() float64 { return stats.Ratio(p.HTTPM, p.HTTPTotal) }

// ProtocolCompare computes Figure 7b over Post-PSH signatures (where
// the trigger is visible), with the through-origin slope of HTTP share
// regressed on TLS share (paper: ≈0.3, i.e. TLS more tampered, with
// Turkmenistan the HTTP-only outlier).
func ProtocolCompare(recs []Record, minPerProto int) ([]ProtocolComparison, float64) {
	a := NewProtocolAgg(minPerProto)
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Table()
}

// EvidenceCDFs holds the Figure 2 and Figure 3 distributions: per
// signature (plus the Not-Tampering baseline), the CDF of the maximum
// IP-ID delta (IPv4 only) and maximum TTL delta.
type EvidenceCDFs struct {
	// IPID[sig] and TTL[sig] index by signature; SigNotTampering holds
	// the baseline.
	IPID map[core.Signature]*stats.CDF
	TTL  map[core.Signature]*stats.CDF
}

// ComputeEvidenceCDFs samples up to capPerSig connections per
// signature (the paper uses 1 000), via EvidenceAgg's deterministic
// bottom-k-by-hash sample — a pure function of the record multiset,
// where earlier versions kept the order-dependent first capPerSig.
func ComputeEvidenceCDFs(recs []Record, capPerSig int) EvidenceCDFs {
	a := NewEvidenceAgg(capPerSig)
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.CDFs()
}

// ScannerStats are the §4.2 threat-to-validity numbers.
type ScannerStats struct {
	Total         int
	HighTTL       int
	NoSYNOptions  int
	SYNRSTMatches int
	SYNRSTZMap    int
	SYNPayload80  int // port-80 SYNs carrying payload
	Port80SYNs    int
	SYNPayload443 int
	Port443SYNs   int
	// PeakDay and PeakDayShare report the day with the highest share
	// of payload-carrying port-80 SYNs (§4.1's surge observation).
	PeakDay      int
	PeakDayShare float64
}

// ComputeScannerStats tallies the scanner fingerprints. Records built
// by NewRecord carry the destination port; conns, when non-empty,
// overrides it positionally for callers with records from older
// sources.
func ComputeScannerStats(recs []Record, conns []*capture.Connection) ScannerStats {
	a := NewScannerAgg()
	for i := range recs {
		r := recs[i]
		if i < len(conns) {
			r.DstPort = conns[i].DstPort
		}
		a.Add(&r)
	}
	return a.Stats()
}
