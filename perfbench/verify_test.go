package main

import (
	"strings"
	"testing"
)

const sampleListing = `20.0.188.41:33375 -> :443  SYN;ACK → RST+ACK          Post-ACK  proto=TLS domain=-
2600:1:115b:e6ba:8797:75ea:192a:93a3:41129 -> :443  SYN → ∅                    Post-SYN  proto=TLS domain=-
20.0.61.108:59793 -> :80  PSH;Data → RST             Post-Data proto=HTTP domain=social0009.example
`

const sampleReport = `connections:       59971
possibly tampered: 34551 (57.6%)

signature histogram:
  Not Tampering                   25420   42.4%
  SYN → ∅                         10624   17.7%  (IP-ID delta >100 in 0%)
  SYN;ACK → RST+ACK;RST+ACK        1746    2.9%  (IP-ID delta >100 in 100%)
  PSH → RST;RST₀                    319    0.3%  (IP-ID delta >100 in 100%)
  Other                            1154    1.9%

stage breakdown of possibly-tampered:
  Post-SYN      16673   48.3%
  Post-ACK      14935   43.2%
  Other           253    0.7%
`

func TestParseScanReport(t *testing.T) {
	rep, listing, err := parseScanReport(sampleListing + sampleReport)
	if err != nil {
		t.Fatal(err)
	}
	if listing != sampleListing {
		t.Errorf("listing = %q, want the three -v lines", listing)
	}
	if rep.connections != 59971 || rep.possibly != 34551 {
		t.Errorf("connections/possibly = %d/%d", rep.connections, rep.possibly)
	}
	wantSigs := map[string]int{
		"Not Tampering": 25420, "SYN → ∅": 10624, "SYN;ACK → RST+ACK;RST+ACK": 1746,
		"PSH → RST;RST₀": 319, "Other": 1154,
	}
	if err := equalCounts("signature", rep.signatures, wantSigs); err != nil {
		t.Error(err)
	}
	wantStages := map[string]int{"Post-SYN": 16673, "Post-ACK": 14935, "Other": 253}
	if err := equalCounts("stage", rep.stages, wantStages); err != nil {
		t.Error(err)
	}

	want := scanReport{connections: 59971, possibly: 34551, signatures: wantSigs, stages: wantStages}
	if err := rep.equal(want); err != nil {
		t.Errorf("equal to itself: %v", err)
	}
	want.signatures = map[string]int{"Not Tampering": 25420}
	if rep.equal(want) == nil {
		t.Error("a report with extra signature rows compared equal")
	}
}

func TestParseScanReportRejects(t *testing.T) {
	for name, out := range map[string]string{
		"empty":         "",
		"no report":     sampleListing,
		"mid-line":      "x connections: 5\n",
		"bad count":     "connections:       many\n",
		"orphan row":    "connections:       5\n  Post-SYN      16673   48.3%\n",
		"truncated row": "connections:       5\nsignature histogram:\n  Not Tampering\n",
	} {
		if _, _, err := parseScanReport(out); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseLogfmt(t *testing.T) {
	kv := parseLogfmt(`time=2026-10-17T07:10:40.582Z level=INFO msg="push summary" run_id=aa3c8a8e2b11168f pop=pop0 delivered=1 retries=0 spilled=0 resumed=0 failed=0`)
	for k, want := range map[string]string{"msg": "push summary", "pop": "pop0", "delivered": "1", "failed": "0", "level": "INFO"} {
		if kv[k] != want {
			t.Errorf("%s = %q, want %q", k, kv[k], want)
		}
	}
	kv = parseLogfmt(`msg="a \"quoted\" value" k=v`)
	if kv["msg"] != `a "quoted" value` || kv["k"] != "v" {
		t.Errorf("escaped quotes: %v", kv)
	}
	if kv := parseLogfmt(`msg="unterminated k=v`); kv["k"] != "" {
		t.Errorf("a malformed quote must end the line, got %v", kv)
	}
}

func TestCheckPushSummary(t *testing.T) {
	ok := "time=x level=INFO msg=serving\ntime=x level=INFO msg=\"push summary\" run_id=1 pop=pop0 delivered=1 retries=2 spilled=0 resumed=0 failed=0\n"
	if err := checkPushSummary(ok); err != nil {
		t.Errorf("good summary: %v", err)
	}
	for name, stderr := range map[string]string{
		"missing":   "time=x level=INFO msg=serving\n",
		"spilled":   `msg="push summary" delivered=0 retries=9 spilled=1 resumed=0 failed=0`,
		"failed":    `msg="push summary" delivered=0 retries=9 spilled=0 resumed=0 failed=1`,
		"malformed": `msg="push summary" delivered=one spilled=0 failed=0`,
	} {
		if err := checkPushSummary(stderr); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseShutdown(t *testing.T) {
	lines := []string{
		`time=x level=INFO msg=serving run_id=7 addr=127.0.0.1:42297 push=http://127.0.0.1:42297/v1/push`,
		`time=x level=INFO msg="shut down" run_id=7 accepted=4 duplicates=1 late_merged=0 late_dropped=0 rejected=2`,
	}
	st, err := parseShutdown(lines)
	if err != nil {
		t.Fatal(err)
	}
	if st != (mergeStats{accepted: 4, duplicates: 1, rejected: 2}) {
		t.Errorf("stats = %+v", st)
	}
	if _, err := parseShutdown(lines[:1]); err == nil {
		t.Error("missing shutdown line accepted")
	}
	if _, err := parseShutdown([]string{`msg="shut down" accepted=x duplicates=0 rejected=0`}); err == nil {
		t.Error("non-numeric field accepted")
	}
}

func TestNormalizePaperbench(t *testing.T) {
	a := "# dataset: 11998 connections, 336 scenario-hours, one-pass aggregation in 550ms\n== table1 ==\nConnections analyzed: 11998 in 5s\n# robustness: 2400 benign connections per grade, 311ms\n"
	b := "# dataset: 11998 connections, 336 scenario-hours, one-pass aggregation in 1.25s\n== table1 ==\nConnections analyzed: 11998 in 5s\n# robustness: 2400 benign connections per grade, 97.5ms\n"
	if normalizePaperbench(a) != normalizePaperbench(b) {
		t.Errorf("timings not blanked:\n%s\n%s", normalizePaperbench(a), normalizePaperbench(b))
	}
	if got := normalizePaperbench(a); !strings.Contains(got, "11998 connections") || !strings.Contains(got, "in 5s") {
		t.Errorf("normalization touched counts or non-comment lines: %q", got)
	}
	c := strings.Replace(b, "11998 connections,", "11997 connections,", 1)
	if normalizePaperbench(a) == normalizePaperbench(c) {
		t.Error("a changed count compared equal")
	}
	if n, err := paperbenchRecords(a); err != nil || n != 11998 {
		t.Errorf("paperbenchRecords = %d, %v", n, err)
	}
	if _, err := paperbenchRecords("== table1 ==\n"); err == nil {
		t.Error("missing dataset line accepted")
	}
}
