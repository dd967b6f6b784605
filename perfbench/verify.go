package main

// Output verification. Every reference is built from library calls in
// this package, never by running the binary under test — except
// paperbench, whose reference is its own -workers 1 output.

import (
	"crypto/sha256"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
)

// scanReport is the histogram part of tamperscan's report, parsed from
// its stdout, or built from a reference classification.
type scanReport struct {
	connections int
	possibly    int
	signatures  map[string]int // signature name -> connections
	stages      map[string]int // stage name -> possibly-tampered connections
}

func newScanReport() scanReport {
	return scanReport{signatures: map[string]int{}, stages: map[string]int{}}
}

// add tallies one classified connection the way tamperscan's report
// does.
func (r *scanReport) add(res core.Result) {
	r.connections++
	r.signatures[res.Signature.String()]++
	if res.PossiblyTampered {
		r.possibly++
		r.stages[res.Stage.String()]++
	}
}

// equal reports the first difference between two reports.
func (r scanReport) equal(o scanReport) error {
	if r.connections != o.connections || r.possibly != o.possibly {
		return fmt.Errorf("connections/possibly %d/%d, want %d/%d", r.connections, r.possibly, o.connections, o.possibly)
	}
	if err := equalCounts("signature", r.signatures, o.signatures); err != nil {
		return err
	}
	return equalCounts("stage", r.stages, o.stages)
}

func equalCounts(what string, got, want map[string]int) error {
	for k, n := range want {
		if n != 0 && got[k] != n {
			return fmt.Errorf("%s %q: %d, want %d", what, k, got[k], n)
		}
	}
	for k, n := range got {
		if n != want[k] {
			return fmt.Errorf("%s %q: %d, want %d", what, k, n, want[k])
		}
	}
	return nil
}

// reportRow matches one histogram or stage row: two-space indent, a
// name that may contain spaces, a count and a percentage.
var reportRow = regexp.MustCompile(`^  (.+?)\s+(\d+)\s+\d+\.\d%`)

// parseScanReport parses tamperscan's stdout. With -v the per-connection
// listing comes first; it is returned separately, so the caller can
// digest it.
func parseScanReport(out string) (rep scanReport, listing string, err error) {
	rep = newScanReport()
	i := strings.Index(out, "connections:")
	if i < 0 || (i > 0 && out[i-1] != '\n') {
		return rep, "", fmt.Errorf("no report in output")
	}
	listing = out[:i]
	section := ""
	for _, line := range strings.Split(out[i:], "\n") {
		switch {
		case strings.HasPrefix(line, "connections:"):
			if rep.connections, err = strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "connections:"))); err != nil {
				return rep, "", fmt.Errorf("connections line %q", line)
			}
		case strings.HasPrefix(line, "possibly tampered:"):
			f := strings.Fields(strings.TrimPrefix(line, "possibly tampered:"))
			if len(f) == 0 {
				return rep, "", fmt.Errorf("possibly-tampered line %q", line)
			}
			if rep.possibly, err = strconv.Atoi(f[0]); err != nil {
				return rep, "", fmt.Errorf("possibly-tampered line %q", line)
			}
		case strings.HasPrefix(line, "signature histogram:"):
			section = "sig"
		case strings.HasPrefix(line, "stage breakdown"):
			section = "stage"
		case strings.HasPrefix(line, "  "):
			m := reportRow.FindStringSubmatch(line)
			if m == nil || section == "" {
				return rep, "", fmt.Errorf("unparsable report row %q", line)
			}
			n, _ := strconv.Atoi(m[2])
			if section == "sig" {
				rep.signatures[m[1]] = n
			} else {
				rep.stages[m[1]] = n
			}
		}
	}
	return rep, listing, nil
}

// verboseLine formats one -v listing line exactly as tamperscan does.
func verboseLine(c *capture.Connection, res core.Result) string {
	domain := res.Domain
	if domain == "" {
		domain = "-"
	}
	return fmt.Sprintf("%s:%d -> :%d  %-26s %-9s proto=%s domain=%s\n",
		c.SrcIP, c.SrcPort, c.DstPort, res.Signature, res.Stage, res.Protocol, domain)
}

// digest is the listing fingerprint compared between runs.
func digest(s string) [32]byte { return sha256.Sum256([]byte(s)) }

// parseLogfmt splits one log/slog text line into its keys and values.
// Quoted values are unquoted; a malformed quote ends the line.
func parseLogfmt(line string) map[string]string {
	kv := map[string]string{}
	for line != "" {
		line = strings.TrimLeft(line, " ")
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			break
		}
		key := line[:eq]
		rest := line[eq+1:]
		var val string
		if strings.HasPrefix(rest, `"`) {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				break
			}
			val, _ = strconv.Unquote(q)
			rest = rest[len(q):]
		} else if sp := strings.IndexByte(rest, ' '); sp >= 0 {
			val, rest = rest[:sp], rest[sp:]
		} else {
			val, rest = rest, ""
		}
		kv[key] = val
		line = rest
	}
	return kv
}

// findLog returns the first line of a log whose msg is msg.
func findLog(lines []string, msg string) (map[string]string, bool) {
	for _, l := range lines {
		if kv := parseLogfmt(l); kv["msg"] == msg {
			return kv, true
		}
	}
	return nil, false
}

// logInts reads integer fields of a parsed log line.
func logInts(kv map[string]string, keys ...string) (map[string]int, error) {
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		n, err := strconv.Atoi(kv[k])
		if err != nil {
			return nil, fmt.Errorf("log field %s=%q: not an integer", k, kv[k])
		}
		out[k] = n
	}
	return out, nil
}

// checkPushSummary verifies tamperscan's "push summary" line: exactly
// one frame delivered, nothing failed or spilled.
func checkPushSummary(stderr string) error {
	kv, ok := findLog(strings.Split(stderr, "\n"), "push summary")
	if !ok {
		return fmt.Errorf("no push summary line")
	}
	n, err := logInts(kv, "delivered", "failed", "spilled")
	if err != nil {
		return err
	}
	if n["delivered"] != 1 || n["failed"] != 0 || n["spilled"] != 0 {
		return fmt.Errorf("push summary delivered=%d failed=%d spilled=%d, want 1/0/0", n["delivered"], n["failed"], n["spilled"])
	}
	return nil
}

// mergeStats is popmerge's "shut down" line.
type mergeStats struct {
	accepted, duplicates, rejected int
}

// parseShutdown reads popmerge's final merge stats from its stderr.
func parseShutdown(lines []string) (mergeStats, error) {
	kv, ok := findLog(lines, "shut down")
	if !ok {
		return mergeStats{}, fmt.Errorf("no shut down line")
	}
	n, err := logInts(kv, "accepted", "duplicates", "rejected")
	if err != nil {
		return mergeStats{}, err
	}
	return mergeStats{accepted: n["accepted"], duplicates: n["duplicates"], rejected: n["rejected"]}, nil
}

// normalizePaperbench blanks the wall-clock durations paperbench
// prints on its "#" comment lines, the only part of its output that
// may differ between runs of the same seed.
func normalizePaperbench(out string) string {
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, " ")
		for j, tok := range f {
			bare := strings.TrimRight(tok, ",;)")
			if _, err := time.ParseDuration(bare); err == nil && bare != "0" {
				f[j] = "<duration>" + tok[len(bare):]
			}
		}
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\n")
}

// paperbenchRecords reads the shared dataset size from paperbench's
// "# dataset: N connections" line.
func paperbenchRecords(out string) (int, error) {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "# dataset: "); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				if n, err := strconv.Atoi(f[0]); err == nil {
					return n, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("no dataset line")
}
