// Command benchjson turns `go test -bench BenchmarkStreamPipeline`
// output into the machine-readable perf trajectory BENCH_pipeline.json
// (see EXPERIMENTS.md's Performance section for the schema and the
// recorded before/after numbers). It reads bench output on stdin —
// typically several -count runs — and writes, per workers×batch cell,
// the median of each custom metric the benchmark reports: conns/sec,
// ns/record, B/record, allocs/record. BenchmarkGeoLookup lines, when
// present, additionally record the geo range-cache delta as a
// geo_lookup section (uncached vs cached ns/op and their ratio);
// BenchmarkDecodeParallel and BenchmarkShardedIngest lines record the
// decode_parallel and sharded_ingest grids with their scaling ratios;
// BenchmarkScenarioSimulation lines record the per-connection cost of
// the packet-level simulator as scenario_simulation.
//
// Usage:
//
//	go test -run '^$' -bench StreamPipeline -count 5 . | benchjson -o BENCH_pipeline.json
//	benchjson -validate BENCH_pipeline.json
//
// -validate re-reads a previously written file and exits non-zero
// unless it is well-formed and covers at least one cell with positive
// throughput; scripts/check.sh uses it as the smoke gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Workers         int     `json:"workers"`
	Batch           int     `json:"batch"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	NsPerRecord     float64 `json:"ns_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// geoLookup records the per-record source-address resolution delta:
// raw binary search vs the per-worker range cache the streaming
// aggregators put in front of it (BenchmarkGeoLookup).
type geoLookup struct {
	UncachedNsPerOp float64 `json:"uncached_ns_per_op"`
	CachedNsPerOp   float64 `json:"cached_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

// telemetryCell is one mode of BenchmarkStreamTelemetryOverhead in the
// same per-record units the workers×batch cells use.
type telemetryCell struct {
	RecordsPerSec   float64 `json:"records_per_sec"`
	NsPerRecord     float64 `json:"ns_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// telemetryOverhead records what an observability subsystem costs on
// the streaming hot path: the identical run with instruments detached
// vs attached. throughput_ratio is on/off (1.0 = free; the contract
// in EXPERIMENTS.md is >= 0.95); extra_allocs_per_record must stay
// ~0. The same shape records both the telemetry and the tracing
// (BenchmarkStreamTraceOverhead) deltas.
type telemetryOverhead struct {
	Off                  telemetryCell `json:"off"`
	On                   telemetryCell `json:"on"`
	ThroughputRatio      float64       `json:"throughput_ratio"`
	ExtraAllocsPerRecord float64       `json:"extra_allocs_per_record"`
}

// decodeParallelCell is one path×workers cell of
// BenchmarkDecodeParallel: path "scan" is the scanner + decode-in-
// worker front end (Stream's default), path "seq" the single-goroutine
// decode source it replaced.
type decodeParallelCell struct {
	Path            string  `json:"path"`
	Workers         int     `json:"workers"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	NsPerRecord     float64 `json:"ns_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// decodeParallel summarizes the decode-parallel grid. ScalingX is
// scan-path workers=16 throughput over workers=1 (the scaling gate's
// metric — meaningful only on multi-core hosts, so NumCPU is recorded
// beside it); SpeedupAt1 is scan/seq at workers=1, the work-placement
// win that shows even on one core.
type decodeParallel struct {
	NumCPU     int                  `json:"num_cpu"`
	Cells      []decodeParallelCell `json:"cells"`
	ScalingX   float64              `json:"scan_workers16_over_1"`
	SpeedupAt1 float64              `json:"scan_over_seq_workers1"`
}

// shardedIngestCell is one cell of BenchmarkShardedIngest: path "scan"
// is the single-scanner Stream baseline at 1 worker (shards recorded
// as 1), path "sharded" the segment-index multi-reader ShardedScan at
// the given shard count with the worker pool sized to match.
type shardedIngestCell struct {
	Path            string  `json:"path"`
	Shards          int     `json:"shards"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	NsPerRecord     float64 `json:"ns_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// shardedIngest summarizes the sharded-ingest grid. Shards8Over1 is
// sharded throughput at 8 shards over 1 shard (the scaling gate's
// metric, meaningful only with cores to spread over, so NumCPU is
// recorded beside it); Shards1OverScan is sharded-at-1 over the scan
// baseline — the cost of the segment indirection itself, which must
// stay ~1.0 even on a single-core host.
type shardedIngest struct {
	NumCPU          int                 `json:"num_cpu"`
	Cells           []shardedIngestCell `json:"cells"`
	Shards8Over1    float64             `json:"shards8_over_1"`
	Shards1OverScan float64             `json:"shards1_over_scan"`
}

// longitudinalGenCell is one preset×hours cell of
// BenchmarkLongitudinalGen: the virtual-time generator end to end
// (arrival expansion, packet simulation, TDCAP encode) over a long
// scenario window.
type longitudinalGenCell struct {
	Preset             string  `json:"preset"`
	Hours              int     `json:"hours"`
	ConnsPerSec        float64 `json:"conns_per_sec"`
	NsPerRecord        float64 `json:"ns_per_record"`
	VirtualHoursPerSec float64 `json:"virtual_hours_per_sec"`
}

// longitudinalGen summarizes the generator grid. The validator
// enforces the paper-scale contract on the recorded numbers: any
// >=336-hour cell must sustain enough virtual-hours/sec to generate a
// 14-day window in under a minute.
type longitudinalGen struct {
	Cells []longitudinalGenCell `json:"cells"`
}

// scenarioSimulation is BenchmarkScenarioSimulation: one connection
// simulated end to end (endpoints, censor, path, capture) on a warmed
// workload.Simulator, per connection.
type scenarioSimulation struct {
	NsPerConn     float64 `json:"ns_per_conn"`
	BytesPerConn  float64 `json:"bytes_per_conn"`
	AllocsPerConn float64 `json:"allocs_per_conn"`
}

// simulateAllocsGate caps scenario_simulation's allocs_per_conn. It is
// the bound of workload's TestSimulateSteadyStateAllocs: a warmed
// simulator allocates ~8 times per connection, the simulator before
// the per-worker arena ~125.
const simulateAllocsGate = 12

type report struct {
	Benchmark       string              `json:"benchmark"`
	GoVersion       string              `json:"go_version"`
	CPU             string              `json:"cpu,omitempty"`
	Runs            int                 `json:"runs"`
	Results         []result            `json:"results"`
	GeoLookup       *geoLookup          `json:"geo_lookup,omitempty"`
	Telemetry       *telemetryOverhead  `json:"stream_telemetry_overhead,omitempty"`
	TraceOverhead   *telemetryOverhead  `json:"stream_trace_overhead,omitempty"`
	DecodeParallel  *decodeParallel     `json:"decode_parallel,omitempty"`
	ShardedIngest   *shardedIngest      `json:"sharded_ingest,omitempty"`
	LongitudinalGen *longitudinalGen    `json:"longitudinal_gen,omitempty"`
	Simulation      *scenarioSimulation `json:"scenario_simulation,omitempty"`
}

var (
	nameRe      = regexp.MustCompile(`^BenchmarkStreamPipeline/workers=(\d+)/batch=(\d+)(?:-\d+)?$`)
	geoRe       = regexp.MustCompile(`^BenchmarkGeoLookup/mode=(cached|uncached)(?:-\d+)?$`)
	telemetryRe = regexp.MustCompile(`^BenchmarkStreamTelemetryOverhead/telemetry=(on|off)(?:-\d+)?$`)
	traceRe     = regexp.MustCompile(`^BenchmarkStreamTraceOverhead/trace=(on|off)(?:-\d+)?$`)
	decodeRe    = regexp.MustCompile(`^BenchmarkDecodeParallel/path=(scan|seq)/workers=(\d+)(?:-\d+)?$`)
	shardedRe   = regexp.MustCompile(`^BenchmarkShardedIngest/path=(scan|sharded)/(?:workers|shards)=(\d+)(?:-\d+)?$`)
	longGenRe   = regexp.MustCompile(`^BenchmarkLongitudinalGen/preset=([A-Za-z0-9_-]+)/hours=(\d+)(?:-\d+)?$`)
	simRe       = regexp.MustCompile(`^BenchmarkScenarioSimulation(?:-\d+)?$`)
)

func main() {
	out := flag.String("o", "BENCH_pipeline.json", "output JSON path")
	validate := flag.String("validate", "", "validate an existing JSON file instead of aggregating")
	flag.Parse()

	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid\n", *validate)
		return
	}

	rep, err := aggregate(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

type cell struct{ workers, batch int }

func aggregate(src *os.File) (*report, error) {
	samples := map[cell]map[string][]float64{}
	geoSamples := map[string][]float64{}
	telSamples := map[string]map[string][]float64{}
	trSamples := map[string]map[string][]float64{}
	type dpCell struct {
		path    string
		workers int
	}
	dpSamples := map[dpCell]map[string][]float64{}
	type siCell struct {
		path   string
		shards int
	}
	siSamples := map[siCell]map[string][]float64{}
	type lgCell struct {
		preset string
		hours  int
	}
	lgSamples := map[lgCell]map[string][]float64{}
	simSamples := map[string][]float64{}
	rep := &report{Benchmark: "BenchmarkStreamPipeline", GoVersion: runtime.Version()}
	runs := 0
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			rep.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		if g := geoRe.FindStringSubmatch(fields[0]); g != nil {
			// Geo lines carry the standard ns/op pair right after the
			// iteration count.
			for i := 2; i+1 < len(fields); i += 2 {
				if fields[i+1] != "ns/op" {
					continue
				}
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					geoSamples[g[1]] = append(geoSamples[g[1]], v)
				}
			}
			continue
		}
		if tm := telemetryRe.FindStringSubmatch(fields[0]); tm != nil {
			if telSamples[tm[1]] == nil {
				telSamples[tm[1]] = map[string][]float64{}
			}
			for i := 2; i+1 < len(fields); i += 2 {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					telSamples[tm[1]][fields[i+1]] = append(telSamples[tm[1]][fields[i+1]], v)
				}
			}
			continue
		}
		if tm := traceRe.FindStringSubmatch(fields[0]); tm != nil {
			if trSamples[tm[1]] == nil {
				trSamples[tm[1]] = map[string][]float64{}
			}
			for i := 2; i+1 < len(fields); i += 2 {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					trSamples[tm[1]][fields[i+1]] = append(trSamples[tm[1]][fields[i+1]], v)
				}
			}
			continue
		}
		if dm := decodeRe.FindStringSubmatch(fields[0]); dm != nil {
			w, _ := strconv.Atoi(dm[2])
			c := dpCell{dm[1], w}
			if dpSamples[c] == nil {
				dpSamples[c] = map[string][]float64{}
			}
			for i := 2; i+1 < len(fields); i += 2 {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					dpSamples[c][fields[i+1]] = append(dpSamples[c][fields[i+1]], v)
				}
			}
			continue
		}
		if sm := shardedRe.FindStringSubmatch(fields[0]); sm != nil {
			// The scan baseline's "workers=1" suffix lands in the same
			// capture group as a shard count; record it as shards=1.
			n, _ := strconv.Atoi(sm[2])
			c := siCell{sm[1], n}
			if siSamples[c] == nil {
				siSamples[c] = map[string][]float64{}
			}
			for i := 2; i+1 < len(fields); i += 2 {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					siSamples[c][fields[i+1]] = append(siSamples[c][fields[i+1]], v)
				}
			}
			continue
		}
		if lg := longGenRe.FindStringSubmatch(fields[0]); lg != nil {
			h, _ := strconv.Atoi(lg[2])
			c := lgCell{lg[1], h}
			if lgSamples[c] == nil {
				lgSamples[c] = map[string][]float64{}
			}
			for i := 2; i+1 < len(fields); i += 2 {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					lgSamples[c][fields[i+1]] = append(lgSamples[c][fields[i+1]], v)
				}
			}
			continue
		}
		if simRe.MatchString(fields[0]) {
			for i := 2; i+1 < len(fields); i += 2 {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					simSamples[fields[i+1]] = append(simSamples[fields[i+1]], v)
				}
			}
			continue
		}
		m := nameRe.FindStringSubmatch(fields[0])
		if m == nil {
			continue
		}
		workers, _ := strconv.Atoi(m[1])
		batch, _ := strconv.Atoi(m[2])
		c := cell{workers, batch}
		if samples[c] == nil {
			samples[c] = map[string][]float64{}
		}
		// After the name and iteration count, bench lines are
		// value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			samples[c][fields[i+1]] = append(samples[c][fields[i+1]], v)
		}
		if n := len(samples[c]["conns/sec"]); n > runs {
			runs = n
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no BenchmarkStreamPipeline lines on stdin")
	}
	rep.Runs = runs
	for c, units := range samples {
		rep.Results = append(rep.Results, result{
			Workers:         c.workers,
			Batch:           c.batch,
			RecordsPerSec:   median(units["conns/sec"]),
			NsPerRecord:     median(units["ns/record"]),
			BytesPerRecord:  median(units["B/record"]),
			AllocsPerRecord: median(units["allocs/record"]),
		})
	}
	sort.Slice(rep.Results, func(i, j int) bool {
		a, b := rep.Results[i], rep.Results[j]
		if a.Workers != b.Workers {
			return a.Workers < b.Workers
		}
		return a.Batch < b.Batch
	})
	if u, c := median(geoSamples["uncached"]), median(geoSamples["cached"]); u > 0 && c > 0 {
		rep.GeoLookup = &geoLookup{UncachedNsPerOp: u, CachedNsPerOp: c, Speedup: u / c}
	}
	telCell := func(mode string) telemetryCell {
		units := telSamples[mode]
		return telemetryCell{
			RecordsPerSec:   median(units["conns/sec"]),
			NsPerRecord:     median(units["ns/record"]),
			BytesPerRecord:  median(units["B/record"]),
			AllocsPerRecord: median(units["allocs/record"]),
		}
	}
	if off, on := telCell("off"), telCell("on"); off.RecordsPerSec > 0 && on.RecordsPerSec > 0 {
		rep.Telemetry = &telemetryOverhead{
			Off:                  off,
			On:                   on,
			ThroughputRatio:      on.RecordsPerSec / off.RecordsPerSec,
			ExtraAllocsPerRecord: on.AllocsPerRecord - off.AllocsPerRecord,
		}
	}
	trCell := func(mode string) telemetryCell {
		units := trSamples[mode]
		return telemetryCell{
			RecordsPerSec:   median(units["conns/sec"]),
			NsPerRecord:     median(units["ns/record"]),
			BytesPerRecord:  median(units["B/record"]),
			AllocsPerRecord: median(units["allocs/record"]),
		}
	}
	if off, on := trCell("off"), trCell("on"); off.RecordsPerSec > 0 && on.RecordsPerSec > 0 {
		rep.TraceOverhead = &telemetryOverhead{
			Off:                  off,
			On:                   on,
			ThroughputRatio:      on.RecordsPerSec / off.RecordsPerSec,
			ExtraAllocsPerRecord: on.AllocsPerRecord - off.AllocsPerRecord,
		}
	}
	if len(dpSamples) > 0 {
		dp := &decodeParallel{NumCPU: runtime.NumCPU()}
		for c, units := range dpSamples {
			dp.Cells = append(dp.Cells, decodeParallelCell{
				Path:            c.path,
				Workers:         c.workers,
				RecordsPerSec:   median(units["conns/sec"]),
				NsPerRecord:     median(units["ns/record"]),
				BytesPerRecord:  median(units["B/record"]),
				AllocsPerRecord: median(units["allocs/record"]),
			})
		}
		sort.Slice(dp.Cells, func(i, j int) bool {
			a, b := dp.Cells[i], dp.Cells[j]
			if a.Path != b.Path {
				return a.Path < b.Path // scan before seq
			}
			return a.Workers < b.Workers
		})
		at := func(path string, workers int) float64 {
			for _, c := range dp.Cells {
				if c.Path == path && c.Workers == workers {
					return c.RecordsPerSec
				}
			}
			return 0
		}
		if one := at("scan", 1); one > 0 {
			dp.ScalingX = at("scan", 16) / one
			if seq := at("seq", 1); seq > 0 {
				dp.SpeedupAt1 = one / seq
			}
		}
		rep.DecodeParallel = dp
	}
	if len(siSamples) > 0 {
		si := &shardedIngest{NumCPU: runtime.NumCPU()}
		for c, units := range siSamples {
			si.Cells = append(si.Cells, shardedIngestCell{
				Path:            c.path,
				Shards:          c.shards,
				RecordsPerSec:   median(units["conns/sec"]),
				NsPerRecord:     median(units["ns/record"]),
				BytesPerRecord:  median(units["B/record"]),
				AllocsPerRecord: median(units["allocs/record"]),
			})
		}
		sort.Slice(si.Cells, func(i, j int) bool {
			a, b := si.Cells[i], si.Cells[j]
			if a.Path != b.Path {
				return a.Path < b.Path // scan before sharded
			}
			return a.Shards < b.Shards
		})
		at := func(path string, shards int) float64 {
			for _, c := range si.Cells {
				if c.Path == path && c.Shards == shards {
					return c.RecordsPerSec
				}
			}
			return 0
		}
		if one := at("sharded", 1); one > 0 {
			si.Shards8Over1 = at("sharded", 8) / one
			if scan := at("scan", 1); scan > 0 {
				si.Shards1OverScan = one / scan
			}
		}
		rep.ShardedIngest = si
	}
	if len(lgSamples) > 0 {
		lg := &longitudinalGen{}
		for c, units := range lgSamples {
			lg.Cells = append(lg.Cells, longitudinalGenCell{
				Preset:             c.preset,
				Hours:              c.hours,
				ConnsPerSec:        median(units["conns/sec"]),
				NsPerRecord:        median(units["ns/record"]),
				VirtualHoursPerSec: median(units["virtual-hours/sec"]),
			})
		}
		sort.Slice(lg.Cells, func(i, j int) bool {
			a, b := lg.Cells[i], lg.Cells[j]
			if a.Preset != b.Preset {
				return a.Preset < b.Preset
			}
			return a.Hours < b.Hours
		})
		rep.LongitudinalGen = lg
	}
	if len(simSamples["ns/op"]) > 0 {
		rep.Simulation = &scenarioSimulation{
			NsPerConn:     median(simSamples["ns/op"]),
			BytesPerConn:  median(simSamples["B/op"]),
			AllocsPerConn: median(simSamples["allocs/op"]),
		}
	}
	return rep, nil
}

// median is the benchstat-style robust aggregate: the middle sample
// (or midpoint of the middle two), so a single noisy run cannot skew
// the recorded trajectory.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func validateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Benchmark == "" || rep.Runs < 1 || len(rep.Results) == 0 {
		return fmt.Errorf("%s: missing benchmark name, runs, or results", path)
	}
	for _, r := range rep.Results {
		if r.Workers < 1 || r.Batch < 1 {
			return fmt.Errorf("%s: result with invalid workers=%d batch=%d", path, r.Workers, r.Batch)
		}
		if r.RecordsPerSec <= 0 || r.NsPerRecord <= 0 {
			return fmt.Errorf("%s: workers=%d batch=%d has non-positive throughput", path, r.Workers, r.Batch)
		}
		if r.AllocsPerRecord < 0 || r.BytesPerRecord < 0 {
			return fmt.Errorf("%s: workers=%d batch=%d has negative allocation metrics", path, r.Workers, r.Batch)
		}
	}
	if g := rep.GeoLookup; g != nil {
		if g.UncachedNsPerOp <= 0 || g.CachedNsPerOp <= 0 || g.Speedup <= 0 {
			return fmt.Errorf("%s: geo_lookup has non-positive timings", path)
		}
	}
	if t := rep.Telemetry; t != nil {
		if t.Off.RecordsPerSec <= 0 || t.On.RecordsPerSec <= 0 || t.ThroughputRatio <= 0 {
			return fmt.Errorf("%s: stream_telemetry_overhead has non-positive throughput", path)
		}
	}
	if t := rep.TraceOverhead; t != nil {
		if t.Off.RecordsPerSec <= 0 || t.On.RecordsPerSec <= 0 || t.ThroughputRatio <= 0 {
			return fmt.Errorf("%s: stream_trace_overhead has non-positive throughput", path)
		}
		// The tracing hot-path contract: batch spans into lock-free
		// rings cost <=5% throughput and no per-record allocations.
		// Only enforced with enough runs for the median to hold.
		if rep.Runs >= 3 && t.ThroughputRatio < 0.95 {
			return fmt.Errorf("%s: stream_trace_overhead throughput ratio %.3f (gate requires >= 0.95)", path, t.ThroughputRatio)
		}
		if rep.Runs >= 3 && t.ExtraAllocsPerRecord > 0.05 {
			return fmt.Errorf("%s: stream_trace_overhead adds %.3f allocs/record (gate requires ~0)", path, t.ExtraAllocsPerRecord)
		}
	}
	if d := rep.DecodeParallel; d != nil {
		if len(d.Cells) == 0 || d.NumCPU < 1 {
			return fmt.Errorf("%s: decode_parallel is empty", path)
		}
		for _, c := range d.Cells {
			if (c.Path != "scan" && c.Path != "seq") || c.Workers < 1 || c.RecordsPerSec <= 0 {
				return fmt.Errorf("%s: decode_parallel cell path=%q workers=%d invalid", path, c.Path, c.Workers)
			}
		}
		// The scaling contract is enforced where the hardware can show
		// it; on a multi-core recording host a regressed ratio is a
		// stale or broken recording.
		if d.NumCPU >= 4 && d.ScalingX > 0 && d.ScalingX < 2 {
			return fmt.Errorf("%s: decode_parallel scan workers=16 is only %.2fx workers=1 on a %d-CPU host (gate requires >=2x)",
				path, d.ScalingX, d.NumCPU)
		}
	}
	if s := rep.ShardedIngest; s != nil {
		if len(s.Cells) == 0 || s.NumCPU < 1 {
			return fmt.Errorf("%s: sharded_ingest is empty", path)
		}
		for _, c := range s.Cells {
			if (c.Path != "scan" && c.Path != "sharded") || c.Shards < 1 || c.RecordsPerSec <= 0 {
				return fmt.Errorf("%s: sharded_ingest cell path=%q shards=%d invalid", path, c.Path, c.Shards)
			}
		}
		// Multi-core recording hosts must show the shard scaling the
		// feature exists for; a lower ratio is a stale or broken
		// recording.
		if s.NumCPU >= 4 && s.Shards8Over1 > 0 && s.Shards8Over1 < 2 {
			return fmt.Errorf("%s: sharded_ingest shards=8 is only %.2fx shards=1 on a %d-CPU host (gate requires >=2x)",
				path, s.Shards8Over1, s.NumCPU)
		}
		// On a single-core host sharding cannot win, but the segment
		// indirection must also not cost anything real: shards=1 must
		// stay within 5% of the plain scan path. Only enforced with
		// enough runs for the median to mean something.
		if s.NumCPU == 1 && rep.Runs >= 3 && s.Shards1OverScan > 0 && s.Shards1OverScan < 0.95 {
			return fmt.Errorf("%s: sharded_ingest shards=1 runs at %.2fx the scan path on a 1-CPU host (gate requires >=0.95x)",
				path, s.Shards1OverScan)
		}
	}
	if l := rep.LongitudinalGen; l != nil {
		if len(l.Cells) == 0 {
			return fmt.Errorf("%s: longitudinal_gen is empty", path)
		}
		for _, c := range l.Cells {
			if c.Preset == "" || c.Hours < 1 || c.ConnsPerSec <= 0 || c.VirtualHoursPerSec <= 0 {
				return fmt.Errorf("%s: longitudinal_gen cell preset=%q hours=%d invalid", path, c.Preset, c.Hours)
			}
			// The acceptance contract of the virtual-time generator: a
			// 14-day window must generate in under a minute, i.e. any
			// paper-scale cell must sustain >= 336/60 virtual-hours/sec.
			if c.Hours >= 336 && c.VirtualHoursPerSec < 336.0/60 {
				return fmt.Errorf("%s: longitudinal_gen preset=%s hours=%d sustains only %.2f virtual-hours/sec (a 14-day window would exceed 60 s)",
					path, c.Preset, c.Hours, c.VirtualHoursPerSec)
			}
		}
	}
	if m := rep.Simulation; m != nil {
		if m.NsPerConn <= 0 || m.BytesPerConn < 0 || m.AllocsPerConn < 0 {
			return fmt.Errorf("%s: scenario_simulation has invalid per-connection metrics", path)
		}
		if m.AllocsPerConn > simulateAllocsGate {
			return fmt.Errorf("%s: scenario_simulation makes %.1f allocs/conn (gate requires <= %d)",
				path, m.AllocsPerConn, simulateAllocsGate)
		}
	}
	return nil
}
