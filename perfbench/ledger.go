package main

// The traced run: the workload's input replayed through the public
// call of every layer, timed from this package in batches of calls
// (never one clock read per call). Each batch is a span holding wall
// time, process CPU (every thread, so GC work the batch causes counts)
// and heap allocations; spans stay in memory and are written out when
// the run ends. Layer metrics are per-pass sums over spans, reported
// as the median over passes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/fleet"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/pcap"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/workload"
)

const (
	replayChunk    = 1024    // records per timed batch: the span granularity
	pcapChunk      = 4096    // packets per timed batch
	simulateConns  = 3000    // connections simulated per pass for workload.simulate
	replayParts    = 4       // aggregates framed per pass, one per PoP
	closureBand    = 0.15    // the ledger must close within ±15%
	maxInternCache = 1 << 14 // core's per-worker domain intern table cap
)

// ledgerPath names which layers a workload's programs run per record,
// beyond the pipeline runner that every workload takes.
type ledgerPath int

const (
	pathTDCAP      ledgerPath = iota // tamperscan on a TDCAP file
	pathPcap                         // tamperscan on a pcap
	pathFleet                        // tamperscan -push, popmerge
	pathPaperbench                   // paperbench
)

// replaySet is what a traced run feeds through the layers.
type replaySet struct {
	tdcaps     []string            // the workload's records as TDCAP
	pcap       string              // a pcap export of (part of) them
	scen       *workload.Scenario  // the generating scenario
	simSpecs   []workload.ConnSpec // its first specs, simulated each pass
	pathGeo    *geo.DB             // geo plan on the programs' path; nil for scans
	inputBytes int64               // bytes the programs under test read
	runner     func(context.Context, pipeline.Config) (pipeline.Counts, error)
	path       ledgerPath
}

// span is one timed batch of calls into a layer.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing pass span; -1 for a pass
	Start  int64  `json:"start_ns"`
	Wall   int64  `json:"wall_ns"`
	CPU    int64  `json:"cpu_ns"`
	Allocs uint64 `json:"allocs"`
	Count  int    `json:"count"` // records, packets, frames or calls in the batch
}

// recorder keeps spans in memory.
type recorder struct {
	t0     time.Time
	parent int
	spans  []span
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), parent: -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

// mark is a span's starting readings.
type mark struct {
	wall   time.Time
	cpu    int64
	allocs uint64
}

func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}

func (r *recorder) mark() mark {
	metrics.Read(r.sample)
	return mark{wall: time.Now(), cpu: processCPU(), allocs: r.sample[0].Value.Uint64()}
}

// end closes a span begun at m.
func (r *recorder) end(name string, m mark, count int) {
	cpu := processCPU()
	wall := time.Now()
	metrics.Read(r.sample)
	r.spans = append(r.spans, span{
		Name: name, Parent: r.parent, Start: m.wall.Sub(r.t0).Nanoseconds(),
		Wall: wall.Sub(m.wall).Nanoseconds(), CPU: cpu - m.cpu,
		Allocs: r.sample[0].Value.Uint64() - m.allocs, Count: count,
	})
}

// layerTotal sums one layer's spans of a pass.
type layerTotal struct {
	wall, cpu int64
	allocs    uint64
	count     int
}

func (r *recorder) totals(from int) map[string]layerTotal {
	out := map[string]layerTotal{}
	for _, s := range r.spans[from:] {
		t := out[s.Name]
		t.wall += s.Wall
		t.cpu += s.CPU
		t.allocs += s.Allocs
		t.count += s.Count
		out[s.Name] = t
	}
	return out
}

// passResult is what one replay pass measured beyond its spans.
type passResult struct {
	records, pcapPackets, sampled int
	decodeErrors                  int
	frameBytes                    int
	frames                        map[fleet.PushStatus]int
	pipeline                      pipeline.Counts
	props                         props
}

// pass replays every layer once over the workload's input.
func (rs *replaySet) pass(ctx context.Context, rec *recorder, data [][]byte, pcapData []byte) (passResult, error) {
	res := passResult{frames: map[fleet.PushStatus]int{}}
	root := rec.mark()
	rec.parent = len(rec.spans)
	rec.spans = append(rec.spans, span{Name: "replay.pass", Parent: -1})
	defer func() { rec.parent = -1 }()

	cl := core.NewClassifier(core.DefaultConfig())
	var scratch core.Scratch
	gc := geo.NewCache(rs.pathGeo)
	var parts [replayParts]analysis.Multi
	for i := range parts {
		parts[i] = analysis.NewFleetAggs()
	}
	conns := make([]capture.Connection, replayChunk)
	results := make([]core.Result, replayChunk)
	records := make([]analysis.Record, replayChunk)
	offs := make([]int, 0, replayChunk+1)
	var slab []byte
	var recBuf []capture.PacketRecord
	var srcIPs []netip.Addr
	chunkNo := 0
	for fi, file := range data {
		sc := capture.NewScanner(bytes.NewReader(file))
		for eof := false; !eof; chunkNo++ {
			m := rec.mark()
			slab, offs = slab[:0], append(offs[:0], 0)
			for len(offs) <= replayChunk {
				var err error
				slab, err = sc.Next(slab)
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					return res, fmt.Errorf("scanning %s: %w", rs.tdcaps[fi], err)
				}
				offs = append(offs, len(slab))
			}
			n := len(offs) - 1
			rec.end("capture.scan", m, n)
			if n == 0 {
				break
			}
			m = rec.mark()
			for k := 0; k < n; k++ {
				if err := capture.DecodeRecord(slab[offs[k]:offs[k+1]], &conns[k]); err != nil {
					res.decodeErrors++
				}
			}
			rec.end("capture.decode", m, n)
			m = rec.mark()
			for k := 0; k < n; k++ {
				recBuf = capture.ReconstructInto(&conns[k], recBuf)
			}
			rec.end("capture.reconstruct", m, n)
			m = rec.mark()
			for k := 0; k < n; k++ {
				results[k] = cl.ClassifyWith(&conns[k], &scratch)
			}
			rec.end("core.classify", m, n)
			m = rec.mark()
			for k := 0; k < n; k++ {
				records[k] = analysis.NewRecord(&conns[k], gc, results[k])
			}
			rec.end("analysis.record", m, n)
			// Several files are the PoPs' partitions; one file is dealt
			// to the PoP aggregates chunk by chunk.
			part := parts[chunkNo%replayParts]
			if len(data) > 1 {
				part = parts[fi%replayParts]
			}
			m = rec.mark()
			for k := 0; k < n; k++ {
				part.Add(&records[k])
			}
			rec.end("analysis.fleet_add", m, n)
			for k := 0; k < n; k++ {
				res.props.add(&conns[k], results[k])
				srcIPs = append(srcIPs, conns[k].SrcIP)
			}
			res.records += n
		}
	}
	if err := rs.frames(rec, parts[:], &res); err != nil {
		return res, err
	}
	if err := replayPcap(rec, pcapData, &res); err != nil {
		return res, err
	}

	lookup := geo.NewCache(rs.scen.Geo)
	m := rec.mark()
	for _, ip := range srcIPs {
		lookup.Lookup(ip)
	}
	rec.end("geo.lookup", m, len(srcIPs))

	specs := rs.simSpecs
	m = rec.mark()
	sim := rs.scen.StreamSpecs(specs, 1)
	for {
		if _, err := sim.Next(); err != nil {
			break
		}
	}
	sim.Close()
	rec.end("workload.simulate", m, len(specs))

	w := runtime.GOMAXPROCS(0)
	m = rec.mark()
	counts, err := rs.runner(ctx, pipeline.Config{Workers: w, Ordered: rs.path != pathPaperbench})
	if err != nil {
		return res, fmt.Errorf("pipeline runner: %w", err)
	}
	rec.end("pipeline.run", m, int(counts.Delivered))
	res.pipeline = counts

	rec.spans[rec.parent] = span{Name: "replay.pass", Parent: -1,
		Start: root.wall.Sub(rec.t0).Nanoseconds(), Wall: time.Since(root.wall).Nanoseconds(),
		CPU: processCPU() - root.cpu, Count: res.records}
	return res, nil
}

// frames encodes each PoP aggregate as a snapshot frame, decodes and
// ingests it into a merger, renders the merged report, and checks it
// against a direct merge of the same aggregates.
func (rs *replaySet) frames(rec *recorder, parts []analysis.Multi, res *passResult) error {
	merger, err := fleet.NewMerger(fleet.MergerConfig{Fresh: analysis.NewFleetAggs})
	if err != nil {
		return err
	}
	for i, agg := range parts {
		m := rec.mark()
		frame, err := fleet.EncodeSnapshot(fmt.Sprintf("pop%d", i), uint64(i+1), 0, agg, pipeline.Counts{})
		rec.end("fleet.encode", m, 1)
		if err != nil {
			return err
		}
		res.frameBytes += len(frame)
		m = rec.mark()
		env, err := fleet.DecodeEnvelope(frame)
		rec.end("fleet.decode", m, 1)
		if err != nil {
			return err
		}
		m = rec.mark()
		st, err := merger.Ingest(env)
		rec.end("fleet.ingest", m, 1)
		if err != nil {
			res.frames["rejected"]++
			continue
		}
		res.frames[st]++
	}
	m := rec.mark()
	body := merger.ReportBody()
	rec.end("fleet.report", m, 1)
	total := analysis.NewFleetAggs()
	m = rec.mark()
	for _, agg := range parts {
		if err := total.Merge(agg); err != nil {
			return err
		}
	}
	rec.end("analysis.merge", m, len(parts))
	m = rec.mark()
	want := analysis.RenderFleetReport(total)
	rec.end("analysis.render", m, 1)
	if body != want {
		return fmt.Errorf("merger report differs from the direct merge of the same aggregates")
	}
	return nil
}

// replayPcap reads the pcap in batches and feeds each batch to the
// sampler the way tamperscan's pcap source does.
func replayPcap(rec *recorder, data []byte, res *passResult) error {
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	sw := newSweeper()
	pkts := make([]pcap.Packet, 0, pcapChunk)
	for eof := false; !eof; {
		m := rec.mark()
		pkts = pkts[:0]
		for len(pkts) < pcapChunk {
			p, err := pr.Read()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			pkts = append(pkts, p)
		}
		rec.end("pcap.read", m, len(pkts))
		res.pcapPackets += len(pkts)
		m = rec.mark()
		for _, p := range pkts {
			res.sampled += len(sw.feed(p))
		}
		if eof {
			res.sampled += len(sw.drain())
		}
		rec.end("capture.sampler", m, len(pkts))
	}
	return nil
}

// runTraced measures the workload end to end for a third of the run,
// as the ledger's base, then replays its input through every layer
// for the rest and reports the per-layer metrics.
func runTraced(ctx context.Context, e *env, setup setupFunc, d time.Duration, root string) (result, error) {
	j, err := setup(ctx, e, true)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if err := quiesce(append(append([]string{}, j.inputs...), j.replay.pcap)); err != nil {
		return result{}, err
	}
	fmt.Println(j.about)
	its, err := closedLoop(ctx, j, d/3)
	if err != nil {
		return result{}, err
	}
	base := summarize(its)

	rs := j.replay
	data := make([][]byte, len(rs.tdcaps))
	for i, p := range rs.tdcaps {
		if data[i], err = os.ReadFile(p); err != nil {
			return result{}, err
		}
	}
	pcapData, err := os.ReadFile(rs.pcap)
	if err != nil {
		return result{}, err
	}
	if rs.simSpecs = rs.scen.SpecsSharded(0); len(rs.simSpecs) > simulateConns {
		rs.simSpecs = rs.simSpecs[:simulateConns]
	}
	rec := newRecorder()
	series := map[string][]float64{}
	var last passResult
	deadline := time.Now().Add(d - d/3)
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		from := len(rec.spans)
		pr, err := rs.pass(ctx, rec, data, pcapData)
		if err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
		for k, v := range rs.layerMetrics(rec.totals(from), pr) {
			series[k] = append(series[k], v)
		}
		last = pr
	}

	ms := map[string]metric{}
	for k, vs := range series {
		ms[k] = metric{median(vs), layerUnits[k]}
	}
	p := last.props
	n := float64(p.records)
	inputRecs := float64(j.records)
	ms["workload.records"] = metric{inputRecs, "count"}
	ms["workload.bytes_per_rec"] = metric{float64(rs.inputBytes) / inputRecs, "B"}
	if rs.path == pathPcap {
		ms["workload.packets_per_rec"] = metric{float64(last.pcapPackets) / float64(last.sampled), "count"}
	} else {
		ms["workload.packets_per_rec"] = metric{float64(p.packets) / n, "count"}
	}
	ms["core.tampered_share"] = metric{float64(p.possibly) / n, "ratio"}
	ms["workload.ipv6_share"] = metric{float64(p.ipv6) / n, "ratio"}
	ms["workload.domain_share"] = metric{float64(p.withDomain) / n, "ratio"}
	ms["workload.distinct_domains"] = metric{float64(len(p.domains)), "count"}
	ms["workload.domains_per_intern_cap"] = metric{float64(len(p.domains)) / maxInternCache, "ratio"}
	ms["capture.decode_errors"] = metric{float64(last.decodeErrors), "count"}
	ms["fleet.frames_accepted"] = metric{float64(last.frames[fleet.StatusAccepted]), "count"}
	ms["fleet.frames_duplicated"] = metric{float64(last.frames[fleet.StatusDuplicate]), "count"}
	ms["fleet.frames_rejected"] = metric{float64(last.frames["rejected"]), "count"}
	ms["pipeline.records_in"] = metric{float64(last.pipeline.Decoded), "count"}
	ms["pipeline.records_out"] = metric{float64(last.pipeline.Delivered), "count"}

	layerUs := ms["ledger.layer_cpu_us_per_rec"].Value
	closure := layerUs / base.cpuUsPerRec
	ms["ledger.e2e_cpu_us_per_rec"] = metric{base.cpuUsPerRec, "us"}
	ms["ledger.residual_us_per_rec"] = metric{base.cpuUsPerRec - layerUs, "us"}
	ms["ledger.closure_ratio"] = metric{closure, "ratio"}
	flag := "within"
	if closure < 1-closureBand || closure > 1+closureBand {
		flag = "FLAG: outside"
	}
	msg := fmt.Sprintf("# ledger: closure_ratio=%.3f (%s ±%.0f%%) layers=%.3fus e2e=%.3fus per record",
		closure, flag, closureBand*100, layerUs, base.cpuUsPerRec)
	fmt.Println(msg)
	fmt.Fprintln(os.Stderr, msg)

	if err := writeSpans(root, e, rec); err != nil {
		return result{}, err
	}
	return result{Correct: base.failed == 0, Attempted: base.ops, Failed: base.failed, Metrics: ms}, nil
}

// layerUnits gives every per-pass layer metric its unit.
var layerUnits = map[string]string{
	"capture.scan_ns_per_rec":           "ns",
	"capture.decode_ns_per_rec":         "ns",
	"capture.decode_allocs_per_rec":     "count",
	"capture.reconstruct_ns_per_rec":    "ns",
	"capture.sampler_ns_per_pkt":        "ns",
	"capture.sampler_allocs_per_pkt":    "count",
	"pcap.read_ns_per_pkt":              "ns",
	"core.classify_ns_per_rec":          "ns",
	"core.classify_allocs_per_rec":      "count",
	"pipeline.cpu_ns_per_rec":           "ns",
	"pipeline.idle_share":               "ratio",
	"pipeline.allocs_per_rec":           "count",
	"pipeline.overhead_ns_per_rec":      "ns",
	"analysis.record_ns_per_rec":        "ns",
	"analysis.fleet_add_ns_per_rec":     "ns",
	"analysis.fleet_add_allocs_per_rec": "count",
	"analysis.merge_ms":                 "ms",
	"analysis.render_ms":                "ms",
	"fleet.encode_ms_per_frame":         "ms",
	"fleet.frame_kb":                    "KiB",
	"fleet.decode_ms_per_frame":         "ms",
	"fleet.ingest_ms_per_frame":         "ms",
	"fleet.report_ms":                   "ms",
	"geo.lookup_ns":                     "ns",
	"workload.simulate_us_per_conn":     "us",
	"workload.simulate_allocs_per_conn": "count",
	"ledger.layer_cpu_us_per_rec":       "us",
}

// layerMetrics turns one pass's span totals into per-unit costs and
// sums the layers on the workload's path into the ledger.
func (rs *replaySet) layerMetrics(t map[string]layerTotal, pr passResult) map[string]float64 {
	per := func(name string) float64 { return float64(t[name].cpu) / float64(t[name].count) }
	allocs := func(name string) float64 { return float64(t[name].allocs) / float64(t[name].count) }
	ms := func(name string) float64 { return per(name) / 1e6 }

	scan, decode := per("capture.scan"), per("capture.decode")
	reconstruct, classify := per("capture.reconstruct"), per("core.classify")
	pcapRead, sampler := per("pcap.read"), per("capture.sampler")
	simulate := per("workload.simulate")
	run := t["pipeline.run"]
	pipeCPU := per("pipeline.run")
	record, add := per("analysis.record"), per("analysis.fleet_add")

	// The stages the runner itself executes, by the front end it takes.
	var stages float64
	switch rs.path {
	case pathTDCAP, pathFleet:
		stages = scan + decode + classify
	case pathPcap:
		pktsPerRec := float64(pr.pcapPackets) / float64(pr.sampled)
		stages = (pcapRead+sampler)*pktsPerRec + classify
	case pathPaperbench:
		stages = simulate + classify
	}
	// Every binary aggregates through analysis.Sharded, whose Observe
	// hook builds an analysis.Record per connection; tamperscan's own
	// report aggregator lives in package main and stays in the residual.
	recs := float64(pr.records)
	ledger := pipeCPU + record
	switch rs.path {
	case pathFleet:
		// -push builds a second record for the fleet aggregator, and
		// each PoP's frame is encoded, decoded, ingested and rendered.
		frames := float64(t["fleet.encode"].cpu + t["fleet.decode"].cpu + t["fleet.ingest"].cpu + t["fleet.report"].cpu)
		ledger += record + add + frames/recs
	case pathPaperbench:
		ledger += add + float64(t["analysis.render"].cpu)/recs
	}
	return map[string]float64{
		"capture.scan_ns_per_rec":           scan,
		"capture.decode_ns_per_rec":         decode,
		"capture.decode_allocs_per_rec":     allocs("capture.decode"),
		"capture.reconstruct_ns_per_rec":    reconstruct,
		"capture.sampler_ns_per_pkt":        sampler,
		"capture.sampler_allocs_per_pkt":    allocs("capture.sampler"),
		"pcap.read_ns_per_pkt":              pcapRead,
		"core.classify_ns_per_rec":          classify - reconstruct,
		"core.classify_allocs_per_rec":      allocs("core.classify"),
		"pipeline.cpu_ns_per_rec":           pipeCPU,
		"pipeline.idle_share":               1 - float64(run.cpu)/(float64(run.wall)*float64(runtime.GOMAXPROCS(0))),
		"pipeline.allocs_per_rec":           allocs("pipeline.run"),
		"pipeline.overhead_ns_per_rec":      pipeCPU - stages,
		"analysis.record_ns_per_rec":        record,
		"analysis.fleet_add_ns_per_rec":     add,
		"analysis.fleet_add_allocs_per_rec": allocs("analysis.fleet_add"),
		"analysis.merge_ms":                 ms("analysis.merge"),
		"analysis.render_ms":                ms("analysis.render"),
		"fleet.encode_ms_per_frame":         ms("fleet.encode"),
		"fleet.frame_kb":                    float64(pr.frameBytes) / float64(t["fleet.encode"].count) / 1024,
		"fleet.decode_ms_per_frame":         ms("fleet.decode"),
		"fleet.ingest_ms_per_frame":         ms("fleet.ingest"),
		"fleet.report_ms":                   ms("fleet.report"),
		"geo.lookup_ns":                     per("geo.lookup"),
		"workload.simulate_us_per_conn":     simulate / 1000,
		"workload.simulate_allocs_per_conn": allocs("workload.simulate"),
		"ledger.layer_cpu_us_per_rec":       ledger / 1000,
	}
}

// writeSpans saves the run's spans as JSON next to the build outputs.
func writeSpans(root string, e *env, rec *recorder) error {
	dir := filepath.Join(root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", filepath.Base(e.work), e.seed)
	b, err := json.Marshal(rec.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
