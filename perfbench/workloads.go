package main

// The four workloads. Each set-up generates its inputs from the seed
// with the library's scenario simulator, builds the references the
// iterations are checked against, and returns the closed-loop job.
// Input sizes are chosen so one iteration takes 0.2-2 s on a 2-CPU
// host and three set-ups fit next to a 10 s measurement.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/netsim"
	"tamperdetect/internal/pcap"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/workload"
)

const (
	scenarioHours   = 14 * 24 // trafficgen's and paperbench's default window
	globalRecords   = 100_000 // scan-global capture
	iranConns       = 60_000  // scan-iran-pcap connections before export
	fleetPoPs       = 4
	fleetRecords    = 60_000 // split across the PoPs
	paperbenchTotal = 12_000 // paperbench -total
)

// setupFunc generates a workload's inputs from the seed and builds its
// references; traced set-ups also prepare what the layer replay reads.
type setupFunc func(ctx context.Context, e *env, traced bool) (*job, error)

// workloads maps each workload name to its set-up. README.md gives the
// reason each one exists.
var workloads = map[string]setupFunc{
	"scan-global":    setupScanGlobal,
	"scan-iran-pcap": setupScanIranPcap,
	"fleet-push":     setupFleetPush,
	"paperbench-all": setupPaperbench,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// job is a set-up workload: the closed-loop iteration over its inputs,
// and what the traced run replays.
type job struct {
	inputs  []string // files the programs under test read
	records int      // connections in each verified result
	iterate func(ctx context.Context) iteration
	replay  *replaySet
	about   string // "# workload:" line with the input's properties
}

// writeCapture simulates specs with every CPU and writes the records as
// a TDCAP file with trafficgen's default segment-index footer.
func writeCapture(path string, s *workload.Scenario, specs []workload.ConnSpec) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := capture.NewWriter(f)
	if err := w.EnableIndex(capture.DefaultIndexInterval); err != nil {
		return 0, err
	}
	src := s.StreamSpecs(specs, 0)
	defer src.Close()
	n := 0
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(c); err != nil {
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// classifyCapture is the sequential reference pass: capture.Reader
// into the core classifier, one connection at a time.
func classifyCapture(path string, each func(*capture.Connection, core.Result)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := capture.NewReader(bufio.NewReaderSize(f, 1<<20))
	cl := core.NewClassifier(core.DefaultConfig())
	var s core.Scratch
	for {
		c, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		each(c, cl.ClassifyWith(c, &s))
	}
}

// sweeper is tamperscan's pcap sampling policy: timestamps rebased to
// the first packet, idle flows evicted every 300 s of capture time, the
// rest drained 60 s after the last packet.
type sweeper struct {
	sampler                *capture.Sampler
	first, last, lastSweep int64
}

func newSweeper() *sweeper {
	return &sweeper{sampler: capture.NewSampler(capture.DefaultConfig()), first: -1}
}

// feed samples one packet and returns the connections it evicted.
func (w *sweeper) feed(p pcap.Packet) []*capture.Connection {
	if len(p.Data) == 0 {
		return nil
	}
	if w.first < 0 {
		w.first = p.TimestampNanos
	}
	w.last = p.TimestampNanos
	at := netsim.Time(p.TimestampNanos - w.first)
	w.sampler.Inbound(at, p.Data)
	if sec := at.Unix(); sec-w.lastSweep >= 300 {
		w.lastSweep = sec
		return w.sampler.DrainIdle(at, 120)
	}
	return nil
}

// drain closes every flow still open.
func (w *sweeper) drain() []*capture.Connection {
	return w.sampler.Drain(netsim.Time(w.last - w.first).Add(60e9))
}

// samplePcap runs a pcap through the sampler as tamperscan's pcap
// source does; emit receives connections in tamperscan's decode order
// and returns false to stop early.
func samplePcap(r io.Reader, emit func([]*capture.Connection) bool) error {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return err
	}
	sw := newSweeper()
	for {
		p, err := pr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if out := sw.feed(p); len(out) > 0 && !emit(out) {
			return nil
		}
	}
	emit(sw.drain())
	return nil
}

// runTdcap2pcap exports a TDCAP capture with the real converter.
func runTdcap2pcap(ctx context.Context, e *env, in, out string) error {
	var it iteration
	if _, _, ok := it.exec(ctx, nil, e.path("tdcap2pcap.out"), e.binary("tdcap2pcap"), in, out); !ok {
		return it.err
	}
	return nil
}

// props summarizes the input properties the layers depend on.
type props struct {
	records, packets, ipv6, withDomain, possibly int
	domains                                      map[string]bool
}

func (p *props) add(c *capture.Connection, res core.Result) {
	if p.domains == nil {
		p.domains = map[string]bool{}
	}
	p.records++
	p.packets += len(c.Packets)
	if c.IPVersion == 6 {
		p.ipv6++
	}
	if res.PossiblyTampered {
		p.possibly++
	}
	if res.Domain != "" {
		p.withDomain++
		p.domains[res.Domain] = true
	}
}

// about formats the properties and the size of the input files.
func (p *props) about(inputs ...string) string {
	n := float64(p.records)
	return fmt.Sprintf("# workload: records=%d packets_per_rec=%.2f possibly_tampered=%.3f ipv6=%.3f with_domain=%.3f distinct_domains=%d bytes=%d",
		p.records, float64(p.packets)/n, float64(p.possibly)/n, float64(p.ipv6)/n, float64(p.withDomain)/n, len(p.domains), fileSizes(inputs...))
}

// fileSizes sums the sizes of paths.
func fileSizes(paths ...string) int64 {
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// checkScan runs tamperscan once and verifies its report (and, when
// wantListing is set, the digest of its -v listing).
func checkScan(ctx context.Context, e *env, it *iteration, want scanReport, wantListing *[32]byte, args ...string) {
	out, _, ok := it.exec(ctx, nil, e.path("tamperscan.out"), e.binary("tamperscan"), args...)
	if !ok {
		return
	}
	rep, listing, err := parseScanReport(string(out))
	if err == nil {
		err = rep.equal(want)
	}
	if err == nil && wantListing != nil && digest(listing) != *wantListing {
		err = fmt.Errorf("-v listing differs from the reference")
	}
	if err != nil {
		it.fail(fmt.Errorf("tamperscan %s: %w", strings.Join(args, " "), err))
		return
	}
	it.records = rep.connections
}

func setupScanGlobal(ctx context.Context, e *env, traced bool) (*job, error) {
	s, err := workload.BuildScenario("global", globalRecords, scenarioHours, e.seed)
	if err != nil {
		return nil, err
	}
	path := e.path("global.tdcap")
	if _, err := writeCapture(path, s, s.SpecsSharded(0)); err != nil {
		return nil, err
	}
	ref := newScanReport()
	var p props
	if err := classifyCapture(path, func(c *capture.Connection, res core.Result) {
		ref.add(res)
		p.add(c, res)
	}); err != nil {
		return nil, err
	}
	j := &job{
		inputs:  []string{path},
		records: ref.connections,
		iterate: func(ctx context.Context) iteration {
			var it iteration
			start := time.Now()
			checkScan(ctx, e, &it, ref, nil, path)
			it.wall = time.Since(start)
			return it
		},
		about: p.about(path),
	}
	if traced {
		pc := e.path("global.pcap")
		if err := runTdcap2pcap(ctx, e, path, pc); err != nil {
			return nil, err
		}
		j.replay = &replaySet{
			tdcaps: []string{path}, pcap: pc, scen: s, inputBytes: fileSizes(path),
			runner: shardedRunner(path),
			path:   pathTDCAP,
		}
	}
	return j, nil
}

func setupScanIranPcap(ctx context.Context, e *env, traced bool) (*job, error) {
	s, err := workload.PresetScenario("iran2022", iranConns, 0, e.seed)
	if err != nil {
		return nil, err
	}
	tdcap, pc := e.path("iran.tdcap"), e.path("iran.pcap")
	if _, err := writeCapture(tdcap, s, s.SpecsSharded(0)); err != nil {
		return nil, err
	}
	if err := runTdcap2pcap(ctx, e, tdcap, pc); err != nil {
		return nil, err
	}
	ref := newScanReport()
	var listing strings.Builder
	var p props
	cl := core.NewClassifier(core.DefaultConfig())
	var scratch core.Scratch
	f, err := os.Open(pc)
	if err != nil {
		return nil, err
	}
	err = samplePcap(bufio.NewReaderSize(f, 1<<20), func(conns []*capture.Connection) bool {
		for _, c := range conns {
			res := cl.ClassifyWith(c, &scratch)
			ref.add(res)
			p.add(c, res)
			if res.Signature.IsTampering() {
				listing.WriteString(verboseLine(c, res))
			}
		}
		return true
	})
	f.Close()
	if err != nil {
		return nil, err
	}
	wantListing := digest(listing.String())
	j := &job{
		inputs:  []string{pc},
		records: ref.connections,
		iterate: func(ctx context.Context) iteration {
			var it iteration
			start := time.Now()
			checkScan(ctx, e, &it, ref, &wantListing, "-v", "-tampered-only", pc)
			it.wall = time.Since(start)
			return it
		},
		about: p.about(pc),
	}
	if traced {
		j.replay = &replaySet{
			tdcaps: []string{tdcap}, pcap: pc, scen: s, inputBytes: fileSizes(pc),
			runner: pcapRunner(pc),
			path:   pathPcap,
		}
	}
	return j, nil
}

// fleetPart is one PoP's capture and the report its scan must print.
type fleetPart struct {
	path string
	ref  scanReport
}

func setupFleetPush(ctx context.Context, e *env, traced bool) (*job, error) {
	s, err := workload.BuildScenario("global", fleetRecords, scenarioHours, e.seed)
	if err != nil {
		return nil, err
	}
	// Client-affine PoP shards, as anycast keeps a client on one site.
	shards := workload.PoPPartition(s.SpecsSharded(0), fleetPoPs)
	parts := make([]fleetPart, len(shards))
	all := analysis.NewFleetAggs()
	nogeo := geo.NewCache(nil) // a scan has no geo plan, like tamperscan -push
	var p props
	var paths []string
	for i, specs := range shards {
		parts[i] = fleetPart{path: e.path(fmt.Sprintf("pop%d.tdcap", i)), ref: newScanReport()}
		if _, err := writeCapture(parts[i].path, s, specs); err != nil {
			return nil, err
		}
		paths = append(paths, parts[i].path)
		if err := classifyCapture(parts[i].path, func(c *capture.Connection, res core.Result) {
			parts[i].ref.add(res)
			p.add(c, res)
			rec := analysis.NewRecord(c, nogeo, res)
			all.Add(&rec)
		}); err != nil {
			return nil, err
		}
	}
	wantReport := analysis.RenderFleetReport(all)
	j := &job{
		inputs:  paths,
		records: p.records,
		iterate: func(ctx context.Context) iteration {
			var it iteration
			start := time.Now()
			fleetIteration(ctx, e, &it, parts, wantReport)
			it.wall = time.Since(start)
			return it
		},
		about: p.about(paths...),
	}
	if traced {
		pc := e.path("pop0.pcap")
		if err := runTdcap2pcap(ctx, e, parts[0].path, pc); err != nil {
			return nil, err
		}
		j.replay = &replaySet{
			tdcaps: paths, pcap: pc, scen: s, inputBytes: fileSizes(paths...),
			runner: streamRunner(paths),
			path:   pathFleet,
		}
	}
	return j, nil
}

// fleetIteration starts popmerge, pushes every PoP's scan to it one
// after another, and checks the merged /report against the in-process
// aggregate and the merger's shutdown stats against the pushes.
func fleetIteration(ctx context.Context, e *env, it *iteration, parts []fleetPart, wantReport string) {
	srv, err := startServer(ctx, e.binary("popmerge"), "-addr", "127.0.0.1:0")
	if err != nil {
		it.ops++
		it.fail(err)
		return
	}
	kv, err := srv.waitFor(ctx, "serving")
	if err != nil {
		srv.stop(it)
		it.fail(err)
		return
	}
	url := "http://" + kv["addr"]
	records, pushed := 0, 0
	for i, part := range parts {
		f, err := os.Open(part.path)
		if err != nil {
			it.ops++
			it.fail(err)
			continue
		}
		args := []string{"-push", url, "-pop", "pop" + strconv.Itoa(i), "-"}
		out, errOut, ok := it.exec(ctx, f, e.path("tamperscan.out"), e.binary("tamperscan"), args...)
		f.Close()
		if !ok {
			continue
		}
		rep, _, err := parseScanReport(string(out))
		if err == nil {
			err = rep.equal(part.ref)
		}
		if err != nil {
			it.fail(fmt.Errorf("pop%d report: %w", i, err))
			continue
		}
		records += rep.connections
		it.ops++ // the pushed frame
		if err := checkPushSummary(string(errOut)); err != nil {
			it.fail(fmt.Errorf("pop%d: %w", i, err))
			continue
		}
		pushed++
	}
	it.ops++
	body, err := getReport(ctx, url)
	if err == nil && body != wantReport {
		err = fmt.Errorf("merged /report differs from the in-process fleet report")
	}
	if err != nil {
		it.fail(err)
	}
	lines, err := srv.stop(it)
	if err != nil {
		return
	}
	st, err := parseShutdown(lines)
	if err == nil && (st.accepted != pushed || st.duplicates != 0 || st.rejected != 0) {
		err = fmt.Errorf("popmerge accepted=%d duplicates=%d rejected=%d, want %d/0/0", st.accepted, st.duplicates, st.rejected, pushed)
	}
	if err != nil {
		it.fail(err)
		return
	}
	if it.failed == 0 {
		it.records = records
	}
}

// getReport fetches popmerge's merged report on a connection that is
// closed afterwards.
func getReport(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/report", nil)
	if err != nil {
		return "", err
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /report: %s", resp.Status)
	}
	return string(body), nil
}

func setupPaperbench(ctx context.Context, e *env, traced bool) (*job, error) {
	args := func(extra ...string) []string {
		return append([]string{"-total", strconv.Itoa(paperbenchTotal), "-seed", strconv.FormatUint(e.seed, 10)}, extra...)
	}
	// The reference is paperbench's own single-worker output: the
	// parallel run must not depend on worker count.
	var ref iteration
	out, _, ok := ref.exec(ctx, nil, e.path("paperbench.out"), e.binary("paperbench"), args("-workers", "1", "all")...)
	if !ok {
		return nil, fmt.Errorf("reference run: %w", ref.err)
	}
	want := normalizePaperbench(string(out))
	records, err := paperbenchRecords(want)
	if err != nil {
		return nil, err
	}
	j := &job{
		records: records,
		iterate: func(ctx context.Context) iteration {
			var it iteration
			start := time.Now()
			out, _, ok := it.exec(ctx, nil, e.path("paperbench.out"), e.binary("paperbench"), args("all")...)
			if ok {
				if normalizePaperbench(string(out)) != want {
					it.fail(fmt.Errorf("paperbench all differs from its -workers 1 output"))
				} else {
					it.records = records
				}
			}
			it.wall = time.Since(start)
			return it
		},
		about: fmt.Sprintf("# workload: records=%d", records),
	}
	if traced {
		s, err := workload.BuildScenario("paperbench", paperbenchTotal, scenarioHours, e.seed)
		if err != nil {
			return nil, err
		}
		tdcap, pc := e.path("paperbench.tdcap"), e.path("paperbench.pcap")
		if _, err := writeCapture(tdcap, s, s.SpecsSharded(0)); err != nil {
			return nil, err
		}
		if err := runTdcap2pcap(ctx, e, tdcap, pc); err != nil {
			return nil, err
		}
		j.replay = &replaySet{
			tdcaps: []string{tdcap}, pcap: pc, scen: s, inputBytes: fileSizes(tdcap),
			pathGeo: s.Geo,
			runner:  simRunner(s),
			path:    pathPaperbench,
		}
	}
	return j, nil
}

// The runners each workload's binary takes, driven with a counting
// sink and no observer.

func shardedRunner(path string) func(context.Context, pipeline.Config) (pipeline.Counts, error) {
	return func(ctx context.Context, cfg pipeline.Config) (pipeline.Counts, error) {
		f, err := os.Open(path)
		if err != nil {
			return pipeline.Counts{}, err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return pipeline.Counts{}, err
		}
		idx, err := capture.FindIndex(f, fi.Size(), path)
		if err != nil {
			return pipeline.Counts{}, err
		}
		seg, err := capture.NewSegmentedSource(f, fi.Size(), idx, cfg.Workers)
		if err != nil {
			return pipeline.Counts{}, err
		}
		return pipeline.ShardedScan(ctx, seg, cfg, nil)
	}
}

func pcapRunner(path string) func(context.Context, pipeline.Config) (pipeline.Counts, error) {
	return func(ctx context.Context, cfg pipeline.Config) (pipeline.Counts, error) {
		f, err := os.Open(path)
		if err != nil {
			return pipeline.Counts{}, err
		}
		defer f.Close()
		src := newPcapSource(bufio.NewReader(f))
		counts, err := pipeline.Run(ctx, src, cfg, nil)
		src.close()
		return counts, err
	}
}

func streamRunner(paths []string) func(context.Context, pipeline.Config) (pipeline.Counts, error) {
	return func(ctx context.Context, cfg pipeline.Config) (pipeline.Counts, error) {
		var total pipeline.Counts
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				return total, err
			}
			c, err := pipeline.Stream(ctx, bufio.NewReader(f), cfg, nil)
			f.Close()
			total = total.Add(c)
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
}

func simRunner(s *workload.Scenario) func(context.Context, pipeline.Config) (pipeline.Counts, error) {
	return func(ctx context.Context, cfg pipeline.Config) (pipeline.Counts, error) {
		src := s.Stream(cfg.Workers)
		defer src.Close()
		return pipeline.Run(ctx, src, cfg, nil)
	}
}

// pcapSource is tamperscan's pcap front end: the sampler runs on its
// own goroutine and hands connections over a channel.
type pcapSource struct {
	ch   chan *capture.Connection
	stop chan struct{}
	done chan struct{}
	err  error // set before ch closes
}

func newPcapSource(r io.Reader) *pcapSource {
	s := &pcapSource{
		ch:   make(chan *capture.Connection, 64), // tamperscan's hand-off depth
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		defer close(s.ch)
		s.err = samplePcap(r, func(conns []*capture.Connection) bool {
			for _, c := range conns {
				select {
				case s.ch <- c:
				case <-s.stop:
					return false
				}
			}
			return true
		})
	}()
	return s
}

// Next yields the next sampled connection.
func (s *pcapSource) Next() (*capture.Connection, error) {
	c, ok := <-s.ch
	if !ok {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	return c, nil
}

// close stops the sampler goroutine and waits for it.
func (s *pcapSource) close() {
	close(s.stop)
	<-s.done
}
