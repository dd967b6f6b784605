// Command perfbench is the repository benchmark. It runs the real
// binaries built from cmd/ on seeded, generated inputs, checks their
// outputs against references built from library calls, and prints one
// JSON result line.
//
// Untraced runs (-trace 0) time each workload end to end in a closed
// loop: one batch job after another, started from this process, with
// only one program under test running at a time (fleet-push keeps its
// popmerge up while the PoP scans run). Traced runs (-trace 1) replay
// the workload's input through the public call of each layer, timed
// from this package in batches, and report the per-layer ledger.
//
// Run it from the repository root through run.sh, which builds the
// commands and this driver first:
//
//	bash perfbench/run.sh --workload scan-global --seed 1 --seconds 20 --trace 0
//
// README.md names every metric and why each workload exists.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run builds its inputs and
// references; setup_s is the median, so one slow set-up cannot move it.
const setupRepeats = 3

// runDeadline bounds a whole run, set-up included, below the 180 s a
// caller may wait for it.
const runDeadline = 170 * time.Second

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs to find and place its files.
type env struct {
	bin   string // directory holding the built commands
	work  string // scratch directory for this workload's inputs
	seed  uint64
	nproc int
}

// binary returns the path of a built command.
func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// path returns a file path inside the work directory.
func (e *env) path(name string) string { return filepath.Join(e.work, name) }

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	traced := flag.Int("trace", 0, "1 = per-layer ledger, 0 = end-to-end metrics")
	root := flag.String("root", ".", "repository checkout holding the inputs directory")
	bin := flag.String("bin", "", "directory of the commands built from cmd/")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, root, bin string) error {
	setup, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want >= 1", seconds)
	}
	if bin == "" {
		return errors.New("-bin is required (run.sh sets it)")
	}
	work := filepath.Join(root, ".bench_build", "work", name)
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	e := &env{bin: bin, work: work, seed: seed, nproc: runtime.NumCPU()}
	host := hostLine(e)
	fmt.Println(host)
	fmt.Fprintln(os.Stderr, host)

	var res result
	var err error
	if traced {
		res, err = runTraced(ctx, e, setup, time.Duration(seconds)*time.Second, root)
	} else {
		res, err = runEndToEnd(ctx, e, setup, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runEndToEnd sets the workload up setupRepeats times, then runs its
// closed loop for the given duration and reports medians.
func runEndToEnd(ctx context.Context, e *env, setup setupFunc, d time.Duration) (result, error) {
	var setups []float64
	var job *job
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		j, err := setup(ctx, e, false)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		job = j
	}
	if err := quiesce(job.inputs); err != nil {
		return result{}, err
	}
	fmt.Println(job.about)
	its, err := closedLoop(ctx, job, d)
	if err != nil {
		return result{}, err
	}
	s := summarize(its)
	res := result{Correct: s.failed == 0, Attempted: s.ops, Failed: s.failed, Metrics: map[string]metric{
		"records_per_s":  {s.recordsPerSec, "1/s"},
		"cpu_us_per_rec": {s.cpuUsPerRec, "us"},
		"peak_rss_mb":    {s.peakRSSMB, "MB"},
		"setup_s":        {median(setups), "s"},
		"ok_ratio":       {1 - float64(s.failed)/float64(s.ops), "ratio"},
	}}
	fmt.Fprintf(os.Stderr, "%d iterations, %d operations, %d failed\n", len(its), s.ops, s.failed)
	return res, nil
}

// closedLoop runs iterations back to back until d has passed, always
// at least one.
func closedLoop(ctx context.Context, j *job, d time.Duration) ([]iteration, error) {
	var its []iteration
	deadline := time.Now().Add(d)
	for len(its) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		it := j.iterate(ctx)
		if it.err != nil {
			fmt.Fprintln(os.Stderr, "iteration failed:", it.err)
		}
		fmt.Fprintf(os.Stderr, "iteration %d: records=%d wall_s=%.4f cpu_s=%.4f max_rss_mb=%.1f ops=%d failed=%d\n",
			len(its), it.records, it.wall.Seconds(), it.cpu.Seconds(), float64(it.maxRSS)/(1<<20), it.ops, it.failed)
		its = append(its, it)
	}
	return its, nil
}

// loopSummary is the closed loop's end-to-end numbers.
type loopSummary struct {
	recordsPerSec, cpuUsPerRec, peakRSSMB float64
	ops, failed                           int
}

// summarize takes medians over iterations; peak RSS is the largest of
// any process within an iteration, then the median of those peaks.
func summarize(its []iteration) loopSummary {
	var rate, cpu, rss []float64
	var s loopSummary
	for _, it := range its {
		s.ops += it.ops
		s.failed += it.failed
		if it.records > 0 {
			rate = append(rate, float64(it.records)/it.wall.Seconds())
			cpu = append(cpu, float64(it.cpu.Microseconds())/float64(it.records))
		}
		rss = append(rss, float64(it.maxRSS)/(1<<20))
	}
	s.recordsPerSec, s.cpuUsPerRec, s.peakRSSMB = median(rate), median(cpu), median(rss)
	return s
}

// quiesce settles the host after set-up so the measurement does not
// share it with set-up's leftovers: the set-up heap is collected and
// returned to the OS (no background scavenging during the loop), the
// written inputs are flushed to disk (no writeback during the loop),
// and every input is read once so the first iteration does not pay
// for disk reads the later ones skip.
func quiesce(paths []string) error {
	runtime.GC()
	debug.FreeOSMemory()
	syscall.Sync()
	return warmPageCache(paths)
}

// warmPageCache reads every input once.
func warmPageCache(paths []string) error {
	buf := make([]byte, 1<<20)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		for {
			if _, err := f.Read(buf); err != nil {
				break
			}
		}
		f.Close()
	}
	return nil
}

// hostLine records the run conditions next to every result.
func hostLine(e *env) string {
	return fmt.Sprintf("# host: nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d",
		e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), e.seed)
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
