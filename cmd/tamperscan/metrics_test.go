package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"tamperdetect"
	"tamperdetect/internal/telemetry"
)

// TestMetricsAddrServesExposition is the scripts/check.sh metrics
// gate: run tamperscan with -metrics-addr on a fixture capture, scrape
// /metrics and /healthz through the test hook (which fires after the
// scan completes, before the server shuts down), fail on unparseable
// exposition or non-200 health, and verify server shutdown leaks no
// goroutines.
func TestMetricsAddrServesExposition(t *testing.T) {
	// run() installs signal handlers, which start os/signal's watcher
	// goroutine once for the life of the process. Start it before the
	// baseline so it is not counted as a leak when this test runs alone.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT)
	signal.Stop(sigs)
	goroutinesBefore := runtime.NumGoroutine()

	path := filepath.Join(t.TempDir(), "x.tdcap")
	var conns []*tamperdetect.Connection
	for i := 0; i < 40; i++ {
		conns = append(conns, sampleConns()...)
	}
	if err := tamperdetect.WriteCaptureFile(path, conns); err != nil {
		t.Fatal(err)
	}

	scrape := func(url string) (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp.StatusCode, string(body)
	}

	var scraped bool
	testHookBeforeMetricsShutdown = func(addr string) {
		scraped = true
		base := "http://" + addr

		status, body := scrape(base + "/healthz")
		if status != http.StatusOK {
			t.Errorf("/healthz status = %d, want 200 (body %q)", status, body)
		}
		if !strings.Contains(body, `"status"`) || !strings.Contains(body, "ok") {
			t.Errorf("/healthz body = %q", body)
		}

		status, body = scrape(base + "/metrics")
		if status != http.StatusOK {
			t.Fatalf("/metrics status = %d", status)
		}
		if err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
			t.Fatalf("/metrics exposition invalid: %v\n%s", err, body)
		}
		// The acceptance surface: stage latency histograms, queue-depth
		// gauge, per-signature counters, capture throughput.
		for _, want := range []string{
			`tamperdetect_pipeline_stage_latency_ns_bucket{stage="classify",le="+Inf"}`,
			`tamperdetect_pipeline_stage_latency_ns_bucket{stage="decode",le="+Inf"}`,
			`tamperdetect_pipeline_queue_depth_records{queue="decoded"}`,
			`tamperdetect_pipeline_signature_total`,
			`tamperdetect_capture_bytes_total`,
			fmt.Sprintf(`tamperdetect_pipeline_records_total{stage="classified"} %d`, len(conns)),
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}

		if status, body = scrape(base + "/metrics.json"); status != http.StatusOK || !strings.Contains(body, "tamperdetect_pipeline_stage_latency_ns") {
			t.Errorf("/metrics.json status=%d body=%.120q", status, body)
		}
	}
	defer func() { testHookBeforeMetricsShutdown = nil }()

	if err := run(path, options{workers: 2, metricsAddr: "127.0.0.1:0"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !scraped {
		t.Fatal("metrics server never came up (test hook not invoked)")
	}

	// Goroutine-leak check for server shutdown: the serve goroutine and
	// the HTTP client's transport goroutines must settle away.
	deadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= goroutinesBefore {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after metrics server shutdown: before=%d after=%d\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProgressReporter: -progress emits at least the final snapshot
// line even for a scan shorter than the interval.
func TestProgressReporter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	// The reporter writes to os.Stderr, which a test cannot trivially
	// capture without races; this exercises the wiring end to end and
	// relies on the telemetry package's reporter tests for content.
	if err := run(path, options{workers: 1, progress: time.Hour}); err != nil {
		t.Fatalf("run with -progress: %v", err)
	}
}
