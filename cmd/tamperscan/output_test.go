package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tamperdetect"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/packet"
	"tamperdetect/internal/pcap"
	"tamperdetect/internal/pipeline"
)

// TestMain lets a test run the tamperscan command itself: with
// TAMPERSCAN_RUN_MAIN=1 in its environment the test binary runs main
// on its arguments, so exit codes and stdout can be checked end to end.
func TestMain(m *testing.M) {
	if os.Getenv("TAMPERSCAN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command builds a tamperscan process running this test binary's main.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TAMPERSCAN_RUN_MAIN=1")
	return cmd
}

// runCommand runs tamperscan to completion and returns its stdout,
// stderr and exit code.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := command(args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("tamperscan %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// splitListing splits tamperscan -v output into the listing lines and
// the report that follows them, failing unless the report is last.
func splitListing(t *testing.T, out string) ([]string, string) {
	t.Helper()
	i := strings.Index(out, "connections:")
	if i < 0 {
		t.Fatalf("no report in output:\n%s", out)
	}
	if strings.Contains(out[i:], " -> :") {
		t.Fatalf("listing lines after the report:\n%s", out)
	}
	return strings.Split(strings.TrimSuffix(out[:i], "\n"), "\n"), out[i:]
}

// TestVerbosePrinterMatchesFmt holds the -v listing to the format
// string it replaced, byte for byte, over every signature, stage and
// protocol, IPv4 and IPv6 sources, and empty and non-empty domains.
func TestVerbosePrinterMatchesFmt(t *testing.T) {
	addrs := []netip.Addr{
		netip.MustParseAddr("20.0.0.1"),
		netip.MustParseAddr("2001:db8::7"),
		netip.MustParseAddr("::ffff:198.51.100.4"),
	}
	var items []pipeline.Item
	for sig := core.Signature(0); sig < core.NumSignatures; sig++ {
		for st := core.Stage(0); st < core.NumStages; st++ {
			for proto := core.Protocol(0); proto < 3; proto++ {
				for i, a := range addrs {
					domain := ""
					if (int(sig)+i)%2 == 0 {
						domain = "blocked.example"
					}
					items = append(items, pipeline.Item{
						Index: len(items),
						Conn:  &capture.Connection{SrcIP: a, SrcPort: uint16(1000 * i), DstPort: 443},
						Res:   core.Result{Signature: sig, Stage: st, Protocol: proto, Domain: domain},
					})
				}
			}
		}
	}
	for _, tamperedOnly := range []bool{false, true} {
		var want, got bytes.Buffer
		for _, it := range items {
			res := it.Res
			if tamperedOnly && !res.Signature.IsTampering() {
				continue
			}
			domain := res.Domain
			if domain == "" {
				domain = "-"
			}
			fmt.Fprintf(&want, "%s:%d -> :%d  %-26s %-9s proto=%s domain=%s\n",
				it.Conn.SrcIP, it.Conn.SrcPort, it.Conn.DstPort,
				res.Signature, res.Stage, res.Protocol, domain)
		}
		out := bufio.NewWriter(&got)
		sink := verbosePrinter(out, tamperedOnly)
		for _, it := range items {
			if err := sink(it); err != nil {
				t.Fatal(err)
			}
		}
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("tamperedOnly=%v: line %d\n got %q\nwant %q", tamperedOnly, i, gl[i], wl[i])
				}
			}
			t.Fatalf("tamperedOnly=%v: %d lines, want %d", tamperedOnly, len(gl), len(wl))
		}
	}
}

// rawPacket serializes one client->server IPv4/TCP packet.
func rawPacket(t *testing.T, src string, sport uint16, flags packet.TCPFlags, seq uint32) []byte {
	t.Helper()
	ip := packet.IPv4{TTL: 60, ID: 9, Protocol: 6,
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr("192.0.2.80")}
	tcp := packet.TCP{SrcPort: sport, DstPort: 443, Seq: seq, Flags: flags, Window: 1000}
	tcp.SetNetworkLayerForChecksum(&ip)
	sb := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(sb, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}, &ip, &tcp); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), sb.Bytes()...)
}

// TestRunVerboseTruncatedPcap: a pcap cut mid-packet still prints the
// listing of the connections drained before the cut, then the report,
// and exits 3. The early flows are drained by the idle sweep that a
// packet 400 s into the capture triggers; the cut lands in a later
// packet.
func TestRunVerboseTruncatedPcap(t *testing.T) {
	const flows = 20
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, 0)
	write := func(sec float64, data []byte) {
		t.Helper()
		if err := w.Write(int64(sec*1e9), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < flows; i++ {
		src := fmt.Sprintf("20.0.0.%d", i+1)
		write(float64(i)/10, rawPacket(t, src, uint16(40000+i), packet.FlagsSYN, 100))
		write(float64(i)/10+1, rawPacket(t, src, uint16(40000+i), packet.FlagsRST, 101))
	}
	write(400, rawPacket(t, "20.0.1.1", 50000, packet.FlagsSYN, 100))
	write(401, rawPacket(t, "20.0.1.1", 50000, packet.FlagsACK, 101))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trunc.pcap")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-10], 0o644); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := runCommand(t, "-v", "-workers", "2", path)
	if code != 3 {
		t.Fatalf("exit code %d, want 3; stderr:\n%s", code, stderr)
	}
	listing, report := splitListing(t, stdout)
	if len(listing) != flows {
		t.Errorf("listing has %d lines, want %d:\n%s", len(listing), flows, stdout)
	}
	for i, line := range listing {
		if want := fmt.Sprintf("20.0.0.%d:%d -> :443  SYN → RST", i+1, 40000+i); !strings.HasPrefix(line, want) {
			t.Errorf("listing line %d = %q, want prefix %q", i, line, want)
		}
	}
	if !strings.HasPrefix(report, fmt.Sprintf("connections:       %d\n", flows)) {
		t.Errorf("report does not cover the %d drained connections:\n%s", flows, report)
	}
	if !strings.Contains(stderr, "input damaged") {
		t.Errorf("stderr does not name the damage:\n%s", stderr)
	}
}

// TestRunSignalFlushesListing: SIGTERM mid-scan still flushes the -v
// listing of every delivered connection, ahead of the partial report.
// The signal goes out once the progress line shows every record of
// the fed prefix delivered; the listing is then only in the buffer.
func TestRunSignalFlushesListing(t *testing.T) {
	var conns []*tamperdetect.Connection
	for i := 0; i < 4*pipeline.DefaultBatchSize; i++ {
		conns = append(conns, sampleConns()...)
	}
	capPath := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(capPath, conns); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}

	cmd := command("-v", "-workers", "1", "-progress", "20ms", "-")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.Write(raw); err != nil {
		t.Fatal(err)
	}
	delivered := fmt.Sprintf("delivered=%d ", len(conns))
	seen := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		closed := false
		for sc.Scan() {
			if !closed && strings.Contains(sc.Text(), delivered) {
				close(seen)
				closed = true
			}
		}
	}()
	select {
	case <-seen:
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("no progress line with %q", delivered)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
	}
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("exit code %d, want 3", code)
	}
	listing, report := splitListing(t, stdout.String())
	if len(listing) != len(conns) {
		t.Errorf("listing has %d lines, want %d", len(listing), len(conns))
	}
	if !strings.HasPrefix(report, fmt.Sprintf("connections:       %d\n", len(conns))) {
		t.Errorf("partial report does not cover the delivered prefix:\n%s", report)
	}
}

// TestRunCPUProfile: -cpuprofile writes a non-empty profile and leaves
// the printed report unchanged.
func TestRunCPUProfile(t *testing.T) {
	dir := t.TempDir()
	capPath := filepath.Join(dir, "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(capPath, sampleConns()); err != nil {
		t.Fatal(err)
	}
	plain, _, code := runCommand(t, "-v", capPath)
	if code != 0 {
		t.Fatalf("plain run exit code %d", code)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	profiled, stderr, code := runCommand(t, "-v", "-cpuprofile", prof, capPath)
	if code != 0 {
		t.Fatalf("profiled run exit code %d; stderr:\n%s", code, stderr)
	}
	if profiled != plain {
		t.Errorf("-cpuprofile changed the output:\n%s\nwant:\n%s", profiled, plain)
	}
	st, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Error("CPU profile is empty")
	}
}
