package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// iteration is one closed-loop pass of a workload: every process it
// started, the records in its verified result, and what failed.
type iteration struct {
	records int
	wall    time.Duration // first launch to verified result
	cpu     time.Duration // user + sys of every process under test
	maxRSS  int64         // largest max-RSS of any process, bytes
	ops     int           // processes run, frames pushed
	failed  int
	err     error // first failure, for the log
}

// fail counts one failed operation and keeps the first reason.
func (it *iteration) fail(err error) {
	it.failed++
	if it.err == nil {
		it.err = err
	}
}

// account adds a finished process's resource usage.
func (it *iteration) account(ps *os.ProcessState) {
	if ps == nil {
		return
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return
	}
	it.cpu += time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	if rss := ru.Maxrss * 1024; rss > it.maxRSS { // Linux reports KiB
		it.maxRSS = rss
	}
}

// exec runs one program under test to completion and returns its
// output. Standard output goes to the file outPath, as an operator's
// redirect would, so no pipe reader in this process paces the program;
// it is read back once the program exits. A non-zero exit counts as a
// failed operation.
func (it *iteration) exec(ctx context.Context, stdin io.Reader, outPath, name string, args ...string) (stdout, stderr []byte, ok bool) {
	it.ops++
	out, err := os.Create(outPath)
	if err != nil {
		it.fail(err)
		return nil, nil, false
	}
	defer out.Close()
	var errb bytes.Buffer
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Stdin = stdin
	cmd.Stdout = out
	cmd.Stderr = &errb
	err = cmd.Run()
	it.account(cmd.ProcessState)
	if err == nil {
		stdout, err = os.ReadFile(outPath)
	}
	if err != nil {
		it.fail(fmt.Errorf("%s %s: %v: %s", filepath.Base(name), strings.Join(args, " "), err, lastLine(errb.String())))
		return stdout, errb.Bytes(), false
	}
	return stdout, errb.Bytes(), true
}

// server is a program under test that stays up while others run: its
// stderr is read line by line so the caller can wait for a log line.
type server struct {
	cmd   *exec.Cmd
	lines chan string   // stderr lines; closed at EOF
	done  chan struct{} // closed once stderr is drained
	all   []string      // every stderr line, valid after done
}

// startServer launches name and returns once it is running.
func startServer(ctx context.Context, name string, args ...string) (*server, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The buffer holds the lines logged before anyone waits for them;
	// later lines are only kept in all.
	s := &server{cmd: cmd, lines: make(chan string, 64), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer close(s.lines)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.all = append(s.all, line)
			select {
			case s.lines <- line:
			default: // nobody is waiting for lines any more
			}
		}
	}()
	return s, nil
}

// waitFor returns the first stderr line whose logfmt msg is msg.
func (s *server) waitFor(ctx context.Context, msg string) (map[string]string, error) {
	for {
		select {
		case line, ok := <-s.lines:
			if !ok {
				return nil, fmt.Errorf("%s exited before logging %q", filepath.Base(s.cmd.Path), msg)
			}
			if kv := parseLogfmt(line); kv["msg"] == msg {
				return kv, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// stop sends SIGTERM, waits for the process and its stderr, and
// returns the stderr lines. The process is killed if it does not
// exit within the grace period.
func (s *server) stop(it *iteration) ([]string, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.cmd.Process.Kill()
	}
	timer := time.AfterFunc(10*time.Second, func() { s.cmd.Process.Kill() })
	<-s.done
	err := s.cmd.Wait()
	timer.Stop()
	it.ops++
	it.account(s.cmd.ProcessState)
	if err != nil {
		err = fmt.Errorf("%s: %v: %s", filepath.Base(s.cmd.Path), err, strings.Join(s.all, "\n"))
		it.fail(err)
	}
	return s.all, err
}

// lastLine is the final non-empty line of s, for error messages.
func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
