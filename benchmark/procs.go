package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles the real cmd/kbtim-serve from the checkout at root
// into binDir. The Go build cache makes every call after the first a
// staleness check.
func buildServer(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "kbtim-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kbtim-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kbtim-serve in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// freeAddr picks a free loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// tailBuffer keeps the last max bytes written to it: a server's stderr,
// surfaced when the server fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// proc is one kbtim-serve child.
type proc struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	stderr *tailBuffer
	done   chan struct{} // closed when Wait has returned
}

func (p *proc) url() string { return "http://" + p.addr }

// procs tracks every live child so the signal handler and the exit path can
// kill them all.
type procs struct {
	mu   sync.Mutex
	live map[*proc]bool
}

func newProcs() *procs { return &procs{live: make(map[*proc]bool)} }

// start launches bin with args on a fresh loopback port and waits until
// /healthz answers 200.
func (ps *procs) start(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, addr: addr, stderr: &tailBuffer{max: 16 << 10}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = p.stderr
	p.cmd.Stdout = p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.live[p] = true
	ps.mu.Unlock()
	go func() {
		p.cmd.Wait() // exit status is read from ProcessState by whoever cares
		close(p.done)
	}()
	if err := p.waitReady(ctx, 20*time.Second); err != nil {
		ps.stop(p)
		return nil, err
	}
	return p, nil
}

// waitReady polls /healthz until it answers 200, the child exits, or the
// timeout passes.
func (p *proc) waitReady(ctx context.Context, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.stderr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(p.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error: %v):\n%s", p.name, timeout, err, p.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends one child and waits for it: SIGTERM first (the server drains and
// exits 0), SIGKILL if it has not gone within two seconds.
func (ps *procs) stop(p *proc) {
	ps.mu.Lock()
	known := ps.live[p]
	delete(ps.live, p)
	ps.mu.Unlock()
	if !known {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(2 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll ends every live child.
func (ps *procs) stopAll() {
	ps.mu.Lock()
	all := make([]*proc, 0, len(ps.live))
	for p := range ps.live {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		ps.stop(p)
	}
}

// cpuTime returns the CPU time the child has consumed: the summed on-CPU
// nanoseconds of its threads from /proc/<pid>/task/*/schedstat, or, on a
// kernel without scheduler statistics, utime+stime from /proc/<pid>/stat in
// 10 ms ticks.
func (p *proc) cpuTime() (time.Duration, error) {
	pid := p.cmd.Process.Pid
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err == nil && len(tasks) > 0 {
		var total int64
		for _, t := range tasks {
			raw, err := os.ReadFile(t)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			if f := strings.Fields(string(raw)); len(f) >= 1 {
				ns, _ := strconv.ParseInt(f[0], 10, 64)
				total += ns
			}
		}
		if total > 0 {
			return time.Duration(total), nil
		}
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from the
	// closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns the child's resident-set high-water mark (VmHWM) in bytes.
func (p *proc) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
