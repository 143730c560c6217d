package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"javaflow/internal/serve"
)

// server is one running jfserved process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	tail *tailBuffer
}

// procSet owns every server a run starts, so each is stopped and waited
// for on every exit path.
type procSet struct {
	mu   sync.Mutex
	live []*server
}

// start execs jfserved with args on a kernel-chosen loopback port and
// returns once it prints its listening line.
func (p *procSet) start(ctx context.Context, bin string, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, args...)
	cmd := exec.Command(filepath.Join(bin, "jfserved"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{}), tail: &tailBuffer{}}
	cmd.Stderr = s.tail
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting jfserved: %w", err)
	}
	p.mu.Lock()
	p.live = append(p.live, s)
	p.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.tail.Write([]byte(line + "\n"))
			if i := strings.LastIndex(line, "listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		_ = cmd.Wait()
		close(s.done)
	}()

	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("jfserved %v exited before listening: %s", args, s.tail.String())
	case <-timer.C:
		return nil, errors.New("jfserved did not start listening within 60s")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stop sends SIGTERM (the daemon drains and flushes its store), escalates
// to SIGKILL after 20s, and waits for the process to exit.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stop stops one server and forgets it.
func (p *procSet) stop(s *server) {
	s.stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, l := range p.live {
		if l == s {
			p.live = append(p.live[:i], p.live[i+1:]...)
			break
		}
	}
}

// stopAll stops every server still running, concurrently, and waits.
func (p *procSet) stopAll() {
	p.mu.Lock()
	live := p.live
	p.live = nil
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range live {
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.stop()
		}(s)
	}
	wg.Wait()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// tailBuffer keeps the last few KiB a server printed, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// clockTicks is the kernel's USER_HZ, read from the auxiliary vector
// (AT_CLKTCK); /proc/<pid>/stat reports CPU time in these ticks.
var clockTicks = func() float64 {
	data, err := os.ReadFile("/proc/self/auxv")
	if err == nil {
		for i := 0; i+16 <= len(data); i += 16 {
			if binary.LittleEndian.Uint64(data[i:]) == 17 { // AT_CLKTCK
				if v := binary.LittleEndian.Uint64(data[i+8:]); v > 0 {
					return float64(v)
				}
			}
		}
	}
	return 100
}()

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is this process's user+sys CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// metricsOf fetches a server's GET /metrics document.
func metricsOf(ctx context.Context, s *server) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return snap, fmt.Errorf("GET /metrics: status %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap, nil
}

// dispatchCount reads one counter of the untyped dispatch block of
// /metrics (0 when the server runs no dispatcher).
func dispatchCount(snap serve.MetricsSnapshot, field string) float64 {
	m, ok := snap.Dispatch.(map[string]any)
	if !ok {
		return 0
	}
	v, _ := m[field].(float64)
	return v
}

// admitRejected sums the admission controller's rejections over classes.
func admitRejected(snap serve.MetricsSnapshot) float64 {
	if snap.Admission == nil {
		return 0
	}
	n := int64(0)
	for _, c := range snap.Admission.Classes {
		n += c.Rejected
	}
	return float64(n)
}
