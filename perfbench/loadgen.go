package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// conn is one keep-alive HTTP/1.1 connection driven by hand: requests are
// pre-rendered bytes, so the generator spends its time on the wire and
// not in a client library.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(base string) (*conn, error) {
	nc, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

// renderPost is the wire form of POST path with a JSON body.
func renderPost(base, path string, body []byte) []byte {
	host := strings.TrimPrefix(base, "http://")
	return append([]byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, host, len(body))), body...)
}

// readResponse reads one response off the connection. The returned body
// aliases a per-connection buffer that the next read overwrites.
func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("malformed chunk size %q", line)
			}
			if err := c.readN(int(size) + 2); err != nil { // chunk plus CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if size == 0 {
				return status, c.body, nil
			}
		}
	case length >= 0:
		if err := c.readN(length); err != nil {
			return 0, nil, err
		}
		return status, c.body, nil
	}
	return 0, nil, fmt.Errorf("response without Content-Length or chunked body")
}

// readN appends the next n bytes of the connection to c.body.
func (c *conn) readN(n int) error {
	start := len(c.body)
	if cap(c.body)-start < n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

// roundTrip sends one request and waits for its response.
func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if _, err := c.nc.Write(req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// request is one scheduled call of a run phase: the wire bytes and the
// exact response body it must produce.
type request struct {
	wire []byte
	want []byte
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	ok, failed int64
	lat        []time.Duration // open loop: per answered request, from its due time
	late       []time.Duration // open loop: actual send minus due time
	elapsed    time.Duration
	// windows groups the open loop's latencies by the statWindow their
	// due time falls in.
	windows [][]time.Duration
	// done holds the closed loop's completion times of correct answers,
	// since the phase began.
	done []time.Duration
}

// statWindow is the span of one statistics window. A host stall spoils
// the windows it hits; the median over windows is what a run reports.
const statWindow = 250 * time.Millisecond

// windowQuantile is the median, over windows holding at least 100
// samples, of each window's q-quantile.
func (r phaseResult) windowQuantile(q float64) time.Duration {
	var per []float64
	for _, w := range r.windows {
		if len(w) >= 100 {
			per = append(per, float64(quantile(w, q)))
		}
	}
	return time.Duration(median(per))
}

// windowRate is the median, over the closed loop's whole statWindows, of
// correct answers per second.
func (r phaseResult) windowRate() float64 {
	n := int(r.elapsed / statWindow)
	if n == 0 {
		return float64(len(r.done)) / r.elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, d := range r.done {
		if i := int(d / statWindow); i < n {
			counts[i]++
		}
	}
	return median(counts) / statWindow.Seconds()
}

// check classifies one answer: 200 with the exact expected body.
func check(status int, body, want []byte) bool {
	return status == http.StatusOK && bytes.Equal(body, want)
}

// openLoop sends reqs at a fixed rate over nconns pipelined connections
// and times every request from its scheduled send time, so a server stall
// is charged to every request it delays (Tene, "How NOT to Measure
// Latency"). One goroutine sends; each connection has a reader. The
// sender is pinned to its OS thread with a 1ns timer slack and waits with
// nanosleep: the runtime's timers overshoot sub-millisecond waits by about
// a millisecond, which would make the generator measure its own timer.
// Requests that come due while the sender is behind go out back to back.
func openLoop(ctx context.Context, base string, nconns int, rate float64, reqs []request) (phaseResult, error) {
	res := phaseResult{lat: make([]time.Duration, len(reqs)), late: make([]time.Duration, len(reqs))}
	type inflight struct {
		i   int
		due time.Duration
	}
	conns := make([]*conn, nconns)
	queues := make([]chan inflight, nconns)
	outstanding := make([]atomic.Int64, nconns)
	for k := range conns {
		c, err := dial(base)
		if err != nil {
			for _, c := range conns[:k] {
				c.nc.Close()
			}
			return res, err
		}
		conns[k] = c
		// Sized to the number of sends, so the sender never blocks on a
		// reader.
		queues[k] = make(chan inflight, len(reqs))
	}
	answered := make([]bool, len(reqs))
	var ok, failed atomic.Int64
	var readers sync.WaitGroup
	start := time.Now()
	for k := range conns {
		readers.Add(1)
		go func(k int) {
			defer readers.Done()
			c := conns[k]
			for f := range queues[k] {
				status, body, err := c.readResponse()
				done := time.Since(start)
				outstanding[k].Add(-1)
				if err != nil {
					// The connection is broken: this and every request
					// still queued behind it failed.
					failed.Add(1)
					for range queues[k] {
						failed.Add(1)
					}
					return
				}
				res.lat[f.i] = done - f.due
				answered[f.i] = true
				if check(status, body, reqs[f.i].want) {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(k)
	}

	sendErr := make(chan error, 1)
	go func() {
		pinThread()
		period := time.Duration(float64(time.Second) / rate)
		var err error
		for i := range reqs {
			if err = ctx.Err(); err != nil {
				break
			}
			due := time.Duration(i) * period
			for {
				wait := due - time.Since(start)
				if wait <= 0 {
					break
				}
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
			}
			k := 0
			for j := 1; j < nconns; j++ {
				if outstanding[j].Load() < outstanding[k].Load() {
					k = j
				}
			}
			outstanding[k].Add(1)
			queues[k] <- inflight{i: i, due: due}
			res.late[i] = time.Since(start) - due
			if _, err = conns[k].nc.Write(reqs[i].wire); err != nil {
				break
			}
		}
		for _, q := range queues {
			close(q)
		}
		sendErr <- err
	}()
	err := <-sendErr
	// Bound the drain: a wedged server must fail the run, not hang it.
	for _, c := range conns {
		_ = c.nc.SetReadDeadline(time.Now().Add(60 * time.Second))
	}
	readers.Wait()
	res.elapsed = time.Since(start)
	for _, c := range conns {
		c.nc.Close()
	}
	res.ok, res.failed = ok.Load(), failed.Load()
	period := float64(time.Second) / rate
	kept := res.lat[:0]
	for i, d := range res.lat {
		if answered[i] {
			kept = append(kept, d)
			w := int(float64(i) * period / float64(statWindow))
			for len(res.windows) <= w {
				res.windows = append(res.windows, nil)
			}
			res.windows[w] = append(res.windows[w], d)
		}
	}
	res.lat = kept
	if err != nil {
		return res, fmt.Errorf("open loop send: %w", err)
	}
	return res, nil
}

// pinThread locks the calling goroutine to its OS thread and makes that
// thread a precise, prompt timekeeper: 1ns timer slack, and the lowest
// real-time priority where the kernel allows it, so the server's threads
// do not delay a due send. Failures leave the thread as it was; the
// lateness figures then show the cost. The thread is discarded when the
// goroutine exits still locked, so the settings never leak to other
// goroutines.
func pinThread() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, 29 /* PR_SET_TIMERSLACK */, 1, 0)
	prio := int32(1)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, 1 /* SCHED_FIFO */, uintptr(unsafe.Pointer(&prio)))
}

// closedLoop runs nconns callers, each sending its next request as soon as
// the previous answer arrives, for dur (or, with dur 0, until every
// request in reqs was sent once). Callers take requests from reqs in
// order, cycling.
func closedLoop(ctx context.Context, base string, nconns int, dur time.Duration, reqs []request) (phaseResult, error) {
	var res phaseResult
	var next, ok, failed atomic.Int64
	dones := make([][]time.Duration, nconns)
	errs := make([]error, nconns)
	conns := make([]*conn, nconns)
	for k := range conns {
		c, err := dial(base)
		if err != nil {
			for _, c := range conns[:k] {
				c.nc.Close()
			}
			return res, err
		}
		conns[k] = c
	}
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			defer c.nc.Close()
			_ = c.nc.SetDeadline(time.Now().Add(dur + 120*time.Second))
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				if dur == 0 && i >= len(reqs) {
					return
				}
				r := reqs[i%len(reqs)]
				status, body, err := c.roundTrip(r.wire)
				if err != nil {
					errs[k] = err
					failed.Add(1)
					return
				}
				if check(status, body, r.want) {
					ok.Add(1)
					dones[k] = append(dones[k], time.Since(start))
				} else {
					failed.Add(1)
				}
			}
		}(k, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.ok, res.failed = ok.Load(), failed.Load()
	for _, d := range dones {
		res.done = append(res.done, d...)
	}
	for _, err := range errs {
		if err != nil {
			return res, fmt.Errorf("closed loop: %w", err)
		}
	}
	return res, ctx.Err()
}
