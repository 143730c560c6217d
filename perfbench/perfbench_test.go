package main

import (
	"bufio"
	"strings"
	"testing"
	"time"
)

func TestReadResponse(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello" +
		"HTTP/1.1 422 Unprocessable Entity\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"
	c := &conn{br: bufio.NewReader(strings.NewReader(wire))}
	for _, want := range []struct {
		status int
		body   string
	}{{200, "hello"}, {422, "abcde"}} {
		status, body, err := c.readResponse()
		if err != nil || status != want.status || string(body) != want.body {
			t.Fatalf("readResponse = %d %q %v, want %d %q", status, body, err, want.status, want.body)
		}
	}
	if _, _, err := c.readResponse(); err == nil {
		t.Fatal("readResponse past the end: want an error")
	}
}

func TestSelfTimesSubtractsTheUnionOfChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "p", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "c", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "c", ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps the first child
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent
	}}
	if got := r.selfTimes("p"); len(got) != 1 || got[0] != 50 {
		t.Fatalf("selfTimes = %v, want [50ns]", got)
	}
}

func TestWindowStatistics(t *testing.T) {
	var r phaseResult
	for w := 0; w < 3; w++ {
		var win []time.Duration
		for i := 1; i <= 100; i++ {
			win = append(win, time.Duration(i*(w+1)))
		}
		r.windows = append(r.windows, win)
	}
	r.windows = append(r.windows, []time.Duration{1e9}) // too few samples to count
	if got := r.windowQuantile(0.5); got != 100 {
		t.Fatalf("windowQuantile(0.5) = %v, want 100ns (the middle window's median)", got)
	}
	r.elapsed = 3 * statWindow
	for i := 0; i < 30; i++ {
		r.done = append(r.done, time.Duration(i)*statWindow/10)
	}
	if got, want := r.windowRate(), 10/statWindow.Seconds(); got != want {
		t.Fatalf("windowRate = %v, want %v", got, want)
	}
}

func TestSweepTallyCountsEveryJob(t *testing.T) {
	body := `{"type":"run","config":"Baseline","signature":"a/B.c/0","run":{"signature":"a/B.c/0","config":"Baseline","meanIPC":1,"bp1":{"Fired":3},"bp2":{"Fired":4}}}
{"type":"skip","config":"Baseline","signature":"a/B.d/0","error":"rejected"}
{"type":"error","config":"Baseline","signature":"a/B.e/0","error":"canceled"}
{"type":"summary","config":"Baseline"}
`
	tl := newTally()
	tl.add(200, []byte(body), 4) // one job never answered
	if tl.skipped["Baseline"] != 1 || len(tl.runs["Baseline"]) != 1 || tl.bad != 2 {
		t.Fatalf("tally: skipped %v runs %v bad %d, want 1 skip, 1 run, 2 bad", tl.skipped, tl.runs, tl.bad)
	}
	if run := tl.runs["Baseline"]["a/B.c/0"]; run.BP1.Fired+run.BP2.Fired != 7 {
		t.Fatalf("run = %+v, want fired 3+4", run)
	}
	tl.add(503, nil, 6)
	if tl.bad != 8 {
		t.Fatalf("bad = %d after a failed request of 6 jobs, want 8", tl.bad)
	}
}
