package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// TestRunBatchStreamOrdered: the scheduler must emit every result exactly
// once, in submission order, and the returned slice must equal the
// non-streaming path.
func TestRunBatchStreamOrdered(t *testing.T) {
	methods := hostableMethods(t, 6)
	cfg := testConfig(t, "Compact2")
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})

	jobs := make([]Job, 0, len(methods)*2)
	for i := 0; i < 2; i++ {
		for _, m := range methods {
			jobs = append(jobs, Job{Config: cfg, Method: m})
		}
	}

	var order []int
	streamed := sched.RunBatchStream(context.Background(), jobs, 0, func(i int, r JobResult) {
		order = append(order, i)
		if r.Job.Method != jobs[i].Method {
			t.Errorf("emit %d carries the wrong job", i)
		}
	})
	if len(order) != len(jobs) {
		t.Fatalf("emitted %d results for %d jobs", len(order), len(jobs))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emission out of submission order: %v", order)
		}
	}

	plain := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles}).
		RunBatchCycles(context.Background(), jobs, 0)
	for i := range plain {
		if streamed[i].Err != nil || plain[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, streamed[i].Err, plain[i].Err)
		}
		if streamed[i].Run != plain[i].Run {
			t.Fatalf("job %d: streamed run differs from buffered run", i)
		}
	}
}

// streamLine mirrors StreamEvent with raw payloads, so byte-level
// comparison against the buffered response does not pass through a struct
// round-trip.
type streamLine struct {
	Type      string          `json:"type"`
	Config    string          `json:"config"`
	Signature string          `json:"signature"`
	Run       json.RawMessage `json:"run"`
	Summary   json.RawMessage `json:"summary"`
}

// rawBatchResponse mirrors BatchResponse with raw run payloads.
type rawBatchResponse struct {
	Results []struct {
		Summary json.RawMessage   `json:"summary"`
		Runs    []json.RawMessage `json:"runs"`
	} `json:"results"`
}

func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %q: %v", raw, err)
	}
	return buf.String()
}

// TestHTTPStreamMatchesBuffered is the streaming acceptance contract: the
// NDJSON stream carries, in order, byte-identical run payloads and
// summaries to the buffered /v1/batch response for the same request.
func TestHTTPStreamMatchesBuffered(t *testing.T) {
	ts, _ := testServer(t, 4)
	req := BatchRequest{Configs: []string{"Compact2", "Hetero2"}}
	body, _ := json.Marshal(req)

	// Buffered.
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buffered, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", resp.StatusCode, buffered)
	}
	var raw rawBatchResponse
	if err := json.Unmarshal(buffered, &raw); err != nil {
		t.Fatal(err)
	}

	// Streamed.
	resp, err = http.Post(ts.URL+"/v1/batch?stream=ndjson", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Reassemble per-config groups from the stream and compare
	// byte-for-byte (modulo whitespace) with the buffered response.
	groupIdx := 0
	var runs []string
	for _, line := range lines {
		switch line.Type {
		case "run":
			runs = append(runs, compactJSON(t, line.Run))
		case "skip", "timeout":
			// Counted in the summary; no payload to compare.
		case "summary":
			if groupIdx >= len(raw.Results) {
				t.Fatalf("stream produced more summaries than buffered groups")
			}
			group := raw.Results[groupIdx]
			if got, want := compactJSON(t, line.Summary), compactJSON(t, group.Summary); got != want {
				t.Fatalf("config group %d summary differs:\nstream   %s\nbuffered %s", groupIdx, got, want)
			}
			if len(runs) != len(group.Runs) {
				t.Fatalf("config group %d: stream carried %d runs, buffered %d", groupIdx, len(runs), len(group.Runs))
			}
			for i := range runs {
				if want := compactJSON(t, group.Runs[i]); runs[i] != want {
					t.Fatalf("config group %d run %d differs:\nstream   %s\nbuffered %s", groupIdx, i, runs[i], want)
				}
			}
			runs = nil
			groupIdx++
		case "error":
			t.Fatalf("unexpected error event: %+v", line)
		default:
			t.Fatalf("unknown event type %q", line.Type)
		}
	}
	if groupIdx != len(raw.Results) {
		t.Fatalf("stream closed after %d of %d config groups", groupIdx, len(raw.Results))
	}
}

// TestHTTPStreamBadRequest: request-shape errors must fail with a normal
// JSON error status, not a committed stream.
func TestHTTPStreamBadRequest(t *testing.T) {
	ts, _ := testServer(t, 2)
	body, _ := json.Marshal(BatchRequest{Configs: []string{"NoSuchConfig"}})
	resp, err := http.Post(ts.URL+"/v1/batch?stream=ndjson", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
