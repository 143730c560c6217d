package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"javaflow/internal/sim"
)

// testServer builds a service over a small hostable corpus.
func testServer(t *testing.T, workers int) (*httptest.Server, *Service) {
	t.Helper()
	methods := hostableMethods(t, 5)
	sched := NewScheduler(SchedulerOptions{Workers: workers, MaxMeshCycles: testMaxCycles})
	svc := NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", url, err)
	}
	return resp, out
}

func TestHTTPRegistryEndpoints(t *testing.T) {
	ts, svc := testServer(t, 2)

	var configs []ConfigInfo
	getJSON(t, ts.URL+"/v1/configs", &configs)
	if len(configs) != 6 {
		t.Fatalf("got %d configs, want the 6 of Table 15", len(configs))
	}
	if configs[0].Name != "Baseline" || !configs[0].Collapsed {
		t.Fatalf("first config = %+v, want collapsed Baseline", configs[0])
	}

	var methods []MethodInfo
	getJSON(t, ts.URL+"/v1/methods", &methods)
	if len(methods) != len(svc.Methods()) {
		t.Fatalf("got %d methods, want %d", len(methods), len(svc.Methods()))
	}
	for _, mi := range methods {
		if mi.Instructions <= 0 {
			t.Fatalf("method %s reports %d instructions", mi.Signature, mi.Instructions)
		}
	}
}

func TestHTTPRunRoundTrip(t *testing.T) {
	ts, svc := testServer(t, 2)
	sig := svc.Methods()[0].Signature()

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Config: "Compact2", Method: sig})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var payload RunPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if payload.Signature != sig || payload.Config != "Compact2" {
		t.Fatalf("payload = %+v", payload)
	}
	if payload.BP1.Fired == 0 || payload.MeanIPC <= 0 {
		t.Fatalf("empty execution: %+v", payload)
	}

	// The HTTP result matches the serial runner exactly.
	serial := &sim.Runner{MaxMeshCycles: testMaxCycles}
	want, err := serial.RunMethod(mustConfig(t, svc, "Compact2"), svc.Methods()[0])
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if payload.BP1 != want.BP1 || payload.BP2 != want.BP2 {
		t.Fatalf("HTTP run differs from serial runner:\n got %+v\nwant %+v", payload, want)
	}

	// Unknown names map to 404.
	resp, _ = postJSON(t, ts.URL+"/v1/run", RunRequest{Config: "Compact2", Method: "NoSuch.method()V"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown method: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/run", RunRequest{Config: "NoSuchConfig", Method: sig})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown config: status %d, want 404", resp.StatusCode)
	}

	// Malformed body maps to 400.
	r, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatalf("POST garbage: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", r.StatusCode)
	}
}

func mustConfig(t *testing.T, svc *Service, name string) sim.Config {
	t.Helper()
	cfg, err := svc.Config(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestHTTPConcurrentBatches fires parallel /v1/batch sweeps and demands
// every response be byte-identical — the service must stay deterministic
// under concurrent traffic.
func TestHTTPConcurrentBatches(t *testing.T) {
	ts, _ := testServer(t, 4)

	req := BatchRequest{Configs: []string{"Baseline", "Compact2", "Sparse2"}}
	const clients = 6
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			bodies[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d received a different batch response", i)
		}
	}

	var parsed BatchResponse
	if err := json.Unmarshal(bodies[0], &parsed); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	if len(parsed.Results) != 3 {
		t.Fatalf("got %d config groups, want 3", len(parsed.Results))
	}
	for _, res := range parsed.Results {
		if res.Summary.Methods != len(res.Runs) || res.Summary.Methods == 0 {
			t.Fatalf("summary/runs mismatch: %+v", res.Summary)
		}
	}
}

// TestHTTPBatchMatchesSerial is the acceptance contract end to end: a
// /v1/batch sweep over the wire equals the serial sim.Runner results.
func TestHTTPBatchMatchesSerial(t *testing.T) {
	ts, svc := testServer(t, 4)

	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Configs: []string{"Hetero2"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var parsed BatchResponse
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("decode: %v", err)
	}

	serial := &sim.Runner{MaxMeshCycles: testMaxCycles}
	want, err := serial.RunAll(mustConfig(t, svc, "Hetero2"), svc.Methods())
	if err != nil {
		t.Fatalf("serial: %v", err)
	}

	got := parsed.Results[0]
	if got.Summary.Skipped != want.Skipped || got.Summary.TimedOut != want.TimedOut {
		t.Fatalf("summary = %+v, serial skipped=%d timedOut=%d", got.Summary, want.Skipped, want.TimedOut)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("got %d runs, want %d", len(got.Runs), len(want.Runs))
	}
	for i, run := range got.Runs {
		if run.Signature != want.Runs[i].Signature || run.BP1 != want.Runs[i].BP1 || run.BP2 != want.Runs[i].BP2 {
			t.Fatalf("run %d differs:\n got %+v\nwant %+v", i, run, want.Runs[i])
		}
	}
}

func TestHTTPMetrics(t *testing.T) {
	ts, svc := testServer(t, 2)
	sig := svc.Methods()[0].Signature()

	// Two identical runs: one miss then one hit.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Config: "Baseline", Method: sig})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Jobs != 2 {
		t.Fatalf("jobs = %d, want 2", snap.Jobs)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("cache = %+v, want 1 hit / 1 miss", snap.Cache)
	}
	if snap.Requests < 3 {
		t.Fatalf("requests = %d, want >= 3", snap.Requests)
	}
	if snap.P95LatencyMS < snap.P50LatencyMS {
		t.Fatalf("p95 (%v) < p50 (%v)", snap.P95LatencyMS, snap.P50LatencyMS)
	}

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
}

// TestHTTPRejectsTrailingData: a request body must hold exactly one JSON
// value. Trailing garbage or a second value is a 400; trailing whitespace
// is not.
func TestHTTPRejectsTrailingData(t *testing.T) {
	ts, svc := testServer(t, 2)
	run := fmt.Sprintf(`{"config":"Compact2","method":%q}`, svc.Methods()[0].Signature())
	batch := `{"configs":["Compact2"],"summaryOnly":true}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"run/garbage", "/v1/run", run + " trailing garbage", http.StatusBadRequest},
		{"run/second-value", "/v1/run", run + `{"config":"nope"}`, http.StatusBadRequest},
		{"run/newline", "/v1/run", run + "\n", http.StatusOK},
		{"batch/garbage", "/v1/batch", batch + " trailing garbage", http.StatusBadRequest},
		{"batch/second-value", "/v1/batch", batch + `{"configs":["nope"]}`, http.StatusBadRequest},
		{"batch/newline", "/v1/batch", batch + "\n", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want != http.StatusBadRequest {
				return
			}
			var ep ErrorPayload
			if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil || ep.Kind != ErrKindInternal {
				t.Fatalf("error payload %+v (%v), want kind %q", ep, err, ErrKindInternal)
			}
		})
	}
}
