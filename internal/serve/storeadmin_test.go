package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// TestHTTPStoreAdmin exercises GET /v1/store and POST /v1/store/compact
// against a live store, and the 404 contract without one.
func TestHTTPStoreAdmin(t *testing.T) {
	// Without a store both endpoints are 404.
	ts, _ := testServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/store without store: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/store/compact", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/store/compact without store: status %d, want 404", resp.StatusCode)
	}

	// With a store: run a method, then read the report.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	methods := hostableMethods(t, 2)
	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: st})
	svc := NewService(sched, sim.Configurations(), methods)
	ts2 := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts2.Close)

	resp, body := postJSON(t, ts2.URL+"/v1/run", RunRequest{Config: "Compact2", Method: methods[0].Signature()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	var rep store.AdminReport
	getJSON(t, ts2.URL+"/v1/store", &rep)
	if rep.Records == 0 || rep.Segments == 0 {
		t.Fatalf("admin report empty after a run: %+v", rep)
	}
	foundGeom := false
	for _, g := range rep.Geometries {
		if g.Runs > 0 {
			foundGeom = true
		}
	}
	if !foundGeom {
		t.Fatalf("no geometry reports runs: %+v", rep.Geometries)
	}

	resp, body = postJSON(t, ts2.URL+"/v1/store/compact", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ts2.URL+"/v1/store", &rep)
	if rep.Compactions != 1 {
		t.Fatalf("compactions = %d after POST /v1/store/compact", rep.Compactions)
	}
}

// TestPreambleAnswersOnMemoryOnlyNode pins the exact bytes of the shared
// early answers: the 404 of every store-backed route on a node without a
// store, and the 400 of a bad ?n= on both debug dumps.
func TestPreambleAnswersOnMemoryOnlyNode(t *testing.T) {
	svc := NewService(NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles}), sim.Configurations(), nil)
	h := NewHandler(svc)
	const noStore = "{\n  \"error\": \"serve: no persistent store attached (start with -store-dir)\",\n  \"kind\": \"not_found\"\n}\n"
	for _, tc := range []struct {
		method, path string
		status       int
		body         string
	}{
		{"GET", "/v1/store", http.StatusNotFound, noStore},
		{"POST", "/v1/store/compact", http.StatusNotFound, noStore},
		{"GET", "/v1/replicate/segments", http.StatusNotFound, noStore},
		{"GET", "/v1/replicate/segment/1", http.StatusNotFound, noStore},
		{"GET", "/debug/traces?n=0", http.StatusBadRequest, "{\n  \"error\": \"serve: bad span count \\\"0\\\"\",\n  \"kind\": \"internal\"\n}\n"},
		{"GET", "/debug/events?n=x", http.StatusBadRequest, "{\n  \"error\": \"serve: bad event count \\\"x\\\"\",\n  \"kind\": \"internal\"\n}\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.status || rec.Body.String() != tc.body {
			t.Errorf("%s %s: status %d body %q, want %d %q", tc.method, tc.path, rec.Code, rec.Body.String(), tc.status, tc.body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", tc.method, tc.path, ct)
		}
	}
}
