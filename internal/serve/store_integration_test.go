package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// storeSession is one simulated jfserved process life: a fresh scheduler,
// cache and HTTP handler over the given (persistent) store.
type storeSession struct {
	t     *testing.T
	sched *Scheduler
	ts    *httptest.Server
}

func newStoreSession(t *testing.T, st *store.Store, sigs []string) *storeSession {
	t.Helper()
	methods := hostableMethods(t, len(sigs))
	sched := NewScheduler(SchedulerOptions{Workers: 4, Store: st})
	svc := NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return &storeSession{t: t, sched: sched, ts: ts}
}

func (s *storeSession) post(path, body string) []byte {
	s.t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		s.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		s.t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		s.t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestStoreWarmRestartByteIdentical is the PR's acceptance test: a second
// service process pointed at the same -store-dir must serve previously
// computed (signature, config) pairs from the store — byte-identical to
// the cold run and without re-running the engine.
func TestStoreWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sigs := make([]string, 3)
	for i, m := range hostableMethods(t, 3) {
		sigs[i] = m.Signature()
	}
	runBody := fmt.Sprintf(`{"config":"Compact2","method":%q}`, sigs[0])
	batchBody := fmt.Sprintf(`{"configs":["Compact4","Compact2"],"methods":[%q,%q,%q]}`,
		sigs[0], sigs[1], sigs[2])

	// --- Cold process life: everything computed by the engine. ---
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	cold := newStoreSession(t, st1, sigs)
	coldRun := cold.post("/v1/run", runBody)
	coldBatch := cold.post("/v1/batch", batchBody)
	coldSnap := cold.sched.Snapshot()
	// 7 jobs total; the batch's (Compact2, sigs[0]) job re-reads the
	// /v1/run result already persisted in this same process life, so the
	// cold pass itself sees exactly one store hit and six misses.
	if coldSnap.Store == nil || coldSnap.Store.RunMisses != 6 || coldSnap.Store.RunHits != 1 {
		t.Fatalf("cold store stats = %+v, want 6 run misses / 1 run hit", coldSnap.Store)
	}
	if coldSnap.Store.Puts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", coldSnap.Store)
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// --- Warm process life: same dir, fresh cache and scheduler. ---
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	warm := newStoreSession(t, st2, sigs)
	warmRun := warm.post("/v1/run", runBody)
	warmBatch := warm.post("/v1/batch", batchBody)
	warmSnap := warm.sched.Snapshot()

	if !bytes.Equal(coldRun, warmRun) {
		t.Fatalf("warm /v1/run differs from cold:\ncold %s\nwarm %s", coldRun, warmRun)
	}
	if !bytes.Equal(coldBatch, warmBatch) {
		t.Fatalf("warm /v1/batch differs from cold:\ncold %s\nwarm %s", coldBatch, warmBatch)
	}
	// 1 run + 2 configs x 3 methods = 7 jobs, all answered by the store.
	if warmSnap.Store == nil || warmSnap.Store.RunHits != 7 {
		t.Fatalf("warm store stats = %+v, want 7 run hits", warmSnap.Store)
	}
	// A store run-hit precedes deployment, so the warm process never
	// touched the deploy pipeline at all.
	if warmSnap.Cache.Misses != 0 {
		t.Fatalf("warm run re-deployed: cache stats %+v", warmSnap.Cache)
	}

	// A new mesh-cycle bound is a run miss — the engine must execute —
	// but the deployment itself is served from the persistent store.
	warm.post("/v1/run", fmt.Sprintf(`{"config":"Compact2","method":%q,"maxMeshCycles":250000}`, sigs[0]))
	snap := warm.sched.Snapshot()
	if snap.Cache.StoreHits != 1 {
		t.Fatalf("deployment not read through the store: cache stats %+v", snap.Cache)
	}
}

// BenchmarkServeWarmRun is one warm POST /v1/run through the full
// handler (trace middleware, admission guard, decode, store read, encode)
// against a store-backed scheduler, with no network in the way. Every
// iteration must be a store hit.
func BenchmarkServeWarmRun(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	methods := hostableMethods(b, 1)
	sched := NewScheduler(SchedulerOptions{Workers: 2, Store: st})
	h := NewHandler(NewService(sched, sim.Configurations(), methods))
	body := []byte(fmt.Sprintf(`{"config":"Compact2","method":%q}`, methods[0].Signature()))
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	cold := serve().Body.Bytes()
	hits := st.Stats().RunHits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); i == 0 && !bytes.Equal(rec.Body.Bytes(), cold) {
			b.Fatalf("warm answer differs from the cold one")
		}
	}
	b.StopTimer()
	if got := st.Stats().RunHits - hits; got != int64(b.N) {
		b.Fatalf("%d store hits over %d warm requests", got, b.N)
	}
}
