package replicate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/replicate"
	"javaflow/internal/scenario/chaos"
	"javaflow/internal/scenario/chaosfs"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

const testMaxCycles = 200_000

// cursorMetaPrefix mirrors the replicator's store-meta namespace — pinned
// here so a rename upstream fails a test instead of silently orphaning
// persisted cursors.
const cursorMetaPrefix = "replcursor|"

func compact2(t testing.TB) sim.Config {
	t.Helper()
	for _, cfg := range sim.Configurations() {
		if cfg.Name == "Compact2" {
			return cfg
		}
	}
	t.Fatal("no Compact2 configuration")
	return sim.Config{}
}

// hostableMethods returns n named-corpus methods the Compact2 fabric
// accepts — methods whose runs every node can both compute and serve.
func hostableMethods(t testing.TB, n int) []*classfile.Method {
	t.Helper()
	cfg := compact2(t)
	var out []*classfile.Method
	for _, m := range workload.NamedMethods() {
		if _, err := sim.DeployMethod(cfg, m); err == nil {
			out = append(out, m)
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("only %d hostable methods, want %d", len(out), n)
	return nil
}

// node is one simulated jfserved: its own store directory, scheduler,
// service, and HTTP server.
type node struct {
	dir   string
	st    *store.Store
	sched *serve.Scheduler
	svc   *serve.Service
	ts    *httptest.Server
}

func newNode(t *testing.T, methods []*classfile.Method) *node {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers:       2,
		MaxMeshCycles: testMaxCycles,
		Store:         st,
	})
	svc := serve.NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(serve.NewHandler(svc))
	n := &node{dir: dir, st: st, sched: sched, svc: svc, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return n
}

// compute runs m on this node's scheduler (persisting the result) and
// flushes the store so the segment bytes are pullable.
func (n *node) compute(t *testing.T, m *classfile.Method) sim.MethodRun {
	t.Helper()
	run, err := n.sched.RunMethodCycles(context.Background(), compact2(t), m, testMaxCycles)
	if err != nil {
		t.Fatalf("compute %s: %v", m.Signature(), err)
	}
	if err := n.st.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return run
}

func newReplicator(t *testing.T, st *store.Store, peers ...string) *replicate.Replicator {
	t.Helper()
	r, err := replicate.New(replicate.Options{Store: st, Peers: peers})
	if err != nil {
		t.Fatalf("replicate.New: %v", err)
	}
	return r
}

func syncNow(t *testing.T, r *replicate.Replicator) {
	t.Helper()
	if err := r.SyncNow(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// encodedRun fetches k from st and returns the stable binary encoding.
func encodedRun(t *testing.T, st *store.Store, k store.RunKey) []byte {
	t.Helper()
	run, ok := st.GetRun(k)
	if !ok {
		t.Fatalf("key %s missing", k.Signature)
	}
	data, err := run.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestConvergenceAllToAll is the acceptance contract: three nodes run
// disjoint sweeps, replicate all-to-all, and every store must converge to
// the same live-record set, with every record byte-identical to the node
// that computed it — no engine re-runs.
func TestConvergenceAllToAll(t *testing.T) {
	methods := hostableMethods(t, 3)
	cfg := compact2(t)
	nodes := []*node{newNode(t, methods), newNode(t, methods), newNode(t, methods)}

	// Disjoint sweeps: node i computes only method i.
	for i, n := range nodes {
		n.compute(t, methods[i])
	}

	// One all-to-all anti-entropy round.
	for i, n := range nodes {
		peers := make([]string, 0, 2)
		for j, p := range nodes {
			if j != i {
				peers = append(peers, p.ts.URL)
			}
		}
		syncNow(t, newReplicator(t, n.st, peers...))
	}

	// Every node serves every run, byte-identical to every other node.
	for _, m := range methods {
		k := store.RunKeyFor(cfg, m, testMaxCycles)
		want := encodedRun(t, nodes[0].st, k)
		for _, n := range nodes[1:] {
			if !bytes.Equal(encodedRun(t, n.st, k), want) {
				t.Fatalf("run %s differs across nodes", m.Signature())
			}
		}
	}

	// Convergence in the admin report: identical payload record counts
	// (meta records are node-local cursors and excluded by contract).
	base := nodes[0].st.Admin()
	if base.Records-base.MetaRecords == 0 {
		t.Fatal("no payload records after convergence")
	}
	for _, n := range nodes[1:] {
		rep := n.st.Admin()
		if rep.Records-rep.MetaRecords != base.Records-base.MetaRecords {
			t.Fatalf("payload record counts diverge: %d vs %d",
				rep.Records-rep.MetaRecords, base.Records-base.MetaRecords)
		}
	}

	// HTTP contract: GET /v1/run for any key is byte-identical across
	// nodes and a pure store hit — zero additional engine runs.
	misses := make([]int64, len(nodes))
	for i, n := range nodes {
		misses[i] = n.st.Stats().RunMisses
	}
	for _, m := range methods {
		var want []byte
		for i, n := range nodes {
			body := postRun(t, n.ts.URL, "Compact2", m.Signature())
			if i == 0 {
				want = body
			} else if !bytes.Equal(body, want) {
				t.Fatalf("POST /v1/run %s differs between node 0 and node %d:\n%s\nvs\n%s",
					m.Signature(), i, want, body)
			}
		}
	}
	for i, n := range nodes {
		if got := n.st.Stats().RunMisses; got != misses[i] {
			t.Fatalf("node %d re-ran the engine for replicated keys (misses %d -> %d)", i, misses[i], got)
		}
	}
}

func postRun(t *testing.T, base, cfgName, sig string) []byte {
	t.Helper()
	body, err := json.Marshal(serve.RunRequest{Config: cfgName, Method: sig})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run %s: status %d: %s", sig, resp.StatusCode, data)
	}
	return data
}

// TestConvergenceTransitiveChain: records hop through intermediate nodes
// (epidemic propagation) — C pulls only from B, B only from A, yet A's
// record reaches C because ingested records land in B's own segments.
func TestConvergenceTransitiveChain(t *testing.T) {
	methods := hostableMethods(t, 1)
	cfg := compact2(t)
	a := newNode(t, methods)
	b := newNode(t, methods)
	c := newNode(t, methods)
	a.compute(t, methods[0])

	syncNow(t, newReplicator(t, b.st, a.ts.URL))
	syncNow(t, newReplicator(t, c.st, b.ts.URL))

	k := store.RunKeyFor(cfg, methods[0], testMaxCycles)
	if !bytes.Equal(encodedRun(t, c.st, k), encodedRun(t, a.st, k)) {
		t.Fatal("record did not propagate A -> B -> C byte-identically")
	}
}

// TestCursorPersistence: a fresh replicator over the same store resumes
// from the persisted cursor — nothing is re-fetched, nothing re-offered.
func TestCursorPersistence(t *testing.T) {
	methods := hostableMethods(t, 1)
	src := newNode(t, methods)
	src.compute(t, methods[0])

	dst := newNode(t, methods)
	r1 := newReplicator(t, dst.st, src.ts.URL)
	syncNow(t, r1)
	s1 := r1.Stats()
	if len(s1.Peers) != 1 || s1.Peers[0].BytesFetched == 0 || s1.Peers[0].RecordsIngested == 0 {
		t.Fatalf("first sync stats = %+v, want a real pull", s1.Peers)
	}
	if !s1.Peers[0].CaughtUp {
		t.Fatalf("first sync did not catch up: %+v", s1.Peers[0])
	}
	if _, ok := dst.st.GetMeta(cursorMetaPrefix + src.ts.URL); !ok {
		t.Fatal("cursor not persisted in the store")
	}

	// A brand-new replicator (a restarted daemon) must pick the cursor up
	// from the store and fetch zero bytes.
	r2 := newReplicator(t, dst.st, src.ts.URL)
	syncNow(t, r2)
	s2 := r2.Stats()
	if s2.Peers[0].BytesFetched != 0 || s2.Peers[0].RecordsIngested != 0 || s2.Peers[0].RecordsSkipped != 0 {
		t.Fatalf("resumed sync re-fetched: %+v", s2.Peers[0])
	}
	if !s2.Peers[0].CaughtUp {
		t.Fatalf("resumed sync not caught up: %+v", s2.Peers[0])
	}
}

// TestCrashMidIngestReplaysFromDurableCursor extends the corruption
// harness across the wire: a destination crash tears its ingested tail
// and the cursor behind it; after reopening, the next round re-fetches
// from the last durable point and converges.
func TestCrashMidIngestReplaysFromDurableCursor(t *testing.T) {
	methods := hostableMethods(t, 3)
	cfg := compact2(t)
	src := newNode(t, methods)
	for _, m := range methods {
		src.compute(t, m)
	}

	dstDir := t.TempDir()
	dst, err := store.Open(dstDir, store.Options{})
	if err != nil {
		t.Fatalf("open dst: %v", err)
	}
	syncNow(t, newReplicator(t, dst, src.ts.URL))
	full := dst.Len() // runs + deployments + the cursor meta record
	if err := dst.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Crash: tear the tail of the destination's only segment — the cursor
	// record (appended last) plus part of the final ingested record.
	seg, err := chaosfs.LastSegment(dstDir)
	if err != nil {
		t.Fatalf("no destination segments: %v", err)
	}
	// 160 bytes reaches past the ~100-byte cursor record, into the last
	// data record.
	if err := chaosfs.TruncateTail(seg, 160); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	dst2, err := store.Open(dstDir, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dst2.Close()
	if _, ok := dst2.GetMeta(cursorMetaPrefix + src.ts.URL); ok {
		t.Fatal("cursor survived the tear that lost its records")
	}
	// The tear must have cost the cursor plus at least one data record.
	before := dst2.Len()
	if before > full-2 {
		t.Fatalf("tear lost too little (%d of %d records live)", before, full)
	}

	r := newReplicator(t, dst2, src.ts.URL)
	syncNow(t, r)
	for _, m := range methods {
		k := store.RunKeyFor(cfg, m, testMaxCycles)
		if !bytes.Equal(encodedRun(t, dst2, k), encodedRun(t, src.st, k)) {
			t.Fatalf("record %s not byte-identical after recovery", m.Signature())
		}
	}
	st := r.Stats()
	if st.Peers[0].BytesFetched == 0 || !st.Peers[0].CaughtUp {
		t.Fatalf("recovery round stats = %+v, want a re-fetch that catches up", st.Peers[0])
	}
}

// TestPartialRoundKeepsCursorProgress: when one segment of a round fails
// to fetch, the progress made on earlier segments must be kept (cursor
// persisted) so the next round re-fetches only the failed segment onward.
func TestPartialRoundKeepsCursorProgress(t *testing.T) {
	srcDir := t.TempDir()
	// MaxSegmentBytes 1 rotates on every append: one record per segment.
	src, err := store.Open(srcDir, store.Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	cfg := compact2(t)
	m := hostableMethods(t, 1)[0]
	run, err := (&sim.Runner{MaxMeshCycles: testMaxCycles}).RunMethod(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	var keys []store.RunKey
	for i := 0; i < 3; i++ {
		k := store.RunKeyFor(cfg, m, testMaxCycles)
		k.Signature = fmt.Sprintf("%s#%d", k.Signature, i)
		keys = append(keys, k)
		src.PutRun(k, run)
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	manifest, err := src.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest) < 2 {
		t.Fatalf("want >=2 source segments, got %+v", manifest)
	}
	lastSeq := manifest[len(manifest)-1].Seq

	// Serve the source through a flap gate that can fail the last segment.
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: src})
	gate := &chaos.FlapGate{
		Inner: serve.NewHandler(serve.NewService(sched, sim.Configurations(), nil)),
		Match: func(r *http.Request) bool {
			return r.URL.Path == fmt.Sprintf("/v1/replicate/segment/%d", lastSeq)
		},
	}
	ts := httptest.NewServer(gate)
	t.Cleanup(ts.Close)

	dst, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	r := newReplicator(t, dst, ts.URL)

	gate.Down()
	if err := r.SyncNow(context.Background()); err == nil {
		t.Fatal("sync succeeded despite the injected segment failure")
	}
	if gate.Faults() == 0 {
		t.Fatal("flap gate never rejected the targeted segment fetch")
	}
	s1 := r.Stats().Peers[0]
	if s1.BytesFetched == 0 || s1.CaughtUp || s1.LastError == "" {
		t.Fatalf("partial round stats = %+v, want progress recorded with an error", s1)
	}
	if _, ok := dst.GetMeta(cursorMetaPrefix + ts.URL); !ok {
		t.Fatal("partial progress was not persisted")
	}

	gate.Up()
	syncNow(t, r)
	s2 := r.Stats().Peers[0]
	// The recovery round must fetch only the failed tail, not re-download
	// the already-ingested prefix.
	var total int64
	for _, seg := range manifest {
		total += seg.Size
	}
	delta := s2.BytesFetched - s1.BytesFetched
	if delta <= 0 || delta >= total {
		t.Fatalf("recovery fetched %d of %d log bytes after %d, want only the failed remainder",
			delta, total, s1.BytesFetched)
	}
	if !s2.CaughtUp || s2.LastError != "" {
		t.Fatalf("recovery round stats = %+v, want caught up", s2)
	}
	for _, k := range keys {
		if !dst.HasRun(k) {
			t.Fatalf("key %s missing after recovery", k.Signature)
		}
	}
}

// TestForcedSyncEndpoint drives POST /v1/replicate/sync end to end: the
// destination daemon pulls on demand and reports its replication stats.
func TestForcedSyncEndpoint(t *testing.T) {
	methods := hostableMethods(t, 1)
	src := newNode(t, methods)
	src.compute(t, methods[0])

	dst := newNode(t, methods)
	dst.svc.SetReplicator(newReplicator(t, dst.st, src.ts.URL))

	resp, err := http.Post(dst.ts.URL+"/v1/replicate/sync", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST sync: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST sync: status %d: %s", resp.StatusCode, body)
	}
	var stats replicate.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Rounds != 1 || len(stats.Peers) != 1 || stats.Peers[0].RecordsIngested == 0 {
		t.Fatalf("sync stats = %+v, want one round with ingested records", stats)
	}
	k := store.RunKeyFor(compact2(t), methods[0], testMaxCycles)
	if !dst.st.HasRun(k) {
		t.Fatal("forced sync did not ingest the record")
	}

	// Without a replicator the endpoint 404s.
	bare := newNode(t, methods)
	resp2, err := http.Post(bare.ts.URL+"/v1/replicate/sync", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST sync: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("sync without replicator: status %d, want 404", resp2.StatusCode)
	}
}
