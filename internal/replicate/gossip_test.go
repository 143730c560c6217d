package replicate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"javaflow/internal/replicate"
	"javaflow/internal/store"
)

// newGossipReplicator builds a push-enabled replicator: advertise is the
// URL peers reach this node at, and the hour-long pull interval guarantees
// that anything converging inside a test did so via push, not the repair
// loop.
func newGossipReplicator(t *testing.T, st *store.Store, advertise string, peers ...string) *replicate.Replicator {
	t.Helper()
	r, err := replicate.New(replicate.Options{
		Store:     st,
		Peers:     peers,
		Interval:  time.Hour,
		Advertise: advertise,
	})
	if err != nil {
		t.Fatalf("replicate.New: %v", err)
	}
	return r
}

// postNotify drives POST /v1/replicate/notify and decodes the outcome.
func postNotify(t *testing.T, base string, n replicate.Notification) (int, replicate.NotifyOutcome) {
	t.Helper()
	body, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/replicate/notify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST notify: %v", err)
	}
	defer resp.Body.Close()
	var out replicate.NotifyOutcome
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode outcome: %v", err)
		}
	}
	return resp.StatusCode, out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConvergenceAllToAllGossip is TestConvergenceAllToAll's push twin:
// three gossiping nodes run disjoint sweeps and must converge to the same
// byte-identical record set WITHOUT a second pull round — the replicate
// interval is an hour, so only the commit-triggered advertisements can
// explain convergence.
func TestConvergenceAllToAllGossip(t *testing.T) {
	methods := hostableMethods(t, 3)
	cfg := compact2(t)
	nodes := []*node{newNode(t, methods), newNode(t, methods), newNode(t, methods)}

	reps := make([]*replicate.Replicator, len(nodes))
	for i, n := range nodes {
		peers := make([]string, 0, 2)
		for j, p := range nodes {
			if j != i {
				peers = append(peers, p.ts.URL)
			}
		}
		reps[i] = newGossipReplicator(t, n.st, n.ts.URL, peers...)
		n.svc.SetReplicator(reps[i])
		stop := reps[i].Start()
		t.Cleanup(stop)
	}
	// Let each node finish its one startup pull round (over still-empty
	// stores) so the Rounds counter is quiescent before anything commits.
	for _, r := range reps {
		r := r
		waitFor(t, 5*time.Second, "startup round", func() bool { return r.Stats().Rounds >= 1 })
	}

	// Disjoint sweeps: node i computes only method i. Every append fires
	// the store hook, so the notifier advertises without being asked.
	for i, n := range nodes {
		n.compute(t, methods[i])
	}

	keys := make([]store.RunKey, len(methods))
	for i, m := range methods {
		keys[i] = store.RunKeyFor(cfg, m, testMaxCycles)
	}
	waitFor(t, 30*time.Second, "push convergence", func() bool {
		for _, n := range nodes {
			for _, k := range keys {
				if !n.st.HasRun(k) {
					return false
				}
			}
		}
		return true
	})

	// Byte-identical everywhere.
	for i, m := range methods {
		want := encodedRun(t, nodes[0].st, keys[i])
		for _, n := range nodes[1:] {
			if !bytes.Equal(encodedRun(t, n.st, keys[i]), want) {
				t.Fatalf("run %s differs across nodes", m.Signature())
			}
		}
	}

	// The proof: no node ran a second pull round, and every node was
	// caught up by at least one rumor-triggered pull.
	for i, r := range reps {
		s := r.Stats()
		if s.Rounds != 1 {
			t.Fatalf("node %d ran %d pull rounds; push convergence must not need more than the startup round", i, s.Rounds)
		}
		if s.Gossip == nil {
			t.Fatalf("node %d reports no gossip stats", i)
		}
		if s.Gossip.PullsTriggered == 0 {
			t.Fatalf("node %d converged without a rumor-triggered pull: %+v", i, s.Gossip)
		}
	}

	// Each node computed exactly its own method; everything else arrived
	// as bytes, never as an engine re-run.
	for i, n := range nodes {
		if misses := n.st.Stats().RunMisses; misses != 1 {
			t.Fatalf("node %d has %d engine misses, want exactly its own compute", i, misses)
		}
	}
}

// TestNotifyTrailingSlashSingleRumor pins the normalization contract: an
// origin spelled with a trailing slash is the same origin — one rumor
// dedup identity, one cursor namespace — not a fork.
func TestNotifyTrailingSlashSingleRumor(t *testing.T) {
	methods := hostableMethods(t, 1)
	cfg := compact2(t)
	src := newNode(t, methods)
	src.compute(t, methods[0])
	manifest, err := src.st.Manifest()
	if err != nil {
		t.Fatal(err)
	}

	dst := newNode(t, methods)
	dst.svc.SetReplicator(newGossipReplicator(t, dst.st, dst.ts.URL, src.ts.URL))

	// First notify, origin spelled with a trailing slash.
	status, out := postNotify(t, dst.ts.URL, replicate.Notification{
		Origin: src.ts.URL + "/", TTL: replicate.DefaultGossipTTL, Segments: manifest,
	})
	if status != http.StatusOK || out.Result != "pulled" || out.Ingested == 0 {
		t.Fatalf("slashed-origin notify: status %d outcome %+v, want a pull", status, out)
	}
	k := store.RunKeyFor(cfg, methods[0], testMaxCycles)
	if !bytes.Equal(encodedRun(t, dst.st, k), encodedRun(t, src.st, k)) {
		t.Fatal("notified pull not byte-identical")
	}

	// Same positions, canonical spelling: the rumor must dedup, not pull
	// again under a second identity.
	status, out = postNotify(t, dst.ts.URL, replicate.Notification{
		Origin: src.ts.URL, TTL: replicate.DefaultGossipTTL, Segments: manifest,
	})
	if status != http.StatusOK || out.Result != "duplicate" {
		t.Fatalf("canonical-origin notify: status %d outcome %+v, want duplicate", status, out)
	}

	// One cursor namespace: the canonical key exists, the slashed one
	// must not.
	if _, ok := dst.st.GetMeta(cursorMetaPrefix + src.ts.URL); !ok {
		t.Fatal("canonical cursor missing after notified pull")
	}
	if _, ok := dst.st.GetMeta(cursorMetaPrefix + src.ts.URL + "/"); ok {
		t.Fatal("trailing slash forked a second cursor namespace")
	}

	// Contract edges: a structurally empty notification is a 400, and a
	// pull-only node 404s the endpoint entirely.
	status, _ = postNotify(t, dst.ts.URL, replicate.Notification{TTL: 1})
	if status != http.StatusBadRequest {
		t.Fatalf("empty notification: status %d, want 400", status)
	}
	pullOnly := newNode(t, methods)
	pullOnly.svc.SetReplicator(newReplicator(t, pullOnly.st, src.ts.URL))
	status, _ = postNotify(t, pullOnly.ts.URL, replicate.Notification{
		Origin: src.ts.URL, TTL: 1, Segments: manifest,
	})
	if status != http.StatusNotFound {
		t.Fatalf("notify on pull-only node: status %d, want 404", status)
	}
}

// TestGossipRelayChain: a rumor hops A -> B -> C even though A never
// notifies C directly — B relays with TTL-1 — and a TTL of 1 stops the
// epidemic at the receiver.
func TestGossipRelayChain(t *testing.T) {
	methods := hostableMethods(t, 2)
	cfg := compact2(t)
	a := newNode(t, methods)
	b := newNode(t, methods)
	c := newNode(t, methods)

	aRep := newGossipReplicator(t, a.st, a.ts.URL, b.ts.URL)
	bRep := newGossipReplicator(t, b.st, b.ts.URL, a.ts.URL, c.ts.URL)
	cRep := newGossipReplicator(t, c.st, c.ts.URL, a.ts.URL)
	b.svc.SetReplicator(bRep)
	c.svc.SetReplicator(cRep)

	a.compute(t, methods[0])
	if err := aRep.AdvertiseNow(context.Background()); err != nil {
		t.Fatalf("advertise: %v", err)
	}

	// The receiver pulls synchronously before answering the POST, so A's
	// only peer is caught up the moment AdvertiseNow returns.
	k := store.RunKeyFor(cfg, methods[0], testMaxCycles)
	if !b.st.HasRun(k) {
		t.Fatal("first hop was not synchronous: B missing the key after AdvertiseNow")
	}

	// The second hop is B's detached relay: C is not A's peer, yet the
	// rumor reaches it (C pulls from A, the rumor's origin).
	waitFor(t, 10*time.Second, "relay to reach C", func() bool { return c.st.HasRun(k) })
	want := encodedRun(t, a.st, k)
	for _, n := range []*node{b, c} {
		if !bytes.Equal(encodedRun(t, n.st, k), want) {
			t.Fatal("relayed record not byte-identical")
		}
	}
	if g := bRep.Stats().Gossip; g.Relayed == 0 {
		t.Fatalf("B never relayed: %+v", g)
	}
	if g := cRep.Stats().Gossip; g.PullsTriggered != 1 {
		t.Fatalf("C gossip stats = %+v, want exactly one triggered pull", g)
	}

	// TTL floor: a fresh rumor delivered with TTL 1 is pulled but never
	// relayed onward.
	a.compute(t, methods[1])
	manifest, err := a.st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	out, err := bRep.HandleNotify(context.Background(), replicate.Notification{
		Origin: a.ts.URL, TTL: 1, Segments: manifest,
	})
	if err != nil || out.Result != "pulled" {
		t.Fatalf("TTL-1 notify: outcome %+v err %v, want a pull", out, err)
	}
	if out.Relayed != 0 {
		t.Fatalf("TTL-1 rumor was relayed to %d peer(s)", out.Relayed)
	}

	// A node's own rumor echoed back is ignored, and an origin outside
	// the peer list is dropped (nothing to pull from, nothing to relay).
	out, err = aRep.HandleNotify(context.Background(), replicate.Notification{
		Origin: a.ts.URL + "/", TTL: 2, Segments: manifest,
	})
	if err != nil || out.Result != "self" {
		t.Fatalf("echoed rumor: outcome %+v err %v, want self", out, err)
	}
	out, err = cRep.HandleNotify(context.Background(), replicate.Notification{
		Origin: b.ts.URL, TTL: 2, Segments: manifest,
	})
	if err != nil || out.Result != "unknown-origin" || out.Relayed != 0 {
		t.Fatalf("stranger rumor: outcome %+v err %v, want unknown-origin with no relay", out, err)
	}
}
