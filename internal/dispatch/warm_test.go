package dispatch

import (
	"context"
	"reflect"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/scenario/chaos"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// hostableMethod returns one named-corpus method the given configuration
// accepts.
func hostableMethod(t *testing.T, cfg sim.Config) *classfile.Method {
	t.Helper()
	for _, m := range workload.NamedMethods() {
		if _, err := sim.DeployMethod(cfg, m); err == nil {
			return m
		}
	}
	t.Fatal("no hostable method")
	return nil
}

// TestDispatchWarmFallbackServesFromStore: the ring owner dies, but the
// local store already holds the key (replication pulled it, or this node
// computed it before). The job ends on the local scheduler, which reads
// through its store — byte-identical, with no engine run.
func TestDispatchWarmFallbackServesFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles, Store: st})
	cfg := testConfig(t, "Compact2")
	m := hostableMethod(t, cfg)

	// Warm the store (stands in for an anti-entropy pull of the dead
	// backend's segments).
	want, err := sched.RunMethodCycles(context.Background(), cfg, m, testMaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	runsAfterSeed := sim.TotalEngineStats().Runs

	dead := &chaos.FlakyBackend{Inner: NewRemote("http://192.0.2.1:1", nil), FailAfter: -1}
	dead.Kill()
	d, err := NewWithBackends([]Backend{dead}, Options{Local: sched})
	if err != nil {
		t.Fatal(err)
	}

	got := d.RunBatchCycles(context.Background(), []serve.Job{{Config: cfg, Method: m}}, testMaxCycles)
	if got[0].Err != nil {
		t.Fatalf("warm fallback failed: %v", got[0].Err)
	}
	if !reflect.DeepEqual(got[0].Run, want) {
		t.Fatal("warm fallback result differs from the computed run")
	}
	if runs := sim.TotalEngineStats().Runs; runs != runsAfterSeed {
		t.Fatalf("engine re-ran a warm key (engine runs %d -> %d)", runsAfterSeed, runs)
	}
	if stats := d.Stats(); stats.Retries != 1 || stats.LocalFallbacks != 1 {
		t.Fatalf("want one retry ending on the local scheduler, got %+v", stats)
	}
}
