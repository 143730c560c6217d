package serve

import (
	"context"
	"testing"

	"javaflow/internal/sim"
)

// The /metrics engine block must reflect real engine activity: after a
// scheduler executes a method, the process totals grow and the snapshot
// carries non-zero throughput gauges.
func TestMetricsEngineThroughput(t *testing.T) {
	methods := hostableMethods(t, 1)
	cfg := testConfig(t, "Compact2")
	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles})

	before := sim.TotalEngineStats()
	if _, err := sched.RunMethodCycles(context.Background(), cfg, methods[0], 0); err != nil {
		t.Fatal(err)
	}
	snap := sched.Snapshot()
	eng := snap.Engine
	if eng.Runs < before.Runs+2 {
		t.Fatalf("engine runs %d, want at least %d (both branch policies)", eng.Runs, before.Runs+2)
	}
	if eng.SimulatedMeshCycles <= before.SimulatedMeshCycles {
		t.Error("no simulated mesh cycles recorded")
	}
	if eng.Events <= before.Events {
		t.Error("no events recorded")
	}
	if eng.MeshCyclesPerSec <= 0 || eng.EventsPerSec <= 0 {
		t.Errorf("zero throughput gauges: %+v", eng)
	}
}
