package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"javaflow/internal/sim"
)

// inlinePools are the two shapes RunPool runs on the caller's goroutine:
// a one-job batch under a wider pool, and a one-worker pool over many jobs.
var inlinePools = []struct {
	name    string
	jobs    int
	workers int
}{
	{"one-job", 1, 4},
	{"one-worker", 8, 1},
}

// poolTrace runs RunPool over n stub jobs and records the order of run
// and emit calls ("r0", "e0", ...). cancelAt >= 0 cancels the context
// from inside emit(cancelAt), as BatchStream does when the client leaves.
func poolTrace(ctx context.Context, n, workers, cancelAt int) ([]JobResult, []string) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i].Config.Name = strconv.Itoa(i)
	}
	var events []string
	run := func(_ context.Context, j Job) (sim.MethodRun, error) {
		events = append(events, "r"+j.Config.Name)
		return sim.MethodRun{Signature: "ok"}, nil
	}
	emit := func(i int, r JobResult) {
		events = append(events, fmt.Sprintf("e%d", i))
		if i == cancelAt {
			cancel()
		}
	}
	return RunPool(ctx, jobs, workers, run, emit), events
}

// TestRunPoolInlinePreCancelled: a cancelled context stamps every result
// with context.Canceled, never calls run, and still emits each index once,
// in order.
func TestRunPoolInlinePreCancelled(t *testing.T) {
	for _, tc := range inlinePools {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			results, events := poolTrace(ctx, tc.jobs, tc.workers, -1)
			var want []string
			for i := range results {
				if !errors.Is(results[i].Err, context.Canceled) {
					t.Fatalf("job %d: err = %v, want context.Canceled", i, results[i].Err)
				}
				want = append(want, fmt.Sprintf("e%d", i))
			}
			if !reflect.DeepEqual(events, want) {
				t.Fatalf("events = %v, want %v (no run, one emit per index)", events, want)
			}
		})
	}
}

// TestRunPoolInlineOrder: each job runs and is emitted before the next
// one starts — the loop runs on the caller, so run and emit interleave
// strictly.
func TestRunPoolInlineOrder(t *testing.T) {
	for _, tc := range inlinePools {
		t.Run(tc.name, func(t *testing.T) {
			results, events := poolTrace(context.Background(), tc.jobs, tc.workers, -1)
			var want []string
			for i, r := range results {
				if r.Err != nil || r.Run.Signature != "ok" {
					t.Fatalf("job %d: %+v", i, r)
				}
				want = append(want, fmt.Sprintf("r%d", i), fmt.Sprintf("e%d", i))
			}
			if !reflect.DeepEqual(events, want) {
				t.Fatalf("events = %v, want %v", events, want)
			}
		})
	}
}

// TestRunPoolInlineEmitCancels: cancelling from inside emit stops the
// batch there — later jobs report context.Canceled without running, and
// are still emitted once each, in order.
func TestRunPoolInlineEmitCancels(t *testing.T) {
	for _, tc := range inlinePools {
		t.Run(tc.name, func(t *testing.T) {
			cancelAt := tc.jobs / 2
			results, events := poolTrace(context.Background(), tc.jobs, tc.workers, cancelAt)
			var want []string
			for i, r := range results {
				if i <= cancelAt {
					if r.Err != nil {
						t.Fatalf("job %d ran before the cancel but reports %v", i, r.Err)
					}
					want = append(want, fmt.Sprintf("r%d", i))
				} else if !errors.Is(r.Err, context.Canceled) {
					t.Fatalf("job %d: err = %v, want context.Canceled", i, r.Err)
				}
				want = append(want, fmt.Sprintf("e%d", i))
			}
			if !reflect.DeepEqual(events, want) {
				t.Fatalf("events = %v, want %v", events, want)
			}
		})
	}
}
