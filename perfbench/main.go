// Command perfbench is the repository benchmark. It starts real jfserved
// processes, drives one workload against them from this process, checks
// every answer, reads each server's CPU and peak RSS from /proc, and
// prints the end-to-end metrics as one JSON line. With -trace 1 it
// instead prints the per-layer metrics: outside-in counters from a
// shortened real run plus spans from an in-process replay of the same
// seeded request sequence (see trace.go).
//
// Run it through run.sh from the repository root, which builds jfserved
// and this command first:
//
//	bash perfbench/run.sh --workload warm-run --seed 1 --seconds 30 --trace 0
//
// Exit codes: 0 result printed; 1 set-up or I/O error; 2 bad usage; 3 the load
// generator ran too late for the latency figures to mean anything; 4 a
// determinism self-check failed. No result line is printed unless the
// code is 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// add folds another part of the run into r: its answers and metrics.
func (r *result) add(o result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for name, m := range o.Metrics {
		r.set(name, m.Unit, m.Value)
	}
}

// options is the parsed command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	bin       string // directory holding the jfserved binary
	work      string // working directory for store dirs and spans
	warmRate  float64
	fleetRate float64
}

// Errors that end a run without a result line, each with its own exit
// code.
var (
	errInvalidRun     = errors.New("invalid run")
	errNondeterminism = errors.New("determinism self-check failed")
)

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, o options, procs *procSet) (result, error){
	"warm-run":  func(ctx context.Context, o options, p *procSet) (result, error) { return runWarm(ctx, o, p, false) },
	"fleet-run": func(ctx context.Context, o options, p *procSet) (result, error) { return runWarm(ctx, o, p, true) },
	"sweep":     runSweep,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: warm-run, sweep or fleet-run")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (same seed, same inputs)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the jfserved binary")
	flag.StringVar(&o.work, "work", ".bench_build/work", "working directory for server store dirs and span files")
	flag.Float64Var(&o.warmRate, "warm-rate", 6000, "open-loop request rate of warm-run (req/s)")
	flag.Float64Var(&o.fleetRate, "fleet-rate", 1800, "open-loop request rate of fleet-run (req/s)")
	regen := flag.String("regen-expected", "", "recompute the sweep's expected digests into this file and exit")
	flag.Parse()
	o.trace = traceFlag != 0

	if *regen != "" {
		if err := writeExpected(*regen); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (warm-run, sweep or fleet-run) and -seconds > 0\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o.work = work

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	procs := &procSet{}
	start := time.Now()
	res, err := func() (result, error) {
		defer procs.stopAll()
		return run(ctx, o, procs)
	}()
	stop()
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", work, rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		switch {
		case errors.Is(err, errInvalidRun):
			os.Exit(3)
		case errors.Is(err, errNondeterminism):
			os.Exit(4)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", o.workload, o.seed, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
