package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"javaflow/internal/scenario"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// sweepGen sizes the sweep's population: 3,523 methods, so one sweep
// deploys 4 geometries x 3,523 = 14,092 placements, past the deployment
// cache's 12,288 entries, and runs for a few seconds.
const sweepGen = 3500

// expectedSweep is the sweep's known answer, kept in expected_sweep.json
// and regenerated in-process with -regen-expected.
type expectedSweep struct {
	Gen           int                     `json:"gen"`
	Seed          int64                   `json:"seed"`
	MaxCycles     int                     `json:"maxCycles"`
	Configs       []scenario.ConfigDigest `json:"configs"`
	Jobs          int64                   `json:"jobs"`
	Fired         uint64                  `json:"fired"`
	EngineRuns    uint64                  `json:"engineRuns"`
	Events        uint64                  `json:"events"`
	MeshCycles    uint64                  `json:"meshCycles"`
	CyclesSkipped uint64                  `json:"cyclesSkipped"`
}

//go:embed expected_sweep.json
var expectedJSON []byte

// writeExpected sweeps the population in-process on the scheduler and
// records the per-configuration digests and the engine totals.
func writeExpected(path string) error {
	pop := newPopulation(sweepGen)
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: runtime.GOMAXPROCS(0), MaxMeshCycles: maxCycles})
	exp := expectedSweep{Gen: sweepGen, Seed: popSeed, MaxCycles: maxCycles}
	before := sim.TotalEngineStats()
	for _, cfg := range pop.configs {
		cr, err := sched.RunAllCycles(context.Background(), cfg, pop.methods, maxCycles)
		if err != nil {
			return err
		}
		digest, err := scenario.DigestRuns(cr.Runs)
		if err != nil {
			return err
		}
		exp.Configs = append(exp.Configs, scenario.ConfigDigest{
			Config: cfg.Name, Methods: len(cr.Runs), Skipped: cr.Skipped, TimedOut: cr.TimedOut, Digest: digest,
		})
		for _, r := range cr.Runs {
			exp.Fired += uint64(r.BP1.Fired + r.BP2.Fired)
		}
		exp.Jobs += int64(len(pop.methods))
	}
	after := sim.TotalEngineStats()
	exp.EngineRuns = after.Runs - before.Runs
	exp.Events = after.Events - before.Events
	exp.MeshCycles = after.SimulatedMeshCycles - before.SimulatedMeshCycles
	exp.CyclesSkipped = after.CyclesSkipped - before.CyclesSkipped
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sweepOrder is the seeded order in which a sweep lists the population's
// methods; the server runs the jobs in request order.
func sweepOrder(pop *population, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(len(pop.methods))
}

// sweepBody is the sweep's one POST /v1/batch body: every method, in
// order, over every configuration (none named means all).
func sweepBody(pop *population, order []int) []byte {
	req := serve.BatchRequest{}
	for _, i := range order {
		req.Methods = append(req.Methods, pop.methods[i].Signature())
	}
	body, _ := json.Marshal(req) // a struct of strings always encodes
	return body
}

// sweepTally collects one sweep's streamed answers.
type sweepTally struct {
	runs     map[string]map[string]sim.MethodRun // config -> signature -> run
	skipped  map[string]int
	timedOut map[string]int
	bad      int64 // error events, malformed lines, missing answers
}

func newTally() *sweepTally {
	return &sweepTally{
		runs:     make(map[string]map[string]sim.MethodRun),
		skipped:  make(map[string]int),
		timedOut: make(map[string]int),
	}
}

// add folds one NDJSON response body in; jobs is how many job events it
// must carry.
func (t *sweepTally) add(status int, body []byte, jobs int) {
	if status != http.StatusOK {
		t.bad += int64(jobs)
		return
	}
	seen := 0
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev serve.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.bad++
			continue
		}
		switch ev.Type {
		case "run":
			seen++
			if ev.Run == nil || ev.Run.Config != ev.Config {
				t.bad++
				continue
			}
			if t.runs[ev.Config] == nil {
				t.runs[ev.Config] = make(map[string]sim.MethodRun)
			}
			t.runs[ev.Config][ev.Signature] = sim.MethodRun{Signature: ev.Run.Signature, BP1: ev.Run.BP1, BP2: ev.Run.BP2}
		case "skip":
			seen++
			t.skipped[ev.Config]++
		case "timeout":
			seen++
			t.timedOut[ev.Config]++
		case "summary":
		default:
			seen++
			t.bad++
		}
	}
	if seen < jobs {
		t.bad += int64(jobs - seen)
	}
}

// verify compares the tally with the expected digests, in registry order,
// returning the number of wrong answers and the instructions fired.
func (t *sweepTally) verify(pop *population, exp expectedSweep) (wrong int64, fired uint64, err error) {
	for i, cfg := range pop.configs {
		want := exp.Configs[i]
		var runs []sim.MethodRun
		for _, m := range pop.methods {
			if r, ok := t.runs[cfg.Name][m.Signature()]; ok {
				runs = append(runs, r)
				fired += uint64(r.BP1.Fired + r.BP2.Fired)
			}
		}
		digest, err := scenario.DigestRuns(runs)
		if err != nil {
			return 0, 0, err
		}
		if want.Config != cfg.Name || digest != want.Digest || len(runs) != want.Methods ||
			t.skipped[cfg.Name] != want.Skipped || t.timedOut[cfg.Name] != want.TimedOut {
			fmt.Fprintf(os.Stderr, "perfbench: sweep %s: %d runs digest %s, want %d runs digest %s\n",
				cfg.Name, len(runs), digest, want.Methods, want.Digest)
			wrong += int64(len(pop.methods))
		}
	}
	return wrong + t.bad, fired, nil
}

// sweepRun is one sweep's outside-in figures.
type sweepRun struct {
	setup   float64
	jobs    int64
	wrong   int64
	cpu     float64
	rss     float64
	lat     time.Duration // the sweep request, send to last byte
	late    time.Duration // end of set-up to the request's send
	genCPU  float64
	before  phaseSnapshot
	after   phaseSnapshot
	servers []*server
}

// oneSweep starts a fresh jfserved on an empty store and has one caller
// post the whole sweep as one streamed batch and read the answer to its
// end. The server is left running for the caller to inspect and stop.
func oneSweep(ctx context.Context, o options, procs *procSet, pop *population, exp expectedSweep, order []int, dir string) (sweepRun, error) {
	var sr sweepRun
	t0 := time.Now()
	srv, err := procs.start(ctx, o.bin, append(pop.serverArgs(), "-workers", fmt.Sprint(nconns), "-store-dir", dir)...)
	if err != nil {
		return sr, err
	}
	sr.servers = []*server{srv}
	wire := renderPost(srv.base, "/v1/batch?stream=ndjson", sweepBody(pop, order))
	c, err := dial(srv.base)
	if err != nil {
		return sr, err
	}
	defer c.nc.Close()
	if sr.before, err = snapshotServers(ctx, sr.servers); err != nil {
		return sr, err
	}
	selfCPU := selfCPUSeconds()
	tally := newTally()
	start := time.Now()
	sr.setup = start.Sub(t0).Seconds()
	t := time.Now()
	sr.late = t.Sub(start)
	status, body, err := c.roundTrip(wire)
	if err != nil {
		return sr, fmt.Errorf("sweep request: %w", err)
	}
	sr.lat = time.Since(t)
	sr.jobs = int64(len(order) * len(pop.configs))
	tally.add(status, body, int(sr.jobs))
	sr.genCPU = selfCPUSeconds() - selfCPU
	if sr.after, err = snapshotServers(ctx, sr.servers); err != nil {
		return sr, err
	}
	sr.cpu = sr.after.cpu[0] - sr.before.cpu[0]
	if sr.rss, err = peakRSSMB(srv.pid()); err != nil {
		return sr, err
	}
	wrong, fired, err := tally.verify(pop, exp)
	if err != nil {
		return sr, err
	}
	sr.wrong = wrong
	// Determinism self-check: the simulated work of a sweep is fixed by
	// the population alone.
	got := expectedSweep{
		Fired:         fired,
		EngineRuns:    sr.after.engineRuns - sr.before.engineRuns,
		Events:        sr.after.engineEvents - sr.before.engineEvents,
		MeshCycles:    sr.after.engineCycles - sr.before.engineCycles,
		CyclesSkipped: sr.after.engineSkipped - sr.before.engineSkipped,
	}
	if wrong == 0 && (got.Fired != exp.Fired || got.EngineRuns != exp.EngineRuns || got.Events != exp.Events ||
		got.MeshCycles != exp.MeshCycles || got.CyclesSkipped != exp.CyclesSkipped) {
		return sr, fmt.Errorf("%w: sweep fired %d, engine runs %d, events %d, mesh cycles %d, skipped %d; want %d, %d, %d, %d, %d",
			errNondeterminism, got.Fired, got.EngineRuns, got.Events, got.MeshCycles, got.CyclesSkipped,
			exp.Fired, exp.EngineRuns, exp.Events, exp.MeshCycles, exp.CyclesSkipped)
	}
	return sr, nil
}

// runSweep drives the sweep workload: fresh-store sweeps, one after the
// other, for the run's time budget (at least three, so set-up time has a
// median).
func runSweep(ctx context.Context, o options, procs *procSet) (result, error) {
	var res result
	var exp expectedSweep
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return res, fmt.Errorf("expected_sweep.json: %w", err)
	}
	pop := newPopulation(sweepGen)
	if exp.Gen != sweepGen || exp.Seed != popSeed || exp.MaxCycles != maxCycles || len(exp.Configs) != len(pop.configs) {
		return res, fmt.Errorf("expected_sweep.json is for another population; regenerate it with -regen-expected")
	}
	order := sweepOrder(pop, o.seed)

	if o.trace {
		return traceSweep(ctx, o, procs, pop, exp, order)
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var runs []sweepRun
	for k := 0; ; k++ {
		t := time.Now()
		sr, err := oneSweep(ctx, o, procs, pop, exp, order, filepath.Join(o.work, fmt.Sprintf("store-%d", k)))
		for _, s := range sr.servers {
			procs.stop(s)
		}
		if err != nil {
			return res, err
		}
		runs = append(runs, sr)
		res.Attempted += sr.jobs
		res.Failed += sr.wrong
		fmt.Fprintf(os.Stderr, "perfbench: sweep %d: %d jobs in %.2fs (set-up %.3fs), server cpu %.2fs, rss %.0f MB\n",
			k, sr.jobs, sr.lat.Seconds(), sr.setup, sr.cpu, sr.rss)
		if k >= 2 && time.Since(start)+time.Since(t) > budget {
			break
		}
	}

	var setups, rates, rss []float64
	var lat []time.Duration // one sweep request each
	cpu, jobs := 0.0, int64(0)
	for _, sr := range runs {
		setups = append(setups, sr.setup)
		rates = append(rates, float64(sr.jobs)/sr.lat.Seconds())
		rss = append(rss, sr.rss)
		lat = append(lat, sr.lat)
		cpu += sr.cpu
		jobs += sr.jobs
	}
	res.Correct = res.Failed == 0
	res.set("setup_s", "s", median(setups))
	res.set("p50_ms", "ms", ms(quantile(lat, 0.5)))
	res.set("capacity_ops_s", "1/s", median(rates))
	res.set("cpu_us_per_op", "us", cpu/float64(jobs)*1e6)
	res.set("rss_mb", "MB", median(rss))
	return res, nil
}

// traceSweep is the sweep's traced run: one outside-in sweep for the
// counters, then the in-process replay of the same request with probes.
func traceSweep(ctx context.Context, o options, procs *procSet, pop *population, exp expectedSweep, order []int) (result, error) {
	var res result
	sr, err := oneSweep(ctx, o, procs, pop, exp, order, filepath.Join(o.work, "store-0"))
	for _, s := range sr.servers {
		procs.stop(s)
	}
	if err != nil {
		return res, err
	}
	res.Attempted += sr.jobs
	res.Failed += sr.wrong
	res.set("e2e.p99_ms", "ms", ms(sr.lat))
	res.set("loadgen.late_us_p50", "us", us(sr.late))
	res.set("loadgen.late_us_p99", "us", us(sr.late))
	res.set("loadgen.cpu_us_per_req", "us", sr.genCPU*1e6)
	// One process receives the sweep and runs its jobs.
	res.set("server.recv_cpu_us_per_op", "us", sr.cpu/float64(sr.jobs)*1e6)
	res.set("server.exec_cpu_us_per_op", "us", sr.cpu/float64(sr.jobs)*1e6)
	res.set("sweep.rss_mb_per_kjob", "MB", sr.rss/(float64(sr.jobs)/1000))
	sr.after.setCounters(&res, sr.before, sr.lat.Seconds(), nconns)

	tr, err := replaySweep(ctx, o, pop, order)
	if err != nil {
		return res, err
	}
	res.add(tr)
	// The engine figures come from the whole outside-in sweep, whose
	// simulated work was just checked against the expected totals.
	jobs := float64(exp.EngineRuns) / 2
	res.set("sim.events_per_job", "count", float64(exp.Events)/jobs)
	res.set("sim.mesh_cycles_per_job", "count", float64(exp.MeshCycles)/jobs)
	res.set("sim.cycles_skipped_ratio", "ratio", float64(exp.CyclesSkipped)/float64(exp.MeshCycles))
	res.Correct = res.Failed == 0
	return res, nil
}

// replaySweep replays the sweep request in-process twice, each time on a
// fresh store so every job is cold: untraced, then traced with probes on
// every job. It then reopens the store the traced pass wrote (timed, as
// store.open_ms).
func replaySweep(ctx context.Context, o options, pop *population, order []int) (result, error) {
	var out result
	var jobs []serve.Job
	for _, cfg := range pop.configs {
		for _, k := range order {
			jobs = append(jobs, serve.Job{Config: cfg, Method: pop.methods[k]})
		}
	}
	lines := len(jobs) + len(pop.configs)
	item := traceItem{
		path: "/v1/batch?stream=ndjson",
		body: sweepBody(pop, order),
		check: func(status int, body []byte) bool {
			return status == http.StatusOK && bytes.Count(body, []byte("\n")) == lines &&
				!bytes.Contains(body, []byte(`"type":"error"`))
		},
		jobs: jobs,
	}

	ust, err := store.Open(filepath.Join(o.work, "untraced-store"), store.Options{})
	if err != nil {
		return out, err
	}
	untraced := serveUntraced(ctx, newStack(pop, ust).handler, []traceItem{item}, time.Hour, &out)
	if err := ust.Close(); err != nil {
		return out, err
	}

	dir := filepath.Join(o.work, "trace-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return out, err
	}
	stk := newStack(pop, st)
	if err := stk.listen(); err != nil {
		st.Close()
		return out, err
	}
	rec := newRecorder()
	probes, err := newProbeSet(rec, stk.svc, stk, filepath.Join(o.work, "probe-store"))
	if err != nil {
		stk.close()
		st.Close()
		return out, err
	}
	err = replay(ctx, stk.svc, stk.handler, probes, []traceItem{item}, untraced, time.Hour, &out)
	stk.close()
	if cerr := probes.close(); err == nil {
		err = cerr
	}
	if err != nil {
		st.Close()
		return out, err
	}
	if err := st.Flush(); err != nil {
		st.Close()
		return out, err
	}
	// Only the replayed request writes this store: the dispatch probes
	// that reach it find every job already stored.
	out.set("store.bytes_appended_per_job", "bytes", float64(st.Stats().BytesAppended)/float64(len(jobs)))
	if err := st.Close(); err != nil {
		return out, err
	}
	t := time.Now()
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		return out, err
	}
	out.set("store.open_ms", "ms", ms(time.Since(t)))
	if err := st.Close(); err != nil {
		return out, err
	}
	return out, writeTrace(o, rec)
}
