package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	// warmGen is the population warm-run and fleet-run serve: jfserved's
	// default corpus (1,603 methods).
	warmGen = 1580
	// warmPairs is the working-set size: hostable (method, config) pairs
	// preloaded into the store before measuring.
	warmPairs = 1024
	// setupRepeats is how many times a run sets up the servers; setup_s
	// is the median.
	setupRepeats = 5
	// nconns is the generator's connection (and sending goroutine) bound:
	// the box's core count.
	nconns = 2
)

// topology is the set of servers one warm run drives. Either way one
// process executes jobs: the single node, or the fleet's backend.
type topology struct {
	front *server   // receives the requests
	all   []*server // every process, front first
}

// startWarm execs the servers of one warm set-up in a fresh store dir and
// preloads the working set through the front. It returns the topology
// and the preload's answers.
func startWarm(ctx context.Context, o options, procs *procSet, pop *population, fleet bool, dir string, preload []request) (*topology, phaseResult, error) {
	args := append(pop.serverArgs(), "-workers", fmt.Sprint(nconns), "-store-dir", dir)
	first, err := procs.start(ctx, o.bin, args...)
	if err != nil {
		return nil, phaseResult{}, err
	}
	t := &topology{front: first, all: []*server{first}}
	if fleet {
		// The backend owns the warm store; the front has none and reaches
		// it only through dispatch.
		front, err := procs.start(ctx, o.bin, append(pop.serverArgs(), "-workers", fmt.Sprint(nconns), "-peers", first.base)...)
		if err != nil {
			return nil, phaseResult{}, err
		}
		t.front, t.all = front, []*server{front, first}
	}
	wire := make([]request, len(preload))
	for i, r := range preload {
		wire[i] = request{wire: renderPost(t.front.base, "/v1/run", r.wire), want: r.want}
	}
	pr, err := closedLoop(ctx, t.front.base, nconns, 0, wire)
	return t, pr, err
}

// rebase re-renders request bodies for a server address.
func rebase(base string, pairs []*pair, seq []int) []request {
	out := make([]request, len(seq))
	for i, k := range seq {
		out[i] = request{wire: renderPost(base, "/v1/run", pairs[k].body), want: pairs[k].want}
	}
	return out
}

// runWarm drives warm-run (one jfserved with a preloaded store) or, with
// fleet, fleet-run (a dispatch front plus one preloaded backend): set-up
// with preload, an open-loop phase at the workload's fixed rate, then a
// closed-loop capacity phase with nconns connections.
func runWarm(ctx context.Context, o options, procs *procSet, fleet bool) (result, error) {
	var res result
	rate := o.warmRate
	if fleet {
		rate = o.fleetRate
	}
	pop := newPopulation(warmGen)
	pairs, err := pop.workingSet(o.seed, warmPairs)
	if err != nil {
		return res, err
	}
	preload := make([]request, len(pairs))
	for i, p := range pairs {
		preload[i] = request{wire: p.body, want: p.want}
	}

	openSecs, closedSecs, warmupSecs := 0.55*o.seconds, 0.3*o.seconds, 0.05*o.seconds
	repeats := setupRepeats
	if o.trace {
		// The traced run spends half its time on the in-process replay.
		openSecs, closedSecs, repeats = 0.3*o.seconds, 0, 1
	}
	openSeq := requestSeq(o.seed, 1, int(rate*openSecs), len(pairs))

	// Set up several times; keep the last set-up running.
	var setups []float64
	var topo *topology
	for k := 0; k < repeats; k++ {
		if topo != nil {
			for _, s := range topo.all {
				procs.stop(s)
			}
		}
		dir := filepath.Join(o.work, fmt.Sprintf("store-%d", k))
		t0 := time.Now()
		var pr phaseResult
		topo, pr, err = startWarm(ctx, o, procs, pop, fleet, dir, preload)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += pr.ok + pr.failed
		res.Failed += pr.failed
		if pr.failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d preload answers wrong\n", pr.failed, len(pairs))
		}
	}
	front := topo.front

	// Warm-up: connections, caches and the GC reach steady state before
	// anything is timed. Answers still count.
	wu, err := closedLoop(ctx, front.base, nconns, time.Duration(warmupSecs*float64(time.Second)),
		rebase(front.base, pairs, requestSeq(o.seed, 2, len(pairs), len(pairs))))
	if err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	res.Attempted += wu.ok + wu.failed
	res.Failed += wu.failed

	// Open-loop phase.
	before, err := snapshotServers(ctx, topo.all)
	if err != nil {
		return res, err
	}
	selfCPU := selfCPUSeconds()
	open, err := openLoop(ctx, front.base, nconns, rate, rebase(front.base, pairs, openSeq))
	if err != nil {
		return res, err
	}
	genCPU := selfCPUSeconds() - selfCPU
	after, err := snapshotServers(ctx, topo.all)
	if err != nil {
		return res, err
	}
	res.Attempted += open.ok + open.failed
	res.Failed += open.failed
	if hits, misses := after.runHits-before.runHits, after.runMisses-before.runMisses; misses != 0 || hits == 0 {
		return res, fmt.Errorf("store hit ratio in the measured phase is %d/%d, want 1.0", hits, hits+misses)
	}
	late50, late99 := quantile(open.late, 0.5), quantile(open.late, 0.99)
	p50 := quantile(open.lat, 0.5)
	fmt.Fprintf(os.Stderr, "perfbench: open loop %d req at %.0f/s in %.2fs: p50 %v p90 %v p99 %v p99.9 %v, generator late p50 %v p99 %v, generator cpu %.1fus/req\n",
		len(openSeq), rate, open.elapsed.Seconds(), p50, quantile(open.lat, 0.9), quantile(open.lat, 0.99), quantile(open.lat, 0.999), late50, late99, genCPU/float64(len(openSeq))*1e6)
	// The generator's own timing error must stay far below the figure it
	// measures; a late generator makes the run invalid, not slow. Only the
	// median is held to this: the tail of the lateness is dominated by
	// stalls of the whole host, which delay the server just as much and
	// are charged to the requests they delay.
	if late50 > p50/4 {
		return res, fmt.Errorf("%w: generator late p50 %v against latency p50 %v", errInvalidRun, late50, p50)
	}
	served := float64(open.ok)

	if o.trace {
		// The front receives the requests; the backend runs their jobs
		// and owns the store. On warm-run one process does both.
		recvCPU := after.cpu[0] - before.cpu[0]
		execCPU := recvCPU
		if fleet {
			execCPU = after.cpu[1] - before.cpu[1]
		}
		rss, err := rssOf(topo.all)
		if err != nil {
			return res, err
		}
		res.set("e2e.p99_ms", "ms", ms(open.windowQuantile(0.99)))
		res.set("loadgen.late_us_p50", "us", us(late50))
		res.set("loadgen.late_us_p99", "us", us(late99))
		res.set("loadgen.cpu_us_per_req", "us", genCPU/float64(len(openSeq))*1e6)
		res.set("server.recv_cpu_us_per_op", "us", recvCPU/served*1e6)
		res.set("server.exec_cpu_us_per_op", "us", execCPU/served*1e6)
		res.set("sweep.rss_mb_per_kjob", "MB", rss/(float64(len(pairs))/1000))
		after.setCounters(&res, before, open.elapsed.Seconds(), nconns)
		for _, s := range topo.all {
			procs.stop(s)
		}
		tr, err := traceWarm(ctx, o, pop, pairs, openSeq, fleet, 0.5*o.seconds)
		if err != nil {
			return res, err
		}
		res.add(tr)
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Closed-loop capacity phase.
	closed, err := closedLoop(ctx, front.base, nconns, time.Duration(closedSecs*float64(time.Second)),
		rebase(front.base, pairs, requestSeq(o.seed, 3, 1<<16, len(pairs))))
	if err != nil {
		return res, err
	}
	res.Attempted += closed.ok + closed.failed
	res.Failed += closed.failed
	rss, err := rssOf(topo.all)
	if err != nil {
		return res, err
	}

	cpu := 0.0
	for i := range topo.all {
		cpu += after.cpu[i] - before.cpu[i]
	}
	res.Correct = res.Failed == 0
	res.set("setup_s", "s", median(setups))
	res.set("p50_ms", "ms", ms(open.windowQuantile(0.5)))
	res.set("capacity_ops_s", "1/s", closed.windowRate())
	res.set("cpu_us_per_op", "us", cpu/served*1e6)
	res.set("rss_mb", "MB", rss)
	return res, nil
}

// phaseSnapshot is the outside-in state of every server at one instant.
type phaseSnapshot struct {
	cpu           []float64 // per process, topology order
	runHits       int64
	runMisses     int64
	cacheHits     int64
	cacheMisses   int64
	evictions     int64
	admitRejected float64
	retries       float64
	fallbacks     float64
	jobBusyNs     int64
	engineEvents  uint64
	engineCycles  uint64
	engineSkipped uint64
	engineRuns    uint64
}

// snapshotServers reads /proc and /metrics of every server.
func snapshotServers(ctx context.Context, servers []*server) (phaseSnapshot, error) {
	var s phaseSnapshot
	for _, srv := range servers {
		c, err := cpuSeconds(srv.pid())
		if err != nil {
			return s, err
		}
		s.cpu = append(s.cpu, c)
		m, err := metricsOf(ctx, srv)
		if err != nil {
			return s, err
		}
		if m.Store != nil {
			s.runHits += m.Store.RunHits
			s.runMisses += m.Store.RunMisses
		}
		s.cacheHits += m.Cache.Hits
		s.cacheMisses += m.Cache.Misses
		s.evictions += m.Cache.Evictions
		s.admitRejected += admitRejected(m)
		s.retries += dispatchCount(m, "retries")
		s.fallbacks += dispatchCount(m, "localFallbacks")
		if m.JobLatency != nil {
			s.jobBusyNs += m.JobLatency.SumNS
		}
		s.engineEvents += m.Engine.Events
		s.engineCycles += m.Engine.SimulatedMeshCycles
		s.engineSkipped += m.Engine.CyclesSkipped
		s.engineRuns += m.Engine.Runs
	}
	return s, nil
}

// setCounters sets the per-layer counter metrics read from /metrics
// deltas between before and s, over a phase of wall seconds.
func (s phaseSnapshot) setCounters(res *result, before phaseSnapshot, wall float64, workers int) {
	hits, misses := s.runHits-before.runHits, s.runMisses-before.runMisses
	res.set("store.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	ch, cm := s.cacheHits-before.cacheHits, s.cacheMisses-before.cacheMisses
	res.set("cache.hit_ratio", "ratio", ratio(float64(ch), float64(ch+cm)))
	res.set("cache.evictions", "count", float64(s.evictions-before.evictions))
	res.set("admit.rejected", "count", s.admitRejected-before.admitRejected)
	res.set("dispatch.retries", "count", s.retries-before.retries)
	res.set("dispatch.local_fallbacks", "count", s.fallbacks-before.fallbacks)
	res.set("sched.worker_busy_ratio", "ratio", float64(s.jobBusyNs-before.jobBusyNs)/1e9/(wall*float64(workers)))
}

// rssOf sums the peak RSS of servers in MiB.
func rssOf(servers []*server) (float64, error) {
	total := 0.0
	for _, s := range servers {
		r, err := peakRSSMB(s.pid())
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}
