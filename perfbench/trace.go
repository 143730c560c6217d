package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/dispatch"
	"javaflow/internal/fabric"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// The traced run builds the serving stack in-process from the public
// constructors and replays the workload's seeded request sequence through
// serve.NewHandler. Spans are recorded here, in the benchmark, around
// calls into each layer's public functions; the program itself carries no
// extra instrumentation:
//
//   - request: one replayed request, the root;
//   - serve.handler: Handler.ServeHTTP, with serve.runner (the installed
//     BatchRunner: the scheduler, or the dispatcher on fleet-run) as its
//     child through the Service.SetBatchRunner seam;
//   - probes, children of the root: the inner public functions called on
//     the same input right after the handler — serve.decode, serve.lookup,
//     store.methodhash, store.key, store.get, admit.admit, serve.encode,
//     cache.resolve, fabric.deploy, sim.engine (once per branch policy),
//     store.put, store.flush, dispatch.hop and dispatch.runner.
//
// A span's self time is its duration minus the part its children cover.

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Start  int64  `json:"start"`  // ns since the replay began
	End    int64  `json:"end"`
}

// recorder keeps every span in memory until the replay ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent int32) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return id
}

func (r *recorder) end(id int32) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed records fn as a span.
func (r *recorder) timed(name string, parent int32, fn func()) {
	id := r.begin(name, parent)
	fn()
	r.end(id)
}

// durations returns every duration of the named spans.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns the self time of every span named name: its duration
// minus the union of its children's intervals, clipped to it.
func (r *recorder) selfTimes(name string) []time.Duration {
	children := make(map[int32][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, time.Duration(s.End-s.Start-covered))
	}
	return out
}

// writeJSONL writes every span, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the serve.handler span into the request context, where
// timedRunner finds its parent.
type spanKey struct{}

// timedRunner wraps the service's BatchRunner so the scheduler (or the
// dispatcher) shows up as a child span of Handler.ServeHTTP.
type timedRunner struct {
	inner serve.BatchRunner
	rec   *recorder
}

func parentOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanKey{}).(int32); ok {
		return id
	}
	return -1
}

func (t timedRunner) RunBatchCycles(ctx context.Context, jobs []serve.Job, maxCycles int) []serve.JobResult {
	id := t.rec.begin("serve.runner", parentOf(ctx))
	defer t.rec.end(id)
	return t.inner.RunBatchCycles(ctx, jobs, maxCycles)
}

func (t timedRunner) RunBatchStream(ctx context.Context, jobs []serve.Job, maxCycles int, emit func(int, serve.JobResult)) []serve.JobResult {
	id := t.rec.begin("serve.runner", parentOf(ctx))
	defer t.rec.end(id)
	return t.inner.RunBatchStream(ctx, jobs, maxCycles, emit)
}

// stack is one in-process jfserved: the service and handler built the
// way cmd/jfserved builds them, optionally served on a loopback port.
type stack struct {
	svc     *serve.Service
	handler http.Handler
	store   *store.Store
	srv     *http.Server
	base    string
}

func newStack(pop *population, st *store.Store) *stack {
	metrics := serve.NewMetrics()
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers:       nconns,
		Cache:         serve.NewDeploymentCache(serve.DefaultCacheCapacity),
		MaxMeshCycles: maxCycles,
		Store:         st,
		Metrics:       metrics,
	})
	svc := serve.NewService(sched, pop.configs, pop.methods)
	svc.SetAdmission(admit.New(admit.Options{
		Parallelism: nconns,
		Registry:    metrics.Registry(),
		Journal:     metrics.Journal(),
	}))
	return &stack{svc: svc, handler: serve.NewHandler(svc), store: st}
}

// listen serves the stack's handler on a loopback port.
func (s *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	s.base = "http://" + ln.Addr().String()
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

func (s *stack) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.srv.Shutdown(ctx)
	}
}

// traceItem is one replayed request and the jobs it carries.
type traceItem struct {
	path  string
	body  []byte
	check func(status int, body []byte) bool
	jobs  []serve.Job
}

// engineCounts is one job's engine activity over both branch policies.
type engineCounts struct {
	events, cycles, skipped, fired uint64
}

type jobKey struct{ config, method string }

// probeSet holds the instances the probes run against. Probes that write
// (deployment cache, store put and flush) use private ones, so they never
// change what the replayed requests see; the dispatch probes hop to the
// stack that owns the store, after the handler answered the same job.
type probeSet struct {
	rec        *recorder
	svc        *serve.Service // the stack the replay drives (read-only probes)
	store      *store.Store   // the store the replay reads
	probeStore *store.Store
	cache      *serve.DeploymentCache
	remote     *dispatch.Remote
	dispatcher *dispatch.Dispatcher
	admission  *admit.Controller

	// baseline holds each job's engine counts from its first probe; every
	// later probe of the job must reproduce them exactly.
	baseline map[jobKey]engineCounts
	engineNs int64
	counts   engineCounts
	deploys  int64
	rejects  int64
	puts     int
}

// newProbeSet builds the probe instances around the stack that owns the
// store (target, which must be listening: dispatch probes hop to it).
func newProbeSet(rec *recorder, front *serve.Service, target *stack, dir string) (*probeSet, error) {
	ps, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	metrics := serve.NewMetrics()
	d, err := dispatch.New(dispatch.Options{
		Peers:    []string{target.base},
		Local:    target.svc.Scheduler(),
		Tracer:   metrics.Tracer(),
		Registry: metrics.Registry(),
		Journal:  metrics.Journal(),
	})
	if err != nil {
		ps.Close()
		return nil, err
	}
	return &probeSet{
		rec:        rec,
		svc:        front,
		store:      target.store,
		probeStore: ps,
		cache:      serve.NewDeploymentCache(serve.DefaultCacheCapacity),
		remote:     dispatch.NewRemote(target.base, nil),
		dispatcher: d,
		admission:  front.Admission(),
		baseline:   make(map[jobKey]engineCounts),
	}, nil
}

func (p *probeSet) close() error { return p.probeStore.Close() }

// timed runs fn, recording it as a span unless parent is -1 (an untraced
// baseline pass).
func (p *probeSet) timed(name string, parent int32, fn func()) {
	if parent < 0 {
		fn()
		return
	}
	p.rec.timed(name, parent, fn)
}

// engine deploys job and runs it through both branch policies (one
// sim.engine span each), checking the counts against the job's baseline.
func (p *probeSet) engine(parent int32, job serve.Job) error {
	p.deploys++
	var res *fabric.Resolution
	var derr error
	p.timed("fabric.deploy", parent, func() { res, derr = sim.DeployMethod(job.Config, job.Method) })
	if derr != nil {
		p.rejects++
		return nil
	}
	var c engineCounts
	for _, policy := range []sim.BranchPolicy{sim.BP1, sim.BP2} {
		eng := sim.NewEngine(job.Config, res, policy)
		eng.SetMaxCycles(maxCycles)
		var r sim.Result
		var err error
		t := time.Now()
		p.timed("sim.engine", parent, func() { r, err = eng.Run() })
		p.engineNs += int64(time.Since(t))
		if err != nil {
			return fmt.Errorf("engine %s on %s: %w", job.Method.Signature(), job.Config.Name, err)
		}
		st := eng.Stats()
		c.events += st.Events
		c.cycles += st.MeshCycles
		c.skipped += st.CyclesSkipped
		c.fired += uint64(r.Fired)
	}
	p.counts.events += c.events
	p.counts.cycles += c.cycles
	p.counts.skipped += c.skipped
	p.counts.fired += c.fired
	k := jobKey{job.Config.Name, job.Method.Signature()}
	if b, ok := p.baseline[k]; !ok {
		p.baseline[k] = c
	} else if b != c {
		return fmt.Errorf("%w: %s on %s gave engine counts %+v, earlier %+v", errNondeterminism, k.method, k.config, c, b)
	}
	return nil
}

// probe calls every layer's public functions on one job's input.
func (p *probeSet) probe(ctx context.Context, root int32, job serve.Job) error {
	cfg, m := job.Config, job.Method
	rec := p.rec
	rec.timed("serve.lookup", root, func() {
		_, _ = p.svc.Config(cfg.Name)
		_, _ = p.svc.Method(m.Signature())
	})
	rec.timed("store.methodhash", root, func() { _ = store.MethodHash(m) })
	var key store.RunKey
	rec.timed("store.key", root, func() { key = store.RunKeyFor(cfg, m, maxCycles) })
	var run sim.MethodRun
	var hit bool
	rec.timed("store.get", root, func() { run, hit = p.store.GetRun(key) })
	var admitErr error
	rec.timed("admit.admit", root, func() {
		release, err := p.admission.Admit(admit.ClassRun)
		if err == nil {
			release()
		}
		admitErr = err
	})
	if admitErr != nil {
		return admitErr
	}
	if hit {
		rec.timed("serve.encode", root, func() {
			_, _ = encodeLikeServer(serve.RunPayload{
				Signature: run.Signature, Config: cfg.Name, MeanIPC: run.MeanIPC(), BP1: run.BP1, BP2: run.BP2,
			})
		})
		rec.timed("store.put", root, func() { p.probeStore.PutRun(key, run) })
		if p.puts++; p.puts%256 == 0 {
			var err error
			rec.timed("store.flush", root, func() { err = p.probeStore.Flush() })
			if err != nil {
				return fmt.Errorf("probe store flush: %w", err)
			}
		}
	}
	rec.timed("cache.resolve", root, func() { _, _ = p.cache.ResolveMethod(cfg, m) })
	if err := p.engine(root, job); err != nil {
		return err
	}
	var hopErr error
	rec.timed("dispatch.hop", root, func() { _, hopErr = p.remote.Run(ctx, job, maxCycles) })
	var runErr error
	rec.timed("dispatch.runner", root, func() { runErr = p.dispatcher.RunBatchCycles(ctx, []serve.Job{job}, maxCycles)[0].Err })
	for _, err := range []error{hopErr, runErr} {
		var le *fabric.LoadError
		if err != nil && !errors.As(err, &le) {
			return fmt.Errorf("dispatch probe: %w", err)
		}
	}
	return nil
}

// serveItem runs one item through handler, returning its status and body.
func serveItem(ctx context.Context, handler http.Handler, it traceItem) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body)).WithContext(ctx)
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// serveUntraced serves items through handler for at most budget, timing
// only ServeHTTP: the baseline the traced handler times are compared with.
func serveUntraced(ctx context.Context, handler http.Handler, items []traceItem, budget time.Duration, out *result) []time.Duration {
	var untraced []time.Duration
	deadline := time.Now().Add(budget)
	for _, it := range items {
		if !time.Now().Before(deadline) {
			break
		}
		t := time.Now()
		status, body := serveItem(ctx, handler, it)
		untraced = append(untraced, time.Since(t))
		out.Attempted++
		if !it.check(status, body) {
			out.Failed++
		}
	}
	return untraced
}

// replay drives items through front with probes for at most budget,
// never replaying an item twice, so a cold sweep stays cold. It fills the
// span-derived per-layer metrics into out, untraced being the handler
// times of the untraced baseline.
func replay(ctx context.Context, front *serve.Service, handler http.Handler, probes *probeSet, items []traceItem, untraced []time.Duration, budget time.Duration, out *result) error {
	rec := probes.rec
	inner := front.BatchRunner()
	front.SetBatchRunner(timedRunner{inner: inner, rec: rec})
	defer front.SetBatchRunner(inner)
	var respBytes, responses int64
	deadline := time.Now().Add(budget)
	for _, it := range items {
		if !time.Now().Before(deadline) {
			break
		}
		root := rec.begin("request", -1)
		h := rec.begin("serve.handler", root)
		status, body := serveItem(context.WithValue(ctx, spanKey{}, h), handler, it)
		rec.end(h)
		out.Attempted++
		if !it.check(status, body) {
			out.Failed++
		}
		respBytes += int64(len(body))
		responses++
		var decodeErr error
		rec.timed("serve.decode", root, func() {
			dec := json.NewDecoder(bytes.NewReader(it.body))
			dec.DisallowUnknownFields()
			if it.path == "/v1/run" {
				var req serve.RunRequest
				decodeErr = dec.Decode(&req)
			} else {
				var req serve.BatchRequest
				decodeErr = dec.Decode(&req)
			}
		})
		if decodeErr != nil {
			return fmt.Errorf("decoding replayed body: %w", decodeErr)
		}
		for _, job := range it.jobs {
			if err := probes.probe(ctx, root, job); err != nil {
				return err
			}
		}
		rec.end(root)
	}

	q := func(name string, p float64) time.Duration { return quantile(rec.durations(name), p) }
	handler50 := q("serve.handler", 0.5)
	out.set("serve.handler_us_p50", "us", us(handler50))
	out.set("serve.handler_us_p99", "us", us(q("serve.handler", 0.99)))
	out.set("serve.handler_untraced_us_p50", "us", us(quantile(untraced, 0.5)))
	out.set("serve.http_self_us_p50", "us", us(quantile(rec.selfTimes("serve.handler"), 0.5)))
	out.set("serve.runner_us_p50", "us", us(q("serve.runner", 0.5)))
	out.set("serve.encode_us_p50", "us", us(q("serve.encode", 0.5)))
	out.set("serve.decode_us_p50", "us", us(q("serve.decode", 0.5)))
	out.set("serve.lookup_ns_p50", "ns", ns(q("serve.lookup", 0.5)))
	out.set("serve.resp_bytes", "bytes", ratio(float64(respBytes), float64(responses)))
	out.set("admit.admit_ns_p50", "ns", ns(q("admit.admit", 0.5)))
	out.set("store.key_ns_p50", "ns", ns(q("store.key", 0.5)))
	out.set("store.methodhash_ns_p50", "ns", ns(q("store.methodhash", 0.5)))
	out.set("store.get_ns_p50", "ns", ns(q("store.get", 0.5)))
	out.set("store.put_us_p50", "us", us(q("store.put", 0.5)))
	out.set("store.flush_ms", "ms", ms(q("store.flush", 0.5)))
	out.set("cache.resolve_us_p50", "us", us(q("cache.resolve", 0.5)))
	out.set("fabric.deploy_us_p50", "us", us(q("fabric.deploy", 0.5)))
	out.set("fabric.deploy_us_p99", "us", us(q("fabric.deploy", 0.99)))
	out.set("fabric.reject_ratio", "ratio", ratio(float64(probes.rejects), float64(probes.deploys)))
	out.set("sim.engine_us_p50", "us", us(q("sim.engine", 0.5)))
	out.set("sim.engine_us_p99", "us", us(q("sim.engine", 0.99)))
	out.set("sim.ns_per_event", "ns", ratio(float64(probes.engineNs), float64(probes.counts.events)))
	out.set("sim.minstr_per_s", "M/s", ratio(float64(probes.counts.fired), float64(probes.engineNs)/1e9)/1e6)
	out.set("dispatch.hop_us_p50", "us", us(q("dispatch.hop", 0.5)))
	out.set("dispatch.hop_us_p99", "us", us(q("dispatch.hop", 0.99)))
	out.set("dispatch.runner_us_p50", "us", us(q("dispatch.runner", 0.5)))
	out.set("trace.spans", "count", float64(len(rec.spans)))

	fmt.Fprintf(os.Stderr, "perfbench: traced replay %d requests, %d spans; handler p50 %v traced, %v untraced\n",
		responses, len(rec.spans), handler50, quantile(untraced, 0.5))
	if len(items) > 0 && items[0].path == "/v1/run" {
		// Where a one-job request's time goes: the handler's self time
		// (ingress) and its runner child, each less the inner calls the
		// probes timed on the same input. What is left is routing,
		// middleware and response writing, and the scheduler's hand-off
		// to a worker and back.
		self50 := quantile(rec.selfTimes("serve.handler"), 0.5)
		runner50 := q("serve.runner", 0.5)
		fmt.Fprintf(os.Stderr, "perfbench:   ingress self %v = decode %v + lookup %v + admit %v + encode %v + rest %v\n",
			self50, q("serve.decode", 0.5), q("serve.lookup", 0.5), q("admit.admit", 0.5), q("serve.encode", 0.5),
			self50-q("serve.decode", 0.5)-q("serve.lookup", 0.5)-q("admit.admit", 0.5)-q("serve.encode", 0.5))
		fmt.Fprintf(os.Stderr, "perfbench:   runner %v = store key %v (method hash %v) + store get %v + rest %v\n",
			runner50, q("store.key", 0.5), q("store.methodhash", 0.5), q("store.get", 0.5),
			runner50-q("store.key", 0.5)-q("store.get", 0.5))
	}
	return nil
}

// simCounts sets the per-job engine metrics from the probes' baseline:
// one entry per distinct job, so the figures depend on the seed alone.
func (p *probeSet) simCounts(out *result) {
	var c engineCounts
	for _, b := range p.baseline {
		c.events += b.events
		c.cycles += b.cycles
		c.skipped += b.skipped
	}
	n := float64(len(p.baseline))
	out.set("sim.events_per_job", "count", ratio(float64(c.events), n))
	out.set("sim.mesh_cycles_per_job", "count", ratio(float64(c.cycles), n))
	out.set("sim.cycles_skipped_ratio", "ratio", ratio(float64(c.skipped), float64(c.cycles)))
}

// traceWarm is the traced run of warm-run and fleet-run: it preloads the
// working set through an in-process stack, reopens the store (timed, as
// store.open_ms), and replays seq.
func traceWarm(ctx context.Context, o options, pop *population, pairs []*pair, seq []int, fleet bool, secs float64) (result, error) {
	var out result
	dir := filepath.Join(o.work, "trace-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return out, err
	}
	cold := newStack(pop, st)
	for _, p := range pairs {
		status, body := serveItem(ctx, cold.handler, traceItem{path: "/v1/run", body: p.body})
		out.Attempted++
		if status != http.StatusOK || !bytes.Equal(body, p.want) {
			out.Failed++
		}
	}
	before := st.Stats()
	if err := st.Close(); err != nil {
		return out, fmt.Errorf("closing preloaded store: %w", err)
	}
	out.set("store.bytes_appended_per_job", "bytes", float64(before.BytesAppended)/float64(len(pairs)))

	t := time.Now()
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		return out, err
	}
	defer st.Close()
	out.set("store.open_ms", "ms", ms(time.Since(t)))

	backend := newStack(pop, st)
	if err := backend.listen(); err != nil {
		return out, err
	}
	defer backend.close()
	front := backend
	if fleet {
		front = newStack(pop, nil)
		metrics := serve.NewMetrics()
		d, err := dispatch.New(dispatch.Options{
			Peers:    []string{backend.base},
			Local:    front.svc.Scheduler(),
			Tracer:   metrics.Tracer(),
			Registry: metrics.Registry(),
			Journal:  metrics.Journal(),
		})
		if err != nil {
			return out, err
		}
		front.svc.SetBatchRunner(d)
	}

	rec := newRecorder()
	probes, err := newProbeSet(rec, front.svc, backend, filepath.Join(o.work, "probe-store"))
	if err != nil {
		return out, err
	}
	defer probes.close()
	// Engine baseline over the whole working set, untimed: the per-job
	// engine figures then depend on the seed alone, and every probe during
	// the replay must reproduce them.
	for _, p := range pairs {
		if err := probes.engine(-1, serve.Job{Config: p.cfg, Method: p.m}); err != nil {
			return out, err
		}
		if b := probes.baseline[jobKey{p.cfg.Name, p.m.Signature()}]; b.fired != uint64(p.run.BP1.Fired+p.run.BP2.Fired) {
			return out, fmt.Errorf("%w: %s on %s fired %d instructions, reference %d",
				errNondeterminism, p.m.Signature(), p.cfg.Name, b.fired, p.run.BP1.Fired+p.run.BP2.Fired)
		}
	}
	probes.simCounts(&out)
	probes.engineNs, probes.counts, probes.deploys, probes.rejects = 0, engineCounts{}, 0, 0

	items := make([]traceItem, len(seq))
	for i, k := range seq {
		p := pairs[k]
		items[i] = traceItem{
			path:  "/v1/run",
			body:  p.body,
			check: func(status int, body []byte) bool { return status == http.StatusOK && bytes.Equal(body, p.want) },
			jobs:  []serve.Job{{Config: p.cfg, Method: p.m}},
		}
	}
	// The first third of the items, and of the time, runs untraced.
	budget := time.Duration(secs * float64(time.Second))
	split := len(items) / 3
	untraced := serveUntraced(ctx, front.handler, items[:split], budget/3, &out)
	if err := replay(ctx, front.svc, front.handler, probes, items[split:], untraced, budget-budget/3, &out); err != nil {
		return out, err
	}
	return out, writeTrace(o, rec)
}

// writeTrace writes the replay's spans next to the run's working dir.
func writeTrace(o options, rec *recorder) error {
	path := filepath.Join(filepath.Dir(o.work), fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := rec.writeJSONL(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
