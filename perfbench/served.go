package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"buffy/internal/core"
	"buffy/internal/service"
	"buffy/internal/store"
)

// slot is one request of the served stream.
type slot struct {
	pass  int
	req   *servedRequest // nil for a vet request
	fresh bool           // req is one of the workload's fresh requests
	vet   *vetRequest
}

// outcome is one served answer, kept for the untimed check.
type outcome struct {
	slot   slot
	source string
	res    *service.Result
	vet    *service.VetResponse
	err    error
	latMS  float64
	waitMS float64 // queue wait of a job a worker ran; -1 otherwise
	execMS float64 // run time of a job a worker ran; -1 otherwise
	// traceNs is the time a traced run spent reading the job's
	// timestamps: the tracing overhead.
	traceNs int64
}

// stream hands out the seeded slots pass by pass to the clients. It
// starts no new pass once the run has measured long enough, so every
// run serves whole passes.
type stream struct {
	mu       sync.Mutex
	slots    []slot // one pass, in grid order
	seed     int64
	start    time.Time
	duration time.Duration
	pass     int // passes handed out completely
	order    []int
	next     int
	served   int
	done     bool
}

func newStream(w *servedWorkload, seed int64, duration time.Duration) *stream {
	s := &stream{seed: seed, duration: duration}
	for _, r := range w.Canonical {
		for i := 0; i < max(r.PerPass, 1); i++ {
			s.slots = append(s.slots, slot{req: r})
		}
	}
	for _, r := range w.Fresh {
		s.slots = append(s.slots, slot{req: r, fresh: true})
	}
	for _, v := range w.Vet {
		s.slots = append(s.slots, slot{vet: v})
	}
	return s
}

func (s *stream) take() (slot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return slot{}, false
	}
	if s.order == nil || s.next == len(s.order) {
		if s.order != nil {
			s.pass++
			el := time.Since(s.start)
			if el >= maxMeasure || (el >= s.duration && s.served >= minSamples) {
				s.done = true
				return slot{}, false
			}
		}
		s.order, s.next = passOrder(s.seed, s.pass, len(s.slots)), 0
	}
	sl := s.slots[s.order[s.next]]
	sl.pass = s.pass
	s.next++
	s.served++
	return sl, true
}

// source is the program text a slot sends: a fresh request carries a
// comment line naming its seed, pass and group, so its cache key is new.
func (sl slot) source(seed int64) string {
	if sl.vet != nil {
		return sl.vet.src
	}
	if !sl.fresh {
		return sl.req.src
	}
	group := sl.req.Group
	if group == "" {
		group = sl.req.Name
	}
	return fmt.Sprintf("// perfbench seed %d pass %d %s\n%s", seed, sl.pass, group, sl.req.src)
}

func (r *servedRequest) request(src string) *service.Request {
	return &service.Request{
		Kind: service.Kind(r.Kind), Source: src, T: r.T, Params: r.Params,
		Model: r.Model, ArrivalsPerStep: r.Arrivals, BufferCap: r.BufferCap,
		MaxT: r.MaxT, SweepMode: r.SweepMode,
	}
}

// server is one engine with its store and HTTP handler.
type server struct {
	dir string
	e   *service.Engine
	h   http.Handler
}

func (s *server) close() {
	s.e.Shutdown(context.Background())
	os.RemoveAll(s.dir)
}

// servedSetup opens a store on a fresh directory, starts an engine on it
// and primes it with every canonical request, so the run starts with
// the memory and disk tiers as a long-running service has them.
func servedSetup(w *servedWorkload, root string, seed int64) (*server, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(store.Options{Dir: dir, Fingerprint: service.PipelineFingerprint(), MaxBytes: 1 << 30})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := service.New(service.Config{
		Workers: w.Workers, CacheEntries: w.CacheEntries, SessionEntries: w.Sessions, Store: st,
	})
	s := &server{dir: dir, e: e, h: service.NewHandler(e)}
	var errs []error
	for _, r := range w.Canonical {
		errs = append(errs, serve(s, slot{req: r}, seed, false).check())
	}
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	// Wait for the write-behinds of the priming answers to land.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := e.Metrics().Store; st.Writes+st.WriteErrors+st.Dropped >= int64(len(w.Canonical)) {
			break
		}
	}
	return s, nil
}

// serve sends one slot and waits for its answer. Only the request itself
// is timed; a traced run also reads the job's timestamps.
func serve(s *server, sl slot, seed int64, traced bool) outcome {
	o := outcome{slot: sl, source: sl.source(seed), waitMS: -1, execMS: -1}
	if sl.vet != nil {
		body, err := json.Marshal(map[string]any{"source": o.source, "t": sl.vet.T, "params": sl.vet.Params})
		if err != nil {
			o.err = err
			return o
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/vet", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.h.ServeHTTP(rec, req)
		o.latMS = ms(time.Since(t0))
		var resp service.VetResponse
		if rec.Code != http.StatusOK {
			o.err = fmt.Errorf("vet: HTTP %d: %s", rec.Code, rec.Body.String())
		} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			o.err = err
		}
		o.vet = &resp
		return o
	}
	req := sl.req.request(o.source)
	t0 := time.Now()
	job, err := s.e.Submit(req)
	if err != nil {
		o.latMS, o.err = ms(time.Since(t0)), err
		return o
	}
	<-job.Done()
	o.latMS = ms(time.Since(t0))
	o.res, o.err = job.Result()
	if traced {
		t1 := time.Now()
		sub, started, fin := job.Times()
		if o.res != nil && !o.res.CacheHit {
			o.waitMS, o.execMS = ms(started.Sub(sub)), ms(fin.Sub(started))
		}
		o.traceNs = int64(time.Since(t1))
	}
	return o
}

// failed reports an error or an Unknown answer.
func (o outcome) failed() bool {
	return o.err != nil || (o.res != nil && o.res.Status == "unknown")
}

// check compares a served answer with the grid's expectation and
// replays any Sat trace through the concrete interpreter.
func (o outcome) check() error {
	if o.err != nil {
		return o.err
	}
	if v := o.slot.vet; v != nil {
		r := o.vet
		if r.Clean != v.Clean || r.Witness != v.Witness {
			return fmt.Errorf("%s: vet clean=%v witness=%q, want clean=%v witness=%q",
				v.Name, r.Clean, r.Witness, v.Clean, v.Witness)
		}
		return nil
	}
	r, res := o.slot.req, o.res
	if res.Status != r.Expect {
		return fmt.Errorf("%s: status %s, want %s", r.Name, res.Status, r.Expect)
	}
	if r.Tier != "" && res.Tier != r.Tier && !res.CacheHit {
		return fmt.Errorf("%s: tier %q, want %q", r.Name, res.Tier, r.Tier)
	}
	if r.Kind == "bound" && (res.Delay != r.Delay || res.Backlog != r.Backlog) {
		return fmt.Errorf("%s: delay %s backlog %s, want %s and %s", r.Name, res.Delay, res.Backlog, r.Delay, r.Backlog)
	}
	if r.Kind == "sweep" {
		if res.FoundAt != r.FoundAt || len(res.Verdicts) != r.horizons() {
			return fmt.Errorf("%s: found at %d after %d horizons, want %d after %d",
				r.Name, res.FoundAt, len(res.Verdicts), r.FoundAt, r.horizons())
		}
	}
	if res.Trace == nil {
		return nil
	}
	prog, err := core.Parse(o.source)
	if err != nil {
		return err
	}
	a := core.Analysis{T: res.Trace.T, Params: r.Params, ArrivalsPerStep: r.Arrivals, BufferCap: r.BufferCap}
	return replay(r.Name, prog, a, res.Trace)
}

// horizons is how many horizon verdicts a sweep delivers.
func (r *servedRequest) horizons() int {
	if r.FoundAt > 0 {
		return r.FoundAt
	}
	return r.MaxT
}

func runServed(name string, w *servedWorkload, cfg runConfig) (*report, error) {
	root := filepath.Join(cfg.out, "served")
	var setups []float64
	var s *server
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = servedSetup(w, root, cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	runtime.GC()

	st := newStream(w, cfg.seed, cfg.duration)
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	met0 := s.e.Metrics()
	st.start = time.Now()
	cpu0 := cpuTime()
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for {
				sl, ok := st.take()
				if !ok {
					break
				}
				mine = append(mine, serve(s, sl, cfg.seed, cfg.trace))
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	window, cpu := time.Since(st.start), cpuTime()-cpu0
	mem := memSince(&mem0)
	met1 := s.e.Metrics()

	rep := &report{Correct: true, Metrics: metrics{}}
	lats := make([]float64, 0, len(outs))
	for _, o := range outs {
		rep.Attempted++
		lats = append(lats, o.latMS)
		if o.failed() {
			rep.Failed++
		}
		if err := o.check(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			rep.Correct = false
		}
	}
	if !cfg.trace {
		endToEndMetrics(rep.Metrics, lats, window, cpu, setups, rep.Attempted, rep.Failed)
		return rep, nil
	}
	horizons := servedLayers(rep.Metrics, outs, st.pass, met0, met1, mem)
	for pass, h := range horizons {
		if h != horizons[0] {
			fmt.Fprintf(os.Stderr, "pass %d delivered %d sweep horizons, pass 0 delivered %d\n", pass, h, horizons[0])
			rep.Correct = false
		}
	}
	if err := checkExactAcrossRuns(cfg.out, name, map[string]int64{"pass/session.horizons": horizons[0]}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		rep.Correct = false
	}
	return rep, nil
}

// servedLayers fills the traced served run's per-layer metrics: counts
// and times per pass, from the jobs' own timestamps and results and from
// the engine's metric deltas. It returns the sweep horizons delivered in
// each pass.
func servedLayers(m metrics, outs []outcome, passes int, met0, met1 service.Snapshot, mem memDelta) []int64 {
	p := float64(passes)
	horizons := make([]int64, passes)
	var waits, execs []float64
	var memHits, diskHits, misses float64
	var sweepMS, execMS, vetMS, latMS, traceMS float64
	for _, o := range outs {
		latMS += o.latMS
		traceMS += float64(o.traceNs) / 1e6
		if o.vet != nil {
			vetMS += float64(o.vet.DurationUS) / 1e3
			continue
		}
		if o.res == nil {
			continue
		}
		switch {
		case o.res.CacheTier == service.CacheTierMemory:
			memHits++
		case o.res.CacheTier == service.CacheTierDisk:
			diskHits++
		default:
			misses++
		}
		if o.slot.req.Kind == "sweep" {
			horizons[o.slot.pass] += int64(len(o.res.Verdicts))
		}
		if o.execMS >= 0 {
			waits = append(waits, o.waitMS)
			execs = append(execs, o.execMS)
			execMS += o.execMS
			if o.slot.req.Kind == "sweep" {
				sweepMS += o.execMS
			}
		}
	}
	stage := func(name string) float64 {
		return 1e3 * (met1.StageSecondsSum[name] - met0.StageSecondsSum[name])
	}
	m.set("lang.parse_ms", stage("parse")/p)
	m.set("sema.vet_ms", (stage("vet")+vetMS)/p)
	m.set("sema.static_answers", float64(met1.StaticAnswered-met0.StaticAnswered)/p)
	m.set("ir.compile_ms", stage("compile")/p)
	m.set("ir.compile_share", ratio(stage("compile"), execMS))
	m.set("bitblast.ms", stage("bitblast")/p)
	m.set("sat.search_ms", stage("search")/p)
	m.set("sat.search_share", ratio(stage("search"), execMS))
	m.set("netcalc.bound_us", 1e3*stage("netcalc")/p)
	m.set("go.gc_cycles", float64(mem.gcs)/p)
	m.set("go.gc_pause_ms", float64(mem.pauseNs)/1e6/p)
	m.set("go.total_alloc_mb", float64(mem.bytes)/(1<<20)/p)
	m.set("session.hits", float64(met1.SessionHits-met0.SessionHits)/p)
	m.set("session.misses", float64(met1.SessionMisses-met0.SessionMisses)/p)
	m.set("session.horizons", float64(horizons[0]))
	m.set("session.sweep_ms", sweepMS/p)
	m.set("service.queue_wait_ms_p50", quantile(waits, 0.5))
	m.set("service.queue_wait_ms_p90", quantile(waits, 0.9))
	m.set("service.exec_ms_p50", quantile(execs, 0.5))
	m.set("service.exec_ms_p90", quantile(execs, 0.9))
	m.set("service.memory_hits", memHits/p)
	m.set("service.disk_hits", diskHits/p)
	m.set("service.misses", misses/p)
	m.set("service.cache_hit_ratio", ratio(memHits+diskHits, memHits+diskHits+misses))
	s0, s1 := met0.Store, met1.Store
	m.set("store.writes", float64(s1.Writes-s0.Writes)/p)
	m.set("store.write_drops", float64(s1.Dropped-s0.Dropped)/p)
	gets := float64(s1.Hits - s0.Hits + s1.Misses - s0.Misses)
	m.set("store.disk_hit_ratio", ratio(float64(s1.Hits-s0.Hits), gets))
	m.set("trace.overhead_pct", 100*ratio(traceMS, latMS))
	return horizons
}
