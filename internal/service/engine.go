package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/faultinject"
	"buffy/internal/session"
	"buffy/internal/smt/sat"
	"buffy/internal/store"
	"buffy/internal/telemetry"
)

// Submission errors.
var (
	// ErrQueueFull is returned when the bounded queue has no room; callers
	// should shed load (HTTP 503) rather than block the accept loop.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed is returned once Shutdown has begun.
	ErrClosed = errors.New("service: engine shut down")
	// ErrDeadlineUnmeetable is returned by deadline-aware admission: given
	// the queue backlog and the request class's recent latency, the job
	// would blow its deadline before a worker could finish it — so it is
	// rejected at submit time instead of timing out later.
	ErrDeadlineUnmeetable = errors.New("service: deadline unmeetable under current load")
)

// State is a job's lifecycle phase.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one analysis in flight. All accessors are safe for concurrent
// use; Done() closes exactly once when the job reaches a terminal state.
type Job struct {
	ID  string
	Req *Request

	engine *Engine
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// trace and progress are created with the job and immutable after:
	// readers poll them concurrently with the solve (both types are
	// internally synchronized). Cache-hit jobs carry neither.
	trace    *telemetry.Trace
	progress *sat.Progress
	// recorder accumulates the progress feed into a SearchReport
	// (attached to the result, served by /v1/jobs/{id}/explain). Rides
	// on progress, so cache-hit jobs carry none.
	recorder *sat.SearchRecorder

	// verdicts streams a sweep job's per-horizon answers to a listening
	// handler. Buffered for the deepest possible sweep so the worker never
	// blocks on a slow (or absent) reader; closed by the worker when the
	// sweep ends. Nil for non-sweep and cache-hit jobs.
	verdicts chan SweepVerdict

	mu        sync.Mutex
	state     State
	result    *Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Trace returns the job's span trace (nil for cache-hit jobs). Safe to
// snapshot while the job runs.
func (j *Job) Trace() *telemetry.Trace { return j.trace }

// Progress returns the job's live solver-effort counters (nil for
// cache-hit jobs). Safe to poll while the job runs.
func (j *Job) Progress() *sat.Progress { return j.progress }

// SearchRecorder returns the job's search-introspection recorder (nil
// for cache-hit jobs). Safe to Report() while the job runs.
func (j *Job) SearchRecorder() *sat.SearchRecorder { return j.recorder }

// Verdicts returns the sweep job's per-horizon verdict stream (nil for
// non-sweep and cache-hit jobs). The worker closes it when the sweep
// ends; a job canceled while queued never closes it, so readers must
// also select on Done.
func (j *Job) Verdicts() <-chan SweepVerdict { return j.verdicts }

// sendVerdict forwards one horizon verdict to the stream. The buffer
// covers the deepest sweep, so a full channel can only mean a logic bug;
// dropping (rather than blocking a worker forever) is the safe failure.
func (j *Job) sendVerdict(v SweepVerdict) {
	select {
	case j.verdicts <- v:
	default:
	}
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's outcome once terminal (nil, nil before that).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Wait blocks until the job is terminal or ctx expires. On ctx expiry the
// job keeps running (callers decide whether to Cancel).
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel aborts the job: a queued job completes immediately as canceled,
// a running job's solver observes the cancellation cooperatively and
// unwinds within a bounded number of search steps.
func (j *Job) Cancel() {
	j.cancel()
	// A queued job will never be started by a worker once canceled, so it
	// must be finished here or waiters would hang.
	if j.finish(StateCanceled, nil, context.Canceled) {
		j.engine.met.canceled.Add(1)
		j.engine.noteFinished(j.ID)
	}
}

// tryStart flips queued → running; false means the job was canceled
// while waiting and the worker must skip it.
func (j *Job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state exactly once; the first caller
// wins. It reports whether this call performed the transition — but a
// queued job is only finished by Cancel, never by a worker.
func (j *Job) finish(st State, res *Result, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	if st == StateCanceled && j.state == StateRunning {
		// Cancel of a running job: let the worker unwind and record the
		// terminal state (it observes ctx cancellation from the solver).
		return false
	}
	j.state = st
	j.result = res
	j.err = err
	j.finished = time.Now()
	close(j.done)
	return true
}

// finishFromWorker is finish for the owning worker: it may complete a
// running job with any terminal state.
func (j *Job) finishFromWorker(st State, res *Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = st
	j.result = res
	j.err = err
	j.finished = time.Now()
	close(j.done)
}

// Times returns the submit/start/finish timestamps (zero if not reached).
func (j *Job) Times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.finished
}

// Config sizes the engine. Zero values pick production-sane defaults.
type Config struct {
	// Workers is the solver pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64). Beyond
	// it Submit returns ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 256; negative
	// disables caching).
	CacheEntries int
	// DefaultTimeout is the per-job deadline when a request does not set
	// one (default 60s; negative means no deadline).
	DefaultTimeout time.Duration
	// Retention caps how many finished jobs stay queryable via Job()
	// (default 1024).
	Retention int
	// MaxRetries caps how many times a transient failure (budget
	// exhaustion, recovered panic, portfolio disagreement) is retried with
	// an escalated or degraded configuration. Default 0: every attempt's
	// outcome is final, preserving the library's one-shot semantics;
	// buffy-serve opts in via its -retries flag.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 50ms).
	RetryBackoff time.Duration
	// Logger receives structured job-lifecycle logs (default: discard).
	Logger *slog.Logger
	// TraceSpans bounds each job trace's span count (default
	// telemetry.DefaultMaxSpans; negative disables tracing).
	TraceSpans int
	// TraceRetention caps how many finished traces stay browsable via
	// /v1/traces after their jobs are pruned (default 128).
	TraceRetention int
	// SessionEntries bounds the warm-session pool for sweep jobs (default
	// 32; negative disables pooling — every sweep builds a private
	// session).
	SessionEntries int
	// SessionMaxBytes bounds the pool's estimated memory: problem
	// encodings plus learnt-clause databases (default 256 MiB; sessions
	// whose learnt DB grows push colder entries out).
	SessionMaxBytes int64
	// Store, when non-nil, is the durable second cache tier: conclusive
	// results are written behind (asynchronously) and missed keys are
	// read through on Submit. The engine takes ownership and closes it
	// on Shutdown. Open it under service.PipelineFingerprint() so a
	// pipeline change invalidates stored answers.
	Store *store.Store
	// Exporter, when non-nil, receives every finished job's trace
	// snapshot for OTLP export. The engine only enqueues (never blocks);
	// the caller that built the exporter owns its lifecycle and closes
	// it after Shutdown drains the workers.
	Exporter *telemetry.Exporter
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Retention <= 0 {
		c.Retention = 1024
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.TraceSpans == 0 {
		c.TraceSpans = telemetry.DefaultMaxSpans
	}
	if c.TraceRetention <= 0 {
		c.TraceRetention = 128
	}
	if c.SessionEntries == 0 {
		c.SessionEntries = 32
	}
	if c.SessionMaxBytes == 0 {
		c.SessionMaxBytes = 256 << 20
	}
	return c
}

// Engine is the analysis job engine: a bounded queue feeding a worker
// pool, fronted by a content-addressed result cache.
type Engine struct {
	cfg      Config
	queue    chan *Job
	cache    *cache
	met      *metrics
	admit    *admission
	log      *slog.Logger
	traces   *traceRing
	sessions *sessionPool

	// Durable second cache tier (nil when not configured). Writes ride a
	// bounded queue drained by a single writer goroutine so disk latency
	// never blocks a solver worker; a full queue drops the write (the
	// answer is still cached in memory) and counts it.
	store     *store.Store
	storeQ    chan storeWrite
	storeWG   sync.WaitGroup
	storeOnce sync.Once

	draining atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	finished []string // finished job IDs, oldest first, for retention pruning
	nextID   int64

	wg sync.WaitGroup
}

// New starts an engine with cfg.Workers solver workers.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	met := newMetrics()
	e := &Engine{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		cache:      newCache(cfg.CacheEntries),
		met:        met,
		admit:      newAdmission(),
		log:        cfg.Logger,
		traces:     newTraceRing(cfg.TraceRetention),
		sessions:   newSessionPool(cfg.SessionEntries, cfg.SessionMaxBytes, met),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	if cfg.Store != nil {
		e.store = cfg.Store
		e.storeQ = make(chan storeWrite, 256)
		e.storeWG.Add(1)
		go e.storeWriter()
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Submit validates and enqueues a request. A cache hit — in the memory
// LRU or, missing that, the durable disk tier — returns an
// already-terminal job carrying the cached result, no worker involved;
// a disk hit is also promoted into the memory tier.
func (e *Engine) Submit(req *Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	key := req.CacheKey()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if cached, ok := e.cache.get(key); ok {
		job := e.serveCachedLocked(req, cached, CacheTierMemory)
		e.mu.Unlock()
		return job, nil
	}
	e.mu.Unlock()

	// Disk read-through runs outside the engine lock: a store Get is real
	// I/O (read + checksum) and must not serialize submissions.
	if cached, ok := e.storeGet(key); ok {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, ErrClosed
		}
		tier := CacheTierDisk
		if mem, ok := e.cache.get(key); ok {
			// A racing identical submit promoted the entry while we read
			// the disk; serve the memory copy.
			cached, tier = mem, CacheTierMemory
		} else {
			e.cache.put(key, cached)
		}
		job := e.serveCachedLocked(req, cached, tier)
		e.mu.Unlock()
		return job, nil
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}

	// Deadline-aware admission: with queueLen jobs already waiting for
	// cfg.Workers workers, this job starts after roughly queueLen/workers
	// typical solves and then needs one more of its own. If that cannot
	// fit inside its deadline, admitting it only converts a fast 503 into
	// a slow 504 while burning a queue slot.
	if est, ok := e.admit.estimate(req.Kind); ok {
		deadline := time.Duration(req.TimeoutMS) * time.Millisecond
		if deadline <= 0 {
			deadline = e.cfg.DefaultTimeout
		}
		if deadline > 0 {
			eta := est + est*time.Duration(len(e.queue))/time.Duration(e.cfg.Workers)
			if eta > deadline {
				e.met.rejected.Add(1)
				e.met.admissionRejected.Add(1)
				return nil, fmt.Errorf("%w: estimated completion %v > deadline %v",
					ErrDeadlineUnmeetable, eta.Round(time.Millisecond), deadline)
			}
		}
	}

	job := e.newJobLocked(req)
	select {
	case e.queue <- job:
	default:
		delete(e.jobs, job.ID)
		job.cancel()
		// Rejected work never counts as submitted: submitted must
		// reconcile with completed+failed+canceled.
		e.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	e.met.recordSubmit(req.Kind)
	e.met.cacheMisses.Add(1)
	return job, nil
}

// serveCachedLocked builds the already-terminal job a cache hit returns,
// stamped with the tier that served it.
func (e *Engine) serveCachedLocked(req *Request, cached *Result, tier string) *Job {
	e.met.recordSubmit(req.Kind)
	e.met.cacheHits.Add(1)
	job := e.newJobLocked(req)
	// A cache hit never runs the pipeline: no spans to record, no
	// live progress to poll, no verdicts to stream (they ride in the
	// cached result).
	job.trace, job.progress, job.recorder, job.verdicts = nil, nil, nil, nil
	// Shallow copy: the trace/workload payload is shared (immutable),
	// only the per-response CacheHit/CacheTier stamps differ.
	res := *cached
	res.CacheHit = true
	res.CacheTier = tier
	job.state = StateDone
	job.result = &res
	job.started = job.submitted
	job.finished = job.submitted
	close(job.done)
	e.met.completed.Add(1)
	e.noteFinishedLocked(job.ID)
	return job
}

// storeGet reads a result through the durable tier. The store has
// already verified checksum and pipeline fingerprint; what remains is
// semantic validation of the decoded payload — an entry that is
// bit-exact yet undecodable or inconclusive is quarantined, never
// served.
func (e *Engine) storeGet(key string) (*Result, bool) {
	if e.store == nil {
		return nil, false
	}
	payload, ok := e.store.Get(key)
	if !ok {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		e.store.Quarantine(key, "decode")
		return nil, false
	}
	if !res.conclusive() {
		e.store.Quarantine(key, "inconclusive")
		return nil, false
	}
	// The promoted copy re-enters the memory tier as a fresh answer; the
	// serving path stamps CacheHit/CacheTier per response.
	res.CacheHit = false
	res.CacheTier = ""
	return &res, true
}

// storeWrite is one pending write-behind: a cache key and its
// JSON-encoded conclusive Result.
type storeWrite struct {
	key     string
	payload []byte
}

// storePutAsync hands a conclusive result to the store writer without
// blocking the solver worker. A full write queue drops the write — the
// answer stays served from memory; only restart warmth is lost — and
// counts the drop.
func (e *Engine) storePutAsync(key string, res *Result) {
	if e.store == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		e.met.storeDropped.Add(1)
		e.log.Warn("store write dropped: result not serializable", "key", key, "err", err.Error())
		return
	}
	select {
	case e.storeQ <- storeWrite{key: key, payload: payload}:
	default:
		e.met.storeDropped.Add(1)
	}
}

// storeWriter drains the write-behind queue. Write failures (full disk,
// read-only store) are logged and counted by the store; the in-memory
// answer the client already received is unaffected.
func (e *Engine) storeWriter() {
	defer e.storeWG.Done()
	for w := range e.storeQ {
		if err := e.store.Put(w.key, w.payload); err != nil {
			e.log.Warn("store write failed", "key", w.key, "err", err.Error())
		}
	}
}

func (e *Engine) newJobLocked(req *Request) *Job {
	e.nextID++
	ctx, cancel := context.WithCancel(e.baseCtx)
	job := &Job{
		ID:        fmt.Sprintf("j%08d", e.nextID),
		Req:       req,
		engine:    e,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	if e.cfg.TraceSpans > 0 {
		job.trace = telemetry.NewTraceN(job.ID, e.cfg.TraceSpans)
		job.progress = &sat.Progress{}
		job.recorder = sat.NewSearchRecorder()
		job.progress.SetRecorder(job.recorder)
	}
	if req.Kind == KindSweep {
		job.verdicts = make(chan SweepVerdict, MaxHorizon+1)
	}
	e.jobs[job.ID] = job
	return job
}

// Closed reports whether Shutdown has begun.
func (e *Engine) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// BeginDrain marks the engine as draining: readiness probes start
// failing so load balancers stop routing new work here, while already
// accepted jobs keep running. Call it ahead of Shutdown to drain
// gracefully behind a balancer.
func (e *Engine) BeginDrain() { e.draining.Store(true) }

// Ready reports whether the engine should receive new work: true until
// BeginDrain or Shutdown. Liveness is separate — a draining engine is
// alive but not ready.
func (e *Engine) Ready() bool { return !e.draining.Load() && !e.Closed() }

// RetryAfter estimates, in whole seconds (min 1), how long a shed client
// should wait before retrying: the queue backlog divided across the
// worker pool, priced at the slowest request class's recent latency.
func (e *Engine) RetryAfter() int {
	est := e.admit.maxEstimate()
	if est <= 0 {
		return 1
	}
	wait := est * time.Duration(len(e.queue)+1) / time.Duration(e.cfg.Workers)
	if secs := int(math.Ceil(wait.Seconds())); secs > 1 {
		return secs
	}
	return 1
}

// Job looks up a job by ID (live or within the retention window).
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Metrics returns a point-in-time snapshot of all counters.
func (e *Engine) Metrics() Snapshot {
	live, bytes := e.sessions.stats()
	s := e.met.snapshot(len(e.queue), e.cfg.Workers, e.cache.len(), live, bytes)
	if e.store != nil {
		s.Store = &StoreSnapshot{
			Stats:   e.store.Stats(),
			Dropped: e.met.storeDropped.Load(),
		}
	}
	if e.cfg.Exporter != nil {
		ex := e.cfg.Exporter.Stats()
		s.TraceExport = &ex
	}
	return s
}

// Shutdown stops accepting jobs and drains the pool gracefully: queued
// and running jobs finish normally. If ctx expires first, every
// in-flight solve is force-cancelled cooperatively and Shutdown returns
// once workers unwind.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.draining.Store(true)
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		e.baseCancel() // abort in-flight CDCL searches
		<-drained
		err = ctx.Err()
	}
	// Workers are gone, so no new write-behinds can arrive: flush what is
	// queued and close the store so the entry set is durable for the next
	// process. Guarded for repeated Shutdown calls.
	e.storeOnce.Do(func() {
		if e.store != nil {
			close(e.storeQ)
			e.storeWG.Wait()
			e.store.Close()
		}
	})
	e.sessions.closeAll()
	return err
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for job := range e.queue {
		e.runJob(job)
	}
}

func (e *Engine) runJob(job *Job) {
	if !job.tryStart() {
		return // canceled while queued
	}
	e.met.workersBusy.Add(1)
	defer e.met.workersBusy.Add(-1)

	ctx := job.ctx
	timeout := time.Duration(job.Req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	timeout = faultinject.SkewDuration(faultinject.PointClockSkew, timeout)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	faultinject.WithCancel(faultinject.PointCancelStorm, job.cancel)

	log := e.log.With("job", job.ID, "kind", string(job.Req.Kind), "trace", job.trace.ID())
	log.Info("job started", "queued_ms", time.Since(job.submitted).Milliseconds())

	ctx = telemetry.WithTrace(ctx, job.trace)
	ctx, jobSpan := telemetry.StartSpan(ctx, "job")

	// Effective request: the degradation ladder mutates this copy between
	// attempts; the cache key stays the original request's.
	eff := *job.Req
	req := &eff

	start := time.Now()
	var (
		res      *Result
		err      error
		class    failureClass
		reason   string
		degraded string
	)
	attempt := 0
	for {
		attempt++
		actx := ctx
		var asp *telemetry.Span
		if attempt > 1 {
			// Retries get their own span so a degraded re-run is visible
			// in the tree; the first attempt's stages sit directly under
			// the job span, keeping the common case flat.
			actx, asp = telemetry.StartSpan(ctx, "attempt")
			asp.SetAttrs(telemetry.Int("n", int64(attempt)), telemetry.String("degraded", degraded))
		}
		if req.Kind == KindSweep {
			res, err = runSafe(actx, func(ctx context.Context) (*Result, error) {
				return e.runSweep(ctx, job, req)
			})
			// runSafe recovers every panic, so the verdict stream closes
			// however the sweep ends: the streaming handler's read loop
			// must never outlive the worker.
			close(job.verdicts)
		} else {
			res, err = runSafe(actx, func(ctx context.Context) (*Result, error) {
				return runAnalysis(ctx, req, job.progress)
			})
		}
		asp.End()
		class, reason = classify(res, err)
		if strings.HasPrefix(reason, "budget-") {
			e.met.recordBudget(strings.TrimPrefix(reason, "budget-"))
		}
		if req.Kind == KindSweep {
			// Sweeps sit outside the retry ladder: their verdicts already
			// streamed to the client, so a re-run would replay horizons the
			// reader has seen (and the degradation ladder's knobs would
			// change the session fingerprint mid-stream anyway).
			break
		}
		if class != failTransient || attempt > e.cfg.MaxRetries {
			break
		}
		e.met.recordRetry(reason)
		if step := degradeForRetry(req, reason); step != "" {
			degraded = step
			e.met.degradedJobs.Add(1)
		}
		log.Warn("job retrying", "attempt", attempt, "reason", reason, "degraded", degraded)
		// Exponential backoff, interruptible by deadline or cancel: a
		// context that dies mid-backoff ends the job with the context's
		// own classification instead of burning another attempt.
		backoff := e.cfg.RetryBackoff << (attempt - 1)
		timer := time.NewTimer(backoff)
		ctxDied := false
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			res, err = nil, ctx.Err()
			class, reason = classify(res, err)
			ctxDied = true
		}
		if ctxDied {
			break
		}
	}
	elapsed := time.Since(start)
	jobSpan.SetAttrs(telemetry.Int("attempts", int64(attempt)))
	jobSpan.End()

	switch class {
	case failNone, failTransient:
		if err != nil {
			// Transient error (panic, disagreement) with retries exhausted.
			e.met.recordFailed(reason)
			job.finishFromWorker(StateFailed, nil, err)
			break
		}
		// Either a definite answer or an Unknown the caller must interpret
		// (budget exhausted with no retries left is still a valid Unknown).
		e.met.completed.Add(1)
		e.met.recordSolve(elapsed, res.SatStats)
		e.admit.observe(job.Req.Kind, elapsed)
		if res.Tier == "static" {
			e.met.staticAnswered.Add(1)
		}
		if res.PortfolioSize > 1 {
			e.met.recordPortfolio(res.PortfolioWinner, elapsed)
		}
		res.Attempts = attempt
		res.Degraded = degraded
		if rep := job.recorder.Report(); rep != nil && rep.Totals.Solves > 0 {
			// Attach the search introspection record to the result (and
			// therefore to both cache tiers: explain works on cache hits
			// too). Static-tier and netcalc answers never ran a solver, so
			// they carry no report. The winner is known only here, where
			// the portfolio outcome is.
			rep.Winner = res.PortfolioWinner
			for i := range rep.Configs {
				if rep.Configs[i].Name != "" && rep.Configs[i].Name == rep.Winner {
					rep.Configs[i].Winner = true
				}
			}
			res.Search = rep
		}
		if res.conclusive() {
			key := job.Req.CacheKey()
			e.cache.put(key, res)
			e.storePutAsync(key, res)
		}
		job.finishFromWorker(StateDone, res, nil)
	case failCanceled:
		e.met.canceled.Add(1)
		job.finishFromWorker(StateCanceled, nil, err)
	case failDeadline:
		// The timeout is a lower bound on the true latency; feeding it to
		// the admission EWMA keeps the estimate honest under overload.
		e.met.recordFailed(reason)
		e.admit.observe(job.Req.Kind, elapsed)
		job.finishFromWorker(StateFailed, nil, err)
	default: // failPermanent: parse/type/compile errors.
		e.met.recordFailed(reason)
		job.finishFromWorker(StateFailed, nil, err)
	}

	if job.trace != nil {
		// Fold the finished trace into the stage histograms and retain it
		// for /v1/traces (the Job itself is pruned by retention earlier).
		e.met.recordStages(job.trace.Durations())
		snap := job.trace.Snapshot()
		if snap.Dropped > 0 {
			// Span truncation is invisible in the tree itself; count it so
			// an undersized -trace-spans shows up on /metrics.
			e.met.traceSpansDropped.Add(int64(snap.Dropped))
		}
		e.traces.add(TraceSummary{
			JobID:      job.ID,
			Kind:       string(job.Req.Kind),
			State:      string(job.State()),
			StartedAt:  snap.StartedAt,
			DurationMS: elapsed.Milliseconds(),
			NumSpans:   snap.NumSpans,
		}, job.trace)
		// Ship the finished trace to the OTLP exporter (if configured).
		// Enqueue never blocks: a slow or down collector costs dropped
		// snapshots, never solver latency.
		e.cfg.Exporter.Enqueue(snap,
			telemetry.String("buffy.job_kind", string(job.Req.Kind)),
			telemetry.String("buffy.job_state", string(job.State())))
	}
	switch st := job.State(); st {
	case StateDone:
		log.Info("job finished", "state", string(st), "result", res.Status,
			"attempts", attempt, "elapsed_ms", elapsed.Milliseconds())
	default:
		log.Warn("job finished", "state", string(st), "reason", reason,
			"attempts", attempt, "elapsed_ms", elapsed.Milliseconds(), "err", errString(err))
	}
	e.noteFinished(job.ID)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runSafe shields the worker pool from panics escaping the analysis
// stack: Validate should reject anything that can panic, but a panic
// that slips through must fail one job, not crash the service. The
// recovered panic is wrapped in ErrAnalysisPanic so the failure taxonomy
// can classify it as transient.
func runSafe(ctx context.Context, run func(context.Context) (*Result, error)) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrAnalysisPanic, r)
		}
	}()
	faultinject.Do(ctx, faultinject.PointAllocPressure)
	faultinject.Do(ctx, faultinject.PointSolverStall)
	faultinject.Do(ctx, faultinject.PointWorkerPanic)
	return run(ctx)
}

// runSweep answers a sweep request on a pooled warm session: acquire (or
// single-flight build) the session for the request's fingerprint, then
// deepen 1..max_t by assumption-based re-solve, streaming each horizon's
// verdict to the job as it lands. A program whose encoding cannot be
// shared across horizons gets no session from core.NewSession and sweeps
// cold; a session evicted mid-sweep degrades the remaining horizons to
// cold solves.
func (e *Engine) runSweep(ctx context.Context, job *Job, req *Request) (*Result, error) {
	_, psp := telemetry.StartSpan(ctx, "parse")
	prog, err := core.Parse(req.Source)
	psp.End()
	if err != nil {
		return nil, err
	}
	maxT := req.effMaxT()
	a := req.analysis()
	a.T = maxT // session capacity; also what the pre-solve vet gate sees
	a.Progress = job.progress
	mode := smtbe.Verify
	if req.SweepMode == "witness" {
		mode = smtbe.Witness
	}
	sess, release, hit, err := e.sessions.acquire(ctx, req.SessionKey(), func() (*session.Session, error) {
		return prog.NewSession(a, maxT)
	})
	if err != nil {
		return nil, err
	}
	defer release()
	sr, err := prog.SweepWithSession(ctx, sess, a, core.SweepOptions{
		MaxT: maxT, Mode: mode,
		OnVerdict: func(v session.Verdict) {
			job.sendVerdict(SweepVerdict{
				T: v.T, Status: v.Status.String(), Warm: v.Warm,
				DurationUS: v.Duration.Microseconds(), Conflicts: v.Conflicts,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	return resultFromSweep(sr, hit), nil
}

// runAnalysis executes one request through the core facade's
// context-aware entry points.
func runAnalysis(ctx context.Context, req *Request, progress *sat.Progress) (*Result, error) {
	_, psp := telemetry.StartSpan(ctx, "parse")
	prog, err := core.Parse(req.Source)
	psp.End()
	if err != nil {
		return nil, err
	}
	a := req.analysis()
	a.Progress = progress
	switch req.Kind {
	case KindVerify, KindWitness:
		check := prog.VerifyContext
		if req.Kind == KindWitness {
			check = prog.FindWitnessContext
		}
		r, err := check(ctx, a)
		if err != nil {
			return nil, err
		}
		return resultFromCheck(req.Kind, req.Portfolio, r), nil
	case KindSynthesize:
		r, err := prog.SynthesizeWorkloadContext(ctx, a)
		if err != nil {
			return nil, err
		}
		return resultFromSynth(r), nil
	case KindBound:
		r, err := prog.BoundContext(ctx, a)
		if err != nil {
			return nil, err
		}
		return resultFromBound(r), nil
	}
	return nil, fmt.Errorf("service: unknown kind %q", req.Kind)
}

func (e *Engine) noteFinished(id string) {
	e.mu.Lock()
	e.noteFinishedLocked(id)
	e.mu.Unlock()
}

// noteFinishedLocked records a finished job for retention pruning: once
// more than cfg.Retention jobs have finished, the oldest are forgotten.
func (e *Engine) noteFinishedLocked(id string) {
	e.finished = append(e.finished, id)
	for len(e.finished) > e.cfg.Retention {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
}
