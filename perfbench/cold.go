package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/buffer"
	"buffy/internal/core"
	"buffy/internal/ir"
	"buffy/internal/lang/parser"
	"buffy/internal/lang/sema"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/solver"
)

// maxMeasure caps a run's measuring time, so a run that cannot reach
// minSamples in time still ends well within three minutes.
const maxMeasure = 100 * time.Second

func (q *coldQuery) analysis() core.Analysis {
	return core.Analysis{T: q.T, Params: q.Params, Model: q.Model}
}

// solve is one cold query through the core facade: parse, then one
// analysis call. Its time is the query's latency.
func (q *coldQuery) solve(ctx context.Context) (*core.Program, *smtbe.Result, error) {
	prog, err := core.Parse(q.src)
	if err != nil {
		return nil, nil, err
	}
	var res *smtbe.Result
	if q.Mode == "witness" {
		res, err = prog.FindWitnessContext(ctx, q.analysis())
	} else {
		res, err = prog.VerifyContext(ctx, q.analysis())
	}
	return prog, res, err
}

// answer is what the untimed check needs from one query.
type answer struct {
	q      *coldQuery
	prog   *core.Program
	status smtbe.Status
	trace  *smtbe.Trace
}

// check compares the verdict with the grid's expected verdict and
// replays a Sat trace through the concrete interpreter.
func (a answer) check() error {
	if got := a.status.String(); got != a.q.Expect {
		return fmt.Errorf("%s: verdict %s, want %s", a.q.Name, got, a.q.Expect)
	}
	if a.trace == nil {
		return nil
	}
	return replay(a.q.Name, a.prog, a.q.analysis(), a.trace)
}

func replay(name string, prog *core.Program, a core.Analysis, tr *smtbe.Trace) error {
	_, diffs, err := prog.Replay(a, tr)
	if err != nil {
		return fmt.Errorf("%s: replay: %w", name, err)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s: replay disagrees with the solver trace: %v", name, diffs)
	}
	return nil
}

// coldSetup parses and vets every grid program and runs the grid's first
// query once, which is what a run needs before its first timed query.
func coldSetup(ctx context.Context, w *coldWorkload) error {
	for _, q := range w.Queries {
		prog, err := core.Parse(q.src)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		prog.Vet(q.analysis())
	}
	_, _, err := w.Queries[0].solve(ctx)
	return err
}

func runCold(name string, w *coldWorkload, cfg runConfig) (*report, error) {
	ctx := context.Background()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := coldSetup(ctx, w); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	if cfg.trace {
		return runColdTraced(ctx, name, w, cfg)
	}

	rep := &report{Correct: true, Metrics: metrics{}}
	var lats []float64
	var answers []answer
	start, cpu0 := time.Now(), cpuTime()
	for pass := 0; ; pass++ {
		for _, i := range passOrder(cfg.seed, pass, len(w.Queries)) {
			q := w.Queries[i]
			t0 := time.Now()
			prog, res, err := q.solve(ctx)
			lats = append(lats, ms(time.Since(t0)))
			rep.Attempted++
			if err != nil || res.Status == smtbe.Unknown {
				rep.Failed++
				fmt.Fprintf(os.Stderr, "%s: failed: %v\n", q.Name, err)
				continue
			}
			answers = append(answers, answer{q: q, prog: prog, status: res.Status, trace: res.Trace})
		}
		el := time.Since(start)
		if el >= maxMeasure || (el >= cfg.duration && len(lats) >= minSamples) {
			break
		}
	}
	window, cpu := time.Since(start), cpuTime()-cpu0
	endToEndMetrics(rep.Metrics, lats, window, cpu, setups, rep.Attempted, rep.Failed)

	for _, a := range answers {
		if err := a.check(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			rep.Correct = false
		}
	}
	return rep, nil
}

// span is one call into a layer, recorded by the traced run. Spans stay
// in memory until the run ends and are then written out.
type span struct {
	Query   int     `json:"query"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Allocs  uint64  `json:"allocs"`
	Bytes   uint64  `json:"bytes"`
	GCs     uint32  `json:"gcs,omitempty"`
	PauseNs uint64  `json:"gc_pause_ns,omitempty"`
}

type spanRecorder struct {
	t0    time.Time
	query int
	spans []span
}

// do runs f as a span named name under the query span.
func (r *spanRecorder) do(name string, f func() error) error {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	dur := time.Since(start)
	d := memSince(&before)
	r.spans = append(r.spans, span{
		Query: r.query, Name: name, Parent: "query",
		StartMS: ms(start.Sub(r.t0)), DurMS: ms(dur),
		Allocs: d.allocs, Bytes: d.bytes, GCs: d.gcs, PauseNs: d.pauseNs,
	})
	return err
}

// counts are a cold query's deterministic work counters.
type counts struct {
	Terms        int64 `json:"ir.terms"`
	Assumes      int64 `json:"ir.assumes"`
	Vars         int64 `json:"cnf.vars"`
	Clauses      int64 `json:"cnf.clauses"`
	Conflicts    int64 `json:"sat.conflicts"`
	Decisions    int64 `json:"sat.decisions"`
	Propagations int64 `json:"sat.propagations"`
	Restarts     int64 `json:"sat.restarts"`
	Learnt       int64 `json:"sat.learnt"`
	Removed      int64 `json:"sat.removed"`
}

func (c *counts) add(o counts) {
	c.Terms += o.Terms
	c.Assumes += o.Assumes
	c.Vars += o.Vars
	c.Clauses += o.Clauses
	c.Conflicts += o.Conflicts
	c.Decisions += o.Decisions
	c.Propagations += o.Propagations
	c.Restarts += o.Restarts
	c.Learnt += o.Learnt
	c.Removed += o.Removed
}

// traced is the traced decomposition's outcome for one query.
type traced struct {
	status smtbe.Status
	static bool
	counts counts
	trace  *smtbe.Trace
}

// decompose answers q by calling each layer the way the core path does —
// parse and check, vet, compile, bit-blast, search, model — recording a
// span around each call.
func (q *coldQuery) decompose(ctx context.Context, rec *spanRecorder) (*traced, error) {
	out := &traced{}
	a := q.analysis()
	var info *typecheck.Info
	if err := rec.do("lang.parse", func() error {
		p, err := parser.Parse(q.src)
		if err != nil {
			return err
		}
		info, err = typecheck.Check(p)
		return err
	}); err != nil {
		return nil, err
	}

	var rep *sema.Report
	rec.do("sema.vet", func() error {
		rep = sema.Analyze(info, sema.Options{T: a.T, Params: a.Params})
		return nil
	})
	v := rep.Verdict
	if v.Reason != sema.ReasonNoAsserts {
		switch {
		case q.Mode == "verify" && v.Verify == "holds":
			out.status, out.static = smtbe.Holds, true
			return out, nil
		case q.Mode == "witness" && v.Witness == "no-witness":
			out.status, out.static = smtbe.NoWitness, true
			return out, nil
		}
	}

	model, err := buffer.ModelByName(a.Model)
	if err != nil {
		return nil, err
	}
	s := solver.New(solver.Options{})
	var c *ir.Compiled
	if err := rec.do("ir.compile", func() error {
		var err error
		c, err = ir.CompileContext(ctx, info, s.Builder(), ir.Options{Model: model, T: a.T, Params: a.Params})
		return err
	}); err != nil {
		return nil, err
	}
	if len(c.Asserts) == 0 {
		return nil, errors.New("program has no assert()")
	}
	out.counts.Terms = int64(s.Builder().NumTerms())
	out.counts.Assumes = int64(len(c.Assumes))

	rec.do("bitblast", func() error {
		for _, t := range c.Assumes {
			s.Assert(t)
		}
		if q.Mode == "witness" {
			s.Assert(c.AssertHolds())
			s.Assert(c.AssertReached())
		} else {
			s.Assert(c.Violation())
		}
		return nil
	})
	out.counts.Vars = int64(s.NumVars())
	out.counts.Clauses = int64(s.NumClauses())

	var outcome solver.Result
	rec.do("sat.search", func() error {
		outcome = s.CheckContextNoModel(ctx)
		return nil
	})
	st := s.Stats()
	out.counts.Conflicts, out.counts.Decisions = st.Conflicts, st.Decisions
	out.counts.Propagations, out.counts.Restarts = st.Propagations, st.Restarts
	out.counts.Learnt, out.counts.Removed = st.Learnt, st.Removed

	witness := q.Mode == "witness"
	switch {
	case outcome == solver.Unknown:
		out.status = smtbe.Unknown
	case outcome == solver.Sat && witness:
		out.status = smtbe.WitnessFound
	case outcome == solver.Sat:
		out.status = smtbe.CounterexampleFound
	case witness:
		out.status = smtbe.NoWitness
	default:
		out.status = smtbe.Holds
	}
	if outcome == solver.Sat {
		rec.do("smtbe.model", func() error {
			s.SnapshotModel()
			out.trace = smtbe.ExtractTrace(c, s)
			return nil
		})
	}
	return out, nil
}

// fidelity checks that the decomposition encoded and searched exactly as
// the core call did.
func fidelity(q *coldQuery, ref *smtbe.Result, tr *traced) error {
	if ref.Status != tr.status || (ref.Tier == "static") != tr.static {
		return fmt.Errorf("%s: traced verdict %v (static %v), core verdict %v (tier %q)",
			q.Name, tr.status, tr.static, ref.Status, ref.Tier)
	}
	got := [4]int64{tr.counts.Vars, tr.counts.Clauses, tr.counts.Conflicts, tr.counts.Propagations}
	want := [4]int64{int64(ref.NumVars), int64(ref.NumClauses), ref.SatStats.Conflicts, ref.SatStats.Propagations}
	if got != want {
		return fmt.Errorf("%s: traced vars/clauses/conflicts/propagations %v, core %v", q.Name, got, want)
	}
	return nil
}

func runColdTraced(ctx context.Context, name string, w *coldWorkload, cfg runConfig) (*report, error) {
	rep := &report{Correct: true, Metrics: metrics{}}
	bad := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		rep.Correct = false
	}
	rec := &spanRecorder{t0: time.Now()}
	exact := map[string]counts{}
	var refMS, tracedMS float64
	static := 0
	passes := 0
	for pass := 0; ; pass++ {
		for _, i := range passOrder(cfg.seed, pass, len(w.Queries)) {
			q := w.Queries[i]
			rep.Attempted++

			t0 := time.Now()
			prog, ref, err := q.solve(ctx)
			refMS += ms(time.Since(t0))
			if err != nil || ref.Status == smtbe.Unknown {
				rep.Failed++
				fmt.Fprintf(os.Stderr, "%s: failed: %v\n", q.Name, err)
				continue
			}

			rec.query++
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			t1 := time.Now()
			tr, err := q.decompose(ctx, rec)
			dur := time.Since(t1)
			d := memSince(&before)
			tracedMS += ms(dur)
			rec.spans = append(rec.spans, span{
				Query: rec.query, Name: "query", StartMS: ms(t1.Sub(rec.t0)), DurMS: ms(dur),
				Allocs: d.allocs, Bytes: d.bytes, GCs: d.gcs, PauseNs: d.pauseNs,
			})
			if err != nil {
				bad(fmt.Errorf("%s: traced: %w", q.Name, err))
				continue
			}
			if tr.static {
				static++
			}
			if err := fidelity(q, ref, tr); err != nil {
				bad(err)
			}
			if prev, ok := exact[q.Name]; ok && prev != tr.counts {
				bad(fmt.Errorf("%s: work counters changed between passes: %+v vs %+v", q.Name, prev, tr.counts))
			}
			exact[q.Name] = tr.counts
			if err := (answer{q: q, prog: prog, status: ref.Status, trace: ref.Trace}).check(); err != nil {
				bad(err)
			}
			if tr.trace != nil {
				if err := replay(q.Name+" (traced)", prog, q.analysis(), tr.trace); err != nil {
					bad(err)
				}
			}
		}
		passes++
		if el := time.Since(rec.t0); el >= maxMeasure || (passes >= 2 && el >= cfg.duration) {
			break
		}
	}
	flat, err := flatten(exact)
	if err != nil {
		return nil, err
	}
	if err := checkExactAcrossRuns(cfg.out, name, flat); err != nil {
		bad(err)
	}
	if err := writeJSON(filepath.Join(cfg.out, "spans"), fmt.Sprintf("%s-seed%d.json", name, cfg.seed), rec.spans); err != nil {
		return nil, err
	}

	// Per-layer metrics: sums over the run divided by passes, so each is
	// the cost of one pass over the grid.
	type layer struct {
		ms      float64
		allocs  float64
		bytes   float64
		gcs     float64
		pauseMS float64
	}
	sum := map[string]*layer{}
	for _, sp := range rec.spans {
		l := sum[sp.Name]
		if l == nil {
			l = &layer{}
			sum[sp.Name] = l
		}
		l.ms += sp.DurMS
		l.allocs += float64(sp.Allocs)
		l.bytes += float64(sp.Bytes)
		l.gcs += float64(sp.GCs)
		l.pauseMS += float64(sp.PauseNs) / 1e6
	}
	get := func(n string) layer {
		if l := sum[n]; l != nil {
			return *l
		}
		return layer{}
	}
	p := float64(passes)
	m := rep.Metrics
	total := get("query")
	m.set("lang.parse_ms", get("lang.parse").ms/p)
	m.set("lang.allocs", get("lang.parse").allocs/p)
	m.set("sema.vet_ms", get("sema.vet").ms/p)
	m.set("sema.allocs", get("sema.vet").allocs/p)
	m.set("sema.static_answers", float64(static)/p)
	m.set("ir.compile_ms", get("ir.compile").ms/p)
	m.set("ir.compile_share", ratio(get("ir.compile").ms, total.ms))
	m.set("ir.allocs", get("ir.compile").allocs/p)
	m.set("ir.alloc_mb", get("ir.compile").bytes/p/(1<<20))
	m.set("bitblast.ms", get("bitblast").ms/p)
	m.set("bitblast.allocs", get("bitblast").allocs/p)
	m.set("sat.search_ms", get("sat.search").ms/p)
	m.set("sat.search_share", ratio(get("sat.search").ms, total.ms))
	m.set("smtbe.model_ms", get("smtbe.model").ms/p)
	m.set("go.gc_cycles", total.gcs/p)
	m.set("go.gc_pause_ms", total.pauseMS/p)
	m.set("go.total_alloc_mb", total.bytes/p/(1<<20))
	m.set("trace.overhead_pct", 100*ratio(tracedMS-refMS, refMS))

	// Exact counters: one pass runs every grid entry once, so the pass
	// sum is the sum over entries.
	var perPass counts
	for _, c := range exact {
		perPass.add(c)
	}
	m.set("ir.terms", float64(perPass.Terms))
	m.set("ir.assumes", float64(perPass.Assumes))
	m.set("cnf.vars", float64(perPass.Vars))
	m.set("cnf.clauses", float64(perPass.Clauses))
	m.set("sat.conflicts", float64(perPass.Conflicts))
	m.set("sat.decisions", float64(perPass.Decisions))
	m.set("sat.propagations", float64(perPass.Propagations))
	m.set("sat.restarts", float64(perPass.Restarts))
	m.set("sat.learnt", float64(perPass.Learnt))
	m.set("sat.removed", float64(perPass.Removed))
	m.set("sat.props_per_ms", ratio(float64(perPass.Propagations), get("sat.search").ms/p))
	return rep, nil
}

// checkExactAcrossRuns compares this run's exact counters with those an
// earlier traced run of the same binary and workload recorded, and
// records them when this is the first such run.
func checkExactAcrossRuns(out, workload string, got map[string]int64) error {
	id, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Join(out, "exact")
	name := fmt.Sprintf("%s-%s.json", workload, id)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return writeJSON(dir, name, got)
	}
	if err != nil {
		return err
	}
	var want map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for k, v := range got {
		if w, ok := want[k]; ok && w != v {
			return fmt.Errorf("%s: %d, an earlier traced run of this build counted %d", k, v, w)
		}
	}
	return nil
}

// flatten keys each query's exact counters as "query/metric".
func flatten(exact map[string]counts) (map[string]int64, error) {
	out := map[string]int64{}
	for q, c := range exact {
		data, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		var m map[string]int64
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, err
		}
		for k, v := range m {
			out[q+"/"+k] = v
		}
	}
	return out, nil
}

// buildID identifies the running binary, so exact counters are compared
// only between runs of one build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
