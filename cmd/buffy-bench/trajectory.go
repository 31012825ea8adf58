package main

import (
	"context"
	"fmt"
	"time"

	"buffy/internal/bench"
	"buffy/internal/core"
	"buffy/internal/qm"
	"buffy/internal/telemetry"
)

// trajectoryRepeats is how many runs each trajectory probe's median/IQR
// summarizes.
const trajectoryRepeats = 3

// trajectoryProbe is one gate probe: a closed analysis run that yields
// its answer and, for deterministic single-config solves, the
// machine-independent work counters of the cross-machine gate.
type trajectoryProbe struct {
	name     string
	advisory bool // tracked but never time-gated (nondeterministic wall clock)
	run      func(ctx context.Context) (verdict string, work map[string]int64, err error)
}

// trajectoryProbes covers the repository's perf-critical surfaces with
// one probe per experiment family: the paper's case-study witness, the
// fixed-scheduler UNSAT proof, two verify-tier models, the analytical
// backend, and the portfolio race, plus the per-stage corpus (FQ and RR
// witnesses under the list and count models, an SP verify). Work probes
// run a single solver configuration (Portfolio 0) because racing
// diversified configs is first-conclusive-answer-wins and therefore
// nondeterministic by design; that surface is covered by an advisory
// wall-clock probe.
func trajectoryProbes() []trajectoryProbe {
	solve := func(src string, a core.Analysis, witness bool) func(context.Context) (string, map[string]int64, error) {
		return func(ctx context.Context) (string, map[string]int64, error) {
			prog, err := parse(ctx, src)
			if err != nil {
				return "", nil, err
			}
			check := prog.VerifyContext
			if witness {
				check = prog.FindWitnessContext
			}
			res, err := check(ctx, a)
			if err != nil {
				return "", nil, err
			}
			if a.Portfolio > 1 { // a race's counters depend on the winner
				return res.Status.String(), nil, nil
			}
			s := res.SatStats
			return res.Status.String(), map[string]int64{
				"conflicts":    s.Conflicts,
				"decisions":    s.Decisions,
				"propagations": s.Propagations,
				"learnt":       s.Learnt,
				"clauses":      int64(res.NumClauses),
				"vars":         int64(res.NumVars),
			}, nil
		}
	}
	n3, n2 := map[string]int64{"N": 3}, map[string]int64{"N": 2}
	return []trajectoryProbe{
		{name: "cs1-fq-witness-t8", run: solve(qm.FQBuggyQuerySrc, core.Analysis{T: 8, Params: n3}, true)},
		{name: "fq-fixed-verify-t6", run: solve(qm.FQFixedQuerySrc, core.Analysis{T: 6, Params: n3}, false)},
		{name: "shaper-verify-t12", run: solve(qm.ShaperSrc, core.Analysis{T: 12, Params: map[string]int64{"RATE": 2, "BURST": 3}}, false)},
		{name: "sptandem-verify-t8", run: solve(qm.SPTandemSrc, core.Analysis{T: 8, Params: map[string]int64{"RH": 1, "BH": 2, "RV": 1, "BV": 2, "C": 3}}, false)},
		{name: "tbrl-netcalc-bound", run: func(ctx context.Context) (string, map[string]int64, error) {
			prog, err := parse(ctx, qm.TBRLSrc)
			if err != nil {
				return "", nil, err
			}
			r, err := prog.BoundContext(ctx, core.Analysis{
				T: 6, Params: map[string]int64{"RATE": 1, "BURST": 3, "C": 2}})
			if err != nil {
				return "", nil, err
			}
			return boundVerdict(r), nil, nil
		}},
		// Advisory: a first-wins race's wall clock depends on which
		// config wins, which varies run to run — no threshold separates
		// a regression from an unlucky race, so benchdiff only notes it.
		{name: "portfolio-witness-wall", advisory: true, run: solve(qm.FQBuggyQuerySrc, core.Analysis{T: 8, Params: n3, Portfolio: 4}, true)},
		{name: "fq-witness-t6", run: solve(qm.FQBuggyQuerySrc, core.Analysis{T: 6, Params: n3}, true)},
		{name: "rr-witness-t6", run: solve(qm.RRQuerySrc, core.Analysis{T: 6, Params: n2}, true)},
		{name: "rr-count-witness-t6", run: solve(qm.RRQuerySrc, core.Analysis{T: 6, Params: n2, Model: "count"}, true)},
		{name: "sp-verify-t5", run: solve(qm.SPQuerySrc, core.Analysis{T: 5, Params: n2}, false)},
	}
}

// parse is core.Parse under a "parse" span, so the probe's stage
// breakdown covers the whole pipeline.
func parse(ctx context.Context, src string) (*core.Program, error) {
	_, sp := telemetry.StartSpan(ctx, "parse")
	defer sp.End()
	return core.Parse(src)
}

// runTrajectory answers -exp trajectory: run every probe
// trajectoryRepeats times under a telemetry trace, and summarize the
// median/IQR wall clock, the per-stage medians, the verdict and the work
// counters, checking that the verdict and the counters repeat.
// `buffy-benchdiff OLD NEW` then turns two recorded runs into a
// regression verdict; CI diffs the committed repo baseline against a
// fresh run.
func runTrajectory() ([]bench.Experiment, error) {
	ctx := context.Background()
	var exps []bench.Experiment
	fmt.Printf("%-24s  %9s  %8s  %7s  %-24s  %s\n", "probe", "median", "iqr", "runs", "gate", "verdict")
	for _, p := range trajectoryProbes() {
		var runs []float64
		var works []map[string]int64
		var verdict string
		stages := map[string][]float64{}
		for i := 0; i < trajectoryRepeats; i++ {
			tr := telemetry.NewTraceN(p.name, 4096)
			start := time.Now()
			v, work, err := p.run(telemetry.WithTrace(ctx, tr))
			if err != nil {
				return exps, fmt.Errorf("%s: %w", p.name, err)
			}
			runs = append(runs, ms(time.Since(start)))
			works = append(works, work)
			if i > 0 && v != verdict {
				return exps, fmt.Errorf("%s: verdict changed across repeats: %s then %s", p.name, verdict, v)
			}
			verdict = v
			for name, d := range stageDurations(tr) {
				stages[name] = append(stages[name], ms(d))
			}
		}
		e := bench.NewExperiment(p.name, runs...)
		e.Verdict, e.Work, e.Advisory = verdict, works[0], p.advisory
		e.Deterministic = len(works[0]) > 0 && allWorkEqual(works)
		e.StagesMS = make(map[string]float64, len(stages))
		for name, vals := range stages {
			e.StagesMS[name], _ = bench.MedianIQR(vals)
		}
		gate := "time (same machine only)"
		switch {
		case p.advisory:
			gate = "advisory (never gated)"
		case e.Deterministic:
			gate = "work (cross-machine)"
		case len(works[0]) > 0:
			// A probe that was supposed to be deterministic but drifted:
			// record it honestly so benchdiff falls back to the soft gate,
			// and say so, because it usually means a config leaked in.
			fmt.Printf("  note: %s work counters drifted across repeats; gating on time only\n", p.name)
		}
		exps = append(exps, e)
		fmt.Printf("%-24s  %7.1fms  %6.1fms  %7d  %-24s  %s\n", p.name, e.MedianMS, e.IQRMS, trajectoryRepeats, gate, verdict)
	}
	return exps, nil
}

// stageDurations sums a finished trace's spans by name. compile and
// bitblast run inside encode, so encode is reported as their residue
// and the pipeline stages are disjoint.
func stageDurations(tr *telemetry.Trace) map[string]time.Duration {
	durs := tr.Durations()
	if enc, ok := durs["encode"]; ok {
		durs["encode"] = enc - durs["compile"] - durs["bitblast"]
	}
	return durs
}

// ms converts a duration to fractional milliseconds, the unit every
// recorded experiment uses.
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

// advisory records one single-sample side of an experiment row: never
// time-gated, but its presence and verdict are.
func advisory(name, verdict string, d time.Duration) bench.Experiment {
	e := bench.NewExperiment(name, ms(d))
	e.Verdict, e.Advisory = verdict, true
	return e
}

// allWorkEqual reports whether every repeat produced identical work
// counters — the determinism proof that licenses the hard gate.
func allWorkEqual(works []map[string]int64) bool {
	for _, w := range works[1:] {
		if len(w) != len(works[0]) {
			return false
		}
		for k, v := range works[0] {
			if w[k] != v {
				return false
			}
		}
	}
	return true
}
