package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"buffy/internal/bench"
	"buffy/internal/core"
	"buffy/internal/qm"
)

var (
	// trajectoryOut is where -exp trajectory (and therefore -exp all)
	// writes the machine-readable run summary buffy-benchdiff consumes.
	trajectoryOut = flag.String("trajectory-out", "BENCH_trajectory.json",
		"JSON trajectory path for the perf regression gate (compare runs with buffy-benchdiff)")
	trajectoryRepeats = flag.Int("trajectory-repeats", 3,
		"repeat count per trajectory probe (median/IQR summarized)")
)

// trajectoryProbe is one gate probe: a closed analysis run that either
// yields machine-independent work counters (deterministic single-config
// solves — the cross-machine gate) or only a wall clock (analytical
// bounds, portfolio races — gated on same-machine runs only).
type trajectoryProbe struct {
	name     string
	timeOnly bool
	advisory bool // tracked but never gated (nondeterministic wall clock)
	run      func(ctx context.Context) (map[string]int64, error)
}

// trajectoryProbes covers the repository's perf-critical surfaces with
// one probe per experiment family: the paper's case-study witness, the
// fixed-scheduler UNSAT proof, two verify-tier models, the analytical
// backend, and the portfolio race. Work probes run a single solver
// configuration (Portfolio 0) because racing diversified configs is
// first-conclusive-answer-wins and therefore nondeterministic by
// design; those surfaces are covered by wall-clock-only probes.
func trajectoryProbes() []trajectoryProbe {
	solve := func(src string, params map[string]int64, t int, witness bool) func(context.Context) (map[string]int64, error) {
		return func(ctx context.Context) (map[string]int64, error) {
			prog, err := core.Parse(src)
			if err != nil {
				return nil, err
			}
			check := prog.VerifyContext
			if witness {
				check = prog.FindWitnessContext
			}
			res, err := check(ctx, core.Analysis{T: t, Params: params})
			if err != nil {
				return nil, err
			}
			s := res.SatStats
			return map[string]int64{
				"conflicts":    s.Conflicts,
				"decisions":    s.Decisions,
				"propagations": s.Propagations,
				"learnt":       s.Learnt,
				"clauses":      int64(res.NumClauses),
				"vars":         int64(res.NumVars),
			}, nil
		}
	}
	return []trajectoryProbe{
		{name: "cs1-fq-witness-t8", run: solve(qm.FQBuggyQuerySrc, map[string]int64{"N": 3}, 8, true)},
		{name: "fq-fixed-verify-t6", run: solve(qm.FQFixedQuerySrc, map[string]int64{"N": 3}, 6, false)},
		{name: "shaper-verify-t12", run: solve(qm.ShaperSrc, map[string]int64{"RATE": 2, "BURST": 3}, 12, false)},
		{name: "sptandem-verify-t8", run: solve(qm.SPTandemSrc, map[string]int64{"RH": 1, "BH": 2, "RV": 1, "BV": 2, "C": 3}, 8, false)},
		{name: "tbrl-netcalc-bound", timeOnly: true, run: func(ctx context.Context) (map[string]int64, error) {
			prog, err := core.Parse(qm.TBRLSrc)
			if err != nil {
				return nil, err
			}
			_, err = prog.BoundContext(ctx, core.Analysis{
				T: 6, Params: map[string]int64{"RATE": 1, "BURST": 3, "C": 2}})
			return nil, err
		}},
		// Advisory: a first-wins race's wall clock depends on which
		// config wins, which varies run to run — no threshold separates
		// a regression from an unlucky race, so benchdiff only notes it.
		{name: "portfolio-witness-wall", timeOnly: true, advisory: true, run: func(ctx context.Context) (map[string]int64, error) {
			prog, err := core.Parse(qm.FQBuggyQuerySrc)
			if err != nil {
				return nil, err
			}
			_, err = prog.FindWitnessContext(ctx, core.Analysis{
				T: 8, Params: map[string]int64{"N": 3}, Portfolio: 4})
			return nil, err
		}},
	}
}

// runTrajectory answers -exp trajectory: run every probe -trajectory-
// repeats times, summarize median/IQR wall clock plus work counters,
// verify work determinism across repeats, and write the trajectory
// file. `buffy-benchdiff OLD NEW` then turns two of these files into a
// regression verdict; CI diffs the committed repo baseline against a
// fresh run.
func runTrajectory() error {
	ctx := context.Background()
	repeats := *trajectoryRepeats
	if repeats < 1 {
		repeats = 1
	}
	var exps []bench.Experiment
	fmt.Printf("%-24s  %9s  %8s  %7s  %s\n", "probe", "median", "iqr", "runs", "gate")
	for _, p := range trajectoryProbes() {
		var runs []float64
		var works []map[string]int64
		for i := 0; i < repeats; i++ {
			start := time.Now()
			work, err := p.run(ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			runs = append(runs, float64(time.Since(start).Microseconds())/1e3)
			works = append(works, work)
		}
		med, iqr := bench.MedianIQR(runs)
		det := !p.timeOnly && allWorkEqual(works)
		gate := "time (same machine only)"
		if det {
			gate = "work (cross-machine)"
		}
		if p.advisory {
			gate = "advisory (never gated)"
		}
		if !p.timeOnly && !det {
			// A probe that was supposed to be deterministic but drifted:
			// record it honestly so benchdiff falls back to the soft gate,
			// and say so, because it usually means a config leaked in.
			fmt.Printf("  note: %s work counters drifted across repeats; gating on time only\n", p.name)
		}
		exps = append(exps, bench.Experiment{
			Name: p.name, RunsMS: runs, MedianMS: med, IQRMS: iqr,
			Work: works[0], Deterministic: det, TimeOnly: p.timeOnly,
			Advisory: p.advisory,
		})
		fmt.Printf("%-24s  %7.1fms  %6.1fms  %7d  %s\n", p.name, med, iqr, repeats, gate)
	}
	out := bench.Trajectory{
		Schema:      bench.TrajectorySchema,
		CreatedUnix: time.Now().Unix(),
		GitRev:      gitRev(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		Repeats:     repeats,
		Experiments: exps,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*trajectoryOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("trajectory: %s (rev %s, go %s, P=%d; gate with buffy-benchdiff BASELINE %s)\n",
		*trajectoryOut, out.GitRev, out.GoVersion, out.GOMAXPROCS, *trajectoryOut)
	return nil
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

// gitRev best-efforts the current commit for provenance; trajectories
// written outside a checkout just omit it.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
