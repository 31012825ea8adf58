package main

import (
	"context"
	"fmt"

	"buffy/internal/backend/smtbe"
	"buffy/internal/bench"
	"buffy/internal/core"
	"buffy/internal/qm"
)

// sweepCase is one corpus entry of the experiment.
type sweepCase struct {
	name   string
	src    string
	params map[string]int64
	mode   smtbe.Mode
	maxT   int
}

// sweepCorpus picks models whose sweeps run deep: queries that answer
// the same way at every horizon (the RFC 8290 fix removes the starvation
// witness, round-robin never starves, the shaper envelope holds), so the
// sweep covers all of 1..maxT and warm reuse compounds across horizons.
// A buggy model rides along to show a sweep that terminates at the
// minimal witness horizon still agrees warm-vs-cold.
func sweepCorpus() []sweepCase {
	return []sweepCase{
		{"shaper", qm.ShaperSrc, map[string]int64{"RATE": 2, "BURST": 3}, smtbe.Verify, 12},
		{"tbrl", qm.TBRLSrc, map[string]int64{"RATE": 1, "BURST": 3, "C": 2}, smtbe.Verify, 8},
		{"sptandem", qm.SPTandemSrc, map[string]int64{"RH": 1, "BH": 2, "RV": 1, "BV": 2, "C": 3}, smtbe.Verify, 8},
		{"cs1-fq-buggy", qm.FQBuggyQuerySrc, map[string]int64{"N": 3}, smtbe.Witness, 8},
	}
}

// runSweepExp measures what the warm-session subsystem buys: for each
// model, horizons 1..maxT are solved cold (a fresh compile and solver per
// horizon — the pre-session FindMinHorizon cost model) and warm (one
// symbolic-T encoding, per-horizon assumptions, learnt clauses carried
// across horizons). Verdicts must agree horizon-for-horizon; the
// experiment fails if fewer than two models clear a 2x speedup. Each
// model records a sweep/<model>/cold and a sweep/<model>/warm entry.
func runSweepExp() ([]bench.Experiment, error) {
	ctx := context.Background()
	var exps []bench.Experiment
	twoX := 0
	fmt.Printf("%-14s  %-8s  %5s  %8s  %9s  %9s  %8s\n",
		"model", "mode", "maxT", "found@", "cold", "warm", "speedup")
	corpus := sweepCorpus()
	for _, c := range corpus {
		prog, err := core.Parse(c.src)
		if err != nil {
			return exps, fmt.Errorf("%s: %w", c.name, err)
		}
		a := core.Analysis{T: c.maxT, Params: c.params}

		// Cold reference: nil session forces a per-horizon compile+solve.
		cold, err := prog.SweepWithSession(ctx, nil, a, core.SweepOptions{MaxT: c.maxT, Mode: c.mode})
		if err != nil {
			return exps, fmt.Errorf("%s cold: %w", c.name, err)
		}
		// Warm run: one session answers every horizon by re-solve.
		sess, err := prog.NewSession(a, c.maxT)
		if err != nil {
			return exps, fmt.Errorf("%s session: %w", c.name, err)
		}
		warm, err := prog.SweepWithSession(ctx, sess, a, core.SweepOptions{MaxT: c.maxT, Mode: c.mode})
		if err != nil {
			return exps, fmt.Errorf("%s warm: %w", c.name, err)
		}
		if !warm.Warm {
			return exps, fmt.Errorf("%s: warm sweep fell back to cold solves", c.name)
		}

		// The whole point is identical answers for less time: disagreement
		// is a correctness bug, not a measurement artifact.
		if len(cold.Verdicts) != len(warm.Verdicts) || cold.FoundAt != warm.FoundAt {
			return exps, fmt.Errorf("%s: cold found %v@%d over %d horizons, warm %v@%d over %d",
				c.name, cold.Final.Status, cold.FoundAt, len(cold.Verdicts),
				warm.Final.Status, warm.FoundAt, len(warm.Verdicts))
		}
		for i, wv := range warm.Verdicts {
			if cv := cold.Verdicts[i]; wv.Status != cv.Status {
				return exps, fmt.Errorf("%s: horizon %d disagrees (warm %v, cold %v)",
					c.name, wv.T, wv.Status, cv.Status)
			}
		}
		verdict := warm.Final.Status.String()
		if warm.FoundAt > 0 {
			verdict = fmt.Sprintf("%s@%d", verdict, warm.FoundAt)
		}
		speedup := float64(cold.Duration) / float64(warm.Duration)
		if speedup >= 2 {
			twoX++
		}
		exps = append(exps,
			advisory("sweep/"+c.name+"/cold", verdict, cold.Duration),
			advisory("sweep/"+c.name+"/warm", verdict, warm.Duration))
		fmt.Printf("%-14s  %-8s  %5d  %8d  %7.1fms  %7.1fms  %7.2fx\n",
			c.name, c.mode, c.maxT, warm.FoundAt, ms(cold.Duration), ms(warm.Duration), speedup)
	}

	fmt.Printf("%d of %d models at >= 2x warm speedup\n", twoX, len(corpus))
	fmt.Println("(cold = fresh compile+solver per horizon; warm = one symbolic-T session re-solved under assumptions)")
	if twoX < 2 {
		return exps, fmt.Errorf("sweep speedup floor violated: only %d models at >= 2x (need 2)", twoX)
	}
	return exps, nil
}
