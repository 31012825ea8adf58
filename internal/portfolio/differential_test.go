package portfolio

import (
	"context"
	"fmt"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/ir"
	"buffy/internal/qm"
)

// corpusEntry is one example analysis: the same programs and queries the
// examples/ walkthroughs and the paper's case studies exercise, at
// horizons small enough to run every config in CI.
type corpusEntry struct {
	name   string
	src    string
	mode   smtbe.Mode
	t      int
	params map[string]int64
	want   smtbe.Status
}

// corpus returns the differential-test corpus. Every entry has a known
// conclusive answer, so heuristic-dependent solver bugs show up as either
// a wrong status or cross-config disagreement. Under the race detector
// (raceEnabled) the corpus shrinks to one sat and one unsat entry: that
// run exists to catch data races in the fork/cancel machinery, and the
// full heuristic sweep stays with the regular test run.
func corpus() []corpusEntry {
	all := []corpusEntry{
		{"fq-buggy-starvation", qm.FQBuggyQuerySrc, smtbe.Witness, 5, map[string]int64{"N": 3}, smtbe.WitnessFound},
		{"shaper-envelope", qm.ShaperSrc, smtbe.Verify, 4, map[string]int64{"RATE": 2, "BURST": 3}, smtbe.Holds},
		{"rr-no-starvation", qm.RRQuerySrc, smtbe.Witness, 6, map[string]int64{"N": 2}, smtbe.NoWitness},
		{"sp-starvation", qm.SPQuerySrc, smtbe.Witness, 4, map[string]int64{"N": 3}, smtbe.WitnessFound},
		{"drr-work-conserving", qm.DRRSrc, smtbe.Verify, 4, map[string]int64{"N": 2, "Q": 2}, smtbe.Holds},
	}
	if raceEnabled {
		return all[:2]
	}
	return all
}

// TestDifferentialAllConfigsAgree runs every built-in portfolio config
// over the corpus as a single-config "portfolio" and asserts every
// conclusive answer matches the known-good status: the heuristics may
// only change how the search goes, never where it lands. This is the
// offline twin of the runner's online disagreement cross-check.
func TestDifferentialAllConfigsAgree(t *testing.T) {
	for _, entry := range corpus() {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			info := qm.MustLoad(entry.src)
			for _, cfg := range builtinConfigs() {
				res, err := CheckContext(context.Background(), info, Options{
					Configs: []Config{cfg},
					Base: smtbe.Options{
						IR:   ir.Options{T: entry.t, Params: entry.params},
						Mode: entry.mode,
					},
				})
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				if res.Status != entry.want {
					t.Errorf("%s: status %v, want %v — heuristic-dependent solver bug",
						cfg.Name, res.Status, entry.want)
				}
				if res.Winner != cfg.Name {
					t.Errorf("%s: winner %q", cfg.Name, res.Winner)
				}
			}
		})
	}
}

// TestPortfolioMatchesSingleConfigOnCorpus runs the full default
// portfolio on every corpus entry and asserts the first-wins answer
// equals the known single-config answer — the acceptance criterion that
// portfolio and single-config solves agree on every example.
func TestPortfolioMatchesSingleConfigOnCorpus(t *testing.T) {
	for _, entry := range corpus() {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			info := qm.MustLoad(entry.src)
			res, err := CheckContext(context.Background(), info, Options{
				N: 4,
				Base: smtbe.Options{
					IR:   ir.Options{T: entry.t, Params: entry.params},
					Mode: entry.mode,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != entry.want {
				t.Errorf("portfolio status %v (winner %s), want %v", res.Status, res.Winner, entry.want)
			}
			if res.Winner == "" {
				t.Error("no winning config on a conclusive corpus entry")
			}
			if len(res.Runs) != 4 {
				t.Errorf("runs = %d, want 4", len(res.Runs))
			}
		})
	}
}

// TestDifferentialConfigNamesPrintable keeps bench/metrics labels sane.
func TestDifferentialConfigNamesPrintable(t *testing.T) {
	for i, cfg := range DefaultConfigs(16) {
		if cfg.Name == "" {
			t.Errorf("config %d has empty name", i)
		}
		if got := fmt.Sprintf("%q", cfg.Name); len(got) > 40 {
			t.Errorf("config name %s too long for a metric label", got)
		}
	}
}
