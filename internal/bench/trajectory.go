// Package bench holds the benchmark-trajectory schema and the
// noise-aware comparison logic behind the perf regression gate:
// cmd/buffy-bench writes a Trajectory (one summarized entry per probe
// or experiment row: median/IQR wall clock, verdict, and for solver
// probes per-stage times and deterministic work counters), and
// cmd/buffy-benchdiff diffs two of them, gating verdicts and work
// counters hard and wall-clock softly.
//
// The split matters because the two metric families degrade differently
// across machines. Solver work counters (conflicts, propagations,
// learnt clauses) from a single-configuration CDCL solve with fixed
// seeds are machine-independent: any change is a real change in search
// behavior, so they gate at a tight threshold everywhere, including CI
// runners that share nothing with the machine that wrote the baseline.
// Wall-clock medians are only comparable on the same machine class, so
// they gate only when the run fingerprints match, and only when the
// delta clears both a relative threshold and an IQR-scaled noise bar.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// TrajectorySchema versions the BENCH_trajectory.json layout. Bump on
// renames or semantic changes; additions that old readers ignore are
// fine without one.
const TrajectorySchema = 1

// Experiment is one probe's summary across repeat runs.
type Experiment struct {
	Name     string    `json:"name"`
	RunsMS   []float64 `json:"runs_ms"`
	MedianMS float64   `json:"median_ms"`
	IQRMS    float64   `json:"iqr_ms"`
	// Verdict is the answer the run produced ("holds", "witness@1",
	// "dominated 3/2 3", ...). Answers are machine-independent, so a
	// changed verdict gates on every machine, advisory probes included.
	Verdict string `json:"verdict,omitempty"`
	// StagesMS is the per-stage median wall clock of a traced solver
	// probe (parse, compile, bitblast, encode residue, search, ...).
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
	// Work holds machine-independent solver effort counters
	// (conflicts, propagations, ...) when the probe is a deterministic
	// single-config solve; nil for wall-clock-only probes.
	Work map[string]int64 `json:"work,omitempty"`
	// Deterministic reports that every repeat produced identical Work
	// counters, which is what licenses the hard cross-machine gate. A
	// probe that claims determinism but measures drift is recorded
	// false and falls back to the soft time gate.
	Deterministic bool `json:"deterministic"`
	// Advisory marks probes whose timings are tracked for the record
	// but never gated: a first-conclusive-answer-wins portfolio race has
	// intrinsically nondeterministic wall clock (which config wins
	// varies run to run), and a single-sample experiment row has no
	// noise bar, so no threshold separates regression from luck.
	// benchdiff reports their drift as a note; presence and verdict
	// still gate.
	Advisory bool `json:"advisory,omitempty"`
}

// NewExperiment summarizes one probe's repeat-run wall clocks.
func NewExperiment(name string, runsMS ...float64) Experiment {
	med, iqr := MedianIQR(runsMS)
	return Experiment{Name: name, RunsMS: runsMS, MedianMS: med, IQRMS: iqr}
}

// Trajectory is the BENCH_trajectory.json file: one benchmark run's
// summarized probes plus enough provenance to decide how comparable a
// later run is.
type Trajectory struct {
	Schema      int          `json:"schema"`
	CreatedUnix int64        `json:"created_unix"`
	GitRev      string       `json:"git_rev,omitempty"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	OS          string       `json:"os"`
	Arch        string       `json:"arch"`
	Repeats     int          `json:"repeats"`
	Experiments []Experiment `json:"experiments"`
}

// FingerprintMatch reports whether two trajectories came from
// comparable machines, the precondition for gating wall-clock medians.
func (t *Trajectory) FingerprintMatch(o *Trajectory) bool {
	return t.GoVersion == o.GoVersion && t.GOMAXPROCS == o.GOMAXPROCS &&
		t.OS == o.OS && t.Arch == o.Arch
}

// Load reads and decodes a trajectory file.
func Load(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t.Schema != TrajectorySchema {
		return nil, fmt.Errorf("%s: trajectory schema %d, this build reads %d", path, t.Schema, TrajectorySchema)
	}
	return &t, nil
}

// MedianIQR summarizes repeat-run timings: the median is the headline
// number, the interquartile range is the noise bar the time gate scales
// by. Quartiles use linear interpolation between order statistics.
func MedianIQR(vals []float64) (median, iqr float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5), quantile(s, 0.75) - quantile(s, 0.25)
}

func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
