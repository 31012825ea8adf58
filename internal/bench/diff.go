package bench

import (
	"fmt"
	"sort"
)

// The gate's thresholds.
const (
	// maxWorkRegress is the allowed relative growth of a deterministic
	// work counter before it is a regression (0.30 = +30%).
	maxWorkRegress = 0.30
	// maxTimeRegress is the allowed relative growth of a wall-clock
	// median (0.50 = +50%), applied only when fingerprints match.
	maxTimeRegress = 0.50
	// minTimeMS floors the time gate: medians below it are too close to
	// scheduler noise to gate at any ratio.
	minTimeMS = 20
	// iqrMult scales the noise bar: a time delta must also exceed
	// iqrMult x max(old IQR, new IQR) to count.
	iqrMult = 3
	// minWork floors the work gate: counters below it (a handful of
	// restarts, say) flip large ratios on tiny absolute changes.
	minWork = 500
)

// Finding is one gated metric that regressed past its threshold.
type Finding struct {
	Exp    string  // experiment name
	Metric string  // "median_ms", a work counter key, "presence" or "verdict"
	Old    float64 // baseline value
	New    float64 // candidate value
	Limit  float64 // the threshold the candidate crossed
	// OldVerdict and NewVerdict are the two answers of a "verdict"
	// finding.
	OldVerdict, NewVerdict string
}

func (f Finding) String() string {
	switch f.Metric {
	case "presence":
		return fmt.Sprintf("%s: experiment missing from candidate run", f.Exp)
	case "verdict":
		return fmt.Sprintf("%s: verdict %q -> %q", f.Exp, f.OldVerdict, f.NewVerdict)
	}
	return fmt.Sprintf("%s: %s %.6g -> %.6g (limit %.6g, %+.1f%%)",
		f.Exp, f.Metric, f.Old, f.New, f.Limit, 100*(f.New-f.Old)/f.Old)
}

// Diff compares a baseline trajectory against a candidate and returns
// the regressions that should fail the build, plus advisory notes for
// everything observed but deliberately not gated (fingerprint
// mismatches, sub-floor counters, non-deterministic probes, new
// experiments). An experiment present in the baseline but absent from
// the candidate is itself a regression: silently dropping a probe would
// otherwise shrink coverage for free. So is a changed verdict, on any
// machine and for any probe: a faster run that answers differently is
// a correctness bug, not a speedup.
func Diff(base, cand *Trajectory) (regressions []Finding, notes []string) {
	timeGate := base.FingerprintMatch(cand)
	if !timeGate {
		notes = append(notes, fmt.Sprintf(
			"machine fingerprints differ (%s/%s %s P=%d vs %s/%s %s P=%d): wall-clock medians are advisory, only deterministic work counters gate",
			base.OS, base.Arch, base.GoVersion, base.GOMAXPROCS,
			cand.OS, cand.Arch, cand.GoVersion, cand.GOMAXPROCS))
	}

	candByName := make(map[string]Experiment, len(cand.Experiments))
	for _, e := range cand.Experiments {
		candByName[e.Name] = e
	}
	seen := make(map[string]bool, len(base.Experiments))

	for _, b := range base.Experiments {
		seen[b.Name] = true
		c, ok := candByName[b.Name]
		if !ok {
			regressions = append(regressions, Finding{Exp: b.Name, Metric: "presence"})
			continue
		}
		if b.Verdict != "" && c.Verdict != "" && b.Verdict != c.Verdict {
			regressions = append(regressions, Finding{
				Exp: b.Name, Metric: "verdict", OldVerdict: b.Verdict, NewVerdict: c.Verdict})
		}

		// Advisory probes (intrinsically nondeterministic wall clocks
		// like portfolio races) are tracked, never gated: dropping one
		// is still a presence regression above, but its numbers only
		// inform.
		if b.Advisory || c.Advisory {
			if b.MedianMS > 0 {
				notes = append(notes, fmt.Sprintf(
					"%s: advisory probe, median %.1fms -> %.1fms (%+.1f%%), not gated",
					b.Name, b.MedianMS, c.MedianMS, 100*(c.MedianMS-b.MedianMS)/b.MedianMS))
			}
			continue
		}

		// Work counters: hard gate, but only when both sides proved
		// determinism — a counter that drifts between repeats carries
		// the same noise as a timing and must not gate tightly.
		if b.Deterministic && c.Deterministic {
			for _, key := range sortedWorkKeys(b.Work) {
				oldV := b.Work[key]
				newV, ok := c.Work[key]
				if !ok {
					regressions = append(regressions, Finding{
						Exp: b.Name, Metric: key, Old: float64(oldV), New: 0,
						Limit: float64(oldV)})
					continue
				}
				if oldV < minWork {
					if newV > oldV {
						notes = append(notes, fmt.Sprintf(
							"%s: %s %d -> %d below work floor %d, not gated",
							b.Name, key, oldV, newV, minWork))
					}
					continue
				}
				limit := float64(oldV) * (1 + maxWorkRegress)
				if float64(newV) > limit {
					regressions = append(regressions, Finding{
						Exp: b.Name, Metric: key,
						Old: float64(oldV), New: float64(newV), Limit: limit})
				}
			}
		} else if len(b.Work) > 0 || len(c.Work) > 0 {
			notes = append(notes, fmt.Sprintf(
				"%s: work counters not deterministic on both sides, time gate only", b.Name))
		}

		// Wall clock: soft gate. The delta must clear the relative
		// threshold AND the IQR noise bar AND the absolute floor.
		if timeGate && b.MedianMS >= minTimeMS {
			limit := b.MedianMS * (1 + maxTimeRegress)
			noise := iqrMult * max(b.IQRMS, c.IQRMS)
			if c.MedianMS > limit && c.MedianMS-b.MedianMS > noise {
				regressions = append(regressions, Finding{
					Exp: b.Name, Metric: "median_ms",
					Old: b.MedianMS, New: c.MedianMS, Limit: max(limit, b.MedianMS+noise)})
			}
		}
	}

	for _, c := range cand.Experiments {
		if !seen[c.Name] {
			notes = append(notes, fmt.Sprintf("%s: new experiment, no baseline to compare", c.Name))
		}
	}
	return regressions, notes
}

func sortedWorkKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
