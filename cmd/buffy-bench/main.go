// Command buffy-bench regenerates every table and figure of the paper's
// evaluation, plus this repository's ablations. Each experiment prints the
// same rows/series the paper reports; see EXPERIMENTS.md for the
// paper-vs-measured comparison.
//
//	buffy-bench -exp table1   # Table 1: FPerf vs Buffy LoC
//	buffy-bench -exp fig6     # Figure 6: Dafny verification time vs T
//	buffy-bench -exp cs1      # §6.1: FQ starvation witness (buggy)
//	buffy-bench -exp cs1b     # extension: RFC 8290 fix removes the witness
//	buffy-bench -exp cs2      # §6.2: CCAC ack-burst loss (composition)
//	buffy-bench -exp a1       # ablation: buffer-model precision
//	buffy-bench -exp a2       # ablation: modular (k-induction) vs monolithic
//	buffy-bench -exp a3       # extension: Houdini invariant inference
//	buffy-bench -exp a4       # extension: throughput vs ack-path delay
//	buffy-bench -exp portfolio # extension: portfolio vs single-config solver
//	buffy-bench -exp netcalc  # extension: analytical bounds vs SMT differential
//	buffy-bench -exp vet      # extension: static-tier latency vs solver time saved
//	buffy-bench -exp sweep    # extension: warm-session sweep vs cold per-horizon
//	buffy-bench -exp store    # extension: durable store, disk-hit vs cold across restart
//	buffy-bench -exp trajectory # extension: perf-gate probes (work counters, stage times)
//	buffy-bench -exp all -out BENCH_trajectory.json
//
// The experiments from portfolio on record their numbers as
// bench.Experiment entries; -out writes them all to one file in the
// BENCH_trajectory.json schema, which buffy-benchdiff compares. Without
// -out no file is written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"buffy/internal/bench"
)

var experiments = []struct {
	name string
	desc string
	run  func() ([]bench.Experiment, error)
}{
	{"table1", "Table 1 — FPerf vs Buffy lines of code", printOnly(runTable1)},
	{"fig6", "Figure 6 — Dafny verification time vs T", printOnly(runFig6)},
	{"cs1", "§6.1 — FQ scheduler starvation witness (buggy)", printOnly(runCS1)},
	{"cs1b", "extension — RFC 8290 fix removes the witness", printOnly(runCS1b)},
	{"cs2", "§6.2 — CCAC ack-burst loss via composition", printOnly(runCS2)},
	{"a1", "ablation — buffer-model precision (list vs count vs multiclass)", printOnly(runA1)},
	{"a2", "ablation — modular k-induction vs monolithic BMC", printOnly(runA2)},
	{"a3", "extension — Houdini invariant inference (§5)", printOnly(runA3)},
	{"a4", "extension — throughput vs ack-path delay (composed instances)", printOnly(runA4)},
	{"portfolio", "extension — portfolio vs single-config solver (first-wins race)", runPortfolioExp},
	{"netcalc", "extension — network-calculus bounds (µs) vs SMT differential certification", runNetcalc},
	{"vet", "extension — static tier latency (µs) vs solver time saved", runVetExp},
	{"sweep", "extension — warm-session sweep vs cold per-horizon solves", runSweepExp},
	{"store", "extension — durable result store: disk-hit vs cold-solve across a restart", runStoreExp},
	{"trajectory", "extension — benchmark trajectory: median/IQR probes, work counters and stage times", runTrajectory},
}

// printOnly adapts an experiment that prints its table but records no
// entries.
func printOnly(run func() error) func() ([]bench.Experiment, error) {
	return func() ([]bench.Experiment, error) { return nil, run() }
}

func main() {
	exp := flag.String("exp", "all", "experiment id (table1 fig6 cs1 cs1b cs2 a1 a2 a3 a4 portfolio netcalc vet sweep store trajectory all)")
	out := flag.String("out", "", "write the recorded experiments to this file in the BENCH_trajectory.json schema (empty: write no file)")
	flag.Parse()
	os.Exit(run(*exp, *out))
}

// run executes the selected experiments and writes what they recorded
// to out, also when one failed, so the file shows the failing numbers.
// It stops at the first failed experiment and returns the exit status.
func run(exp, out string) int {
	traj := bench.Trajectory{
		Schema:      bench.TrajectorySchema,
		CreatedUnix: time.Now().Unix(),
		GitRev:      gitRev(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		Repeats:     trajectoryRepeats,
	}
	code, ran := 0, false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		exps, err := e.run()
		traj.Experiments = append(traj.Experiments, exps...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "buffy-bench: %s: %v\n", e.name, err)
			code = 1
			break
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "buffy-bench: unknown experiment %q\n", exp)
		return 2
	}
	if out == "" {
		return code
	}
	data, err := json.MarshalIndent(traj, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "buffy-bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s: %d experiments (rev %s, %s, P=%d; gate with buffy-benchdiff BASELINE %s)\n",
		out, len(traj.Experiments), traj.GitRev, traj.GoVersion, traj.GOMAXPROCS, out)
	return code
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
