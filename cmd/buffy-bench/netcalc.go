package main

import (
	"context"
	"fmt"

	"buffy/internal/backend/netcalc"
	"buffy/internal/bench"
	"buffy/internal/qm"
)

// runNetcalc sweeps the netcalc corpus: every model answers its bound
// query analytically in microseconds, then the SMT backend spends
// milliseconds-to-seconds certifying at horizon T that no execution beats
// the bound (domination). The experiment hard-fails on any disagreement —
// the same invariant the CI differential step enforces. Each model
// records a netcalc/<model>/netcalc and a netcalc/<model>/smt entry,
// both with the verdict "<status> <delay> <backlog>" ("<status>" alone
// when unbounded).
func runNetcalc() ([]bench.Experiment, error) {
	var exps []bench.Experiment
	dominated := 0
	fmt.Printf("%-10s  %-9s  %8s  %8s  %12s  %10s  %-17s\n",
		"model", "bounded", "delay", "backlog", "netcalc", "smt", "status")
	for _, e := range netcalc.Corpus() {
		info, err := qm.Load(e.Src)
		if err != nil {
			return exps, err
		}
		// Warm once so the timed run measures the algebra, not first-call
		// allocator effects, then re-run for the reported latency.
		if _, err := netcalc.Analyze(context.Background(), info, e.NetOptions()); err != nil {
			return exps, err
		}
		r, err := netcalc.Analyze(context.Background(), info, e.NetOptions())
		if err != nil {
			return exps, err
		}
		report, err := netcalc.CrossCheck(context.Background(), info, r,
			netcalc.CrossCheckOptions{IR: e.IROptions()})
		if err != nil {
			return exps, fmt.Errorf("%s: %w", e.Name, err)
		}
		if report.Status == "dominated" {
			dominated++
		}
		verdict := report.Status
		if r.Bounded {
			verdict += " " + boundVerdict(r)
		}
		exps = append(exps,
			advisory("netcalc/"+e.Name+"/netcalc", verdict, r.Duration),
			advisory("netcalc/"+e.Name+"/smt", verdict, report.Duration))
		delay, backlog := "-", "-"
		if r.Bounded {
			delay, backlog = r.Delay.RatString(), r.Backlog.RatString()
		}
		fmt.Printf("%-10s  %-9v  %8s  %8s  %10.1fµs  %8.1fms  %-17s\n",
			e.Name, r.Bounded, delay, backlog, float64(r.Duration.Nanoseconds())/1e3, ms(report.Duration), report.Status)
	}
	fmt.Printf("every bounded model dominated its SMT sweep (%d models)\n", dominated)
	fmt.Println("(analytical bounds in microseconds; the solver pays milliseconds to certify them)")
	return exps, nil
}

// boundVerdict renders a bound answer as "<delay> <backlog>" in exact
// rationals, or "unbounded".
func boundVerdict(r *netcalc.Result) string {
	if !r.Bounded {
		return "unbounded"
	}
	return r.Delay.RatString() + " " + r.Backlog.RatString()
}
