package service

import (
	"testing"
	"time"
)

// TestJobEffortFromLedger pins one effort ledger per job across the
// analyses that make more than one solver call: a portfolio-4 witness
// (four racing configs), a synthesis (many guess-and-check solves), and
// two sweeps sharing one pooled session (verify, then witness: the
// second must not inherit the first's work). Each result's SatStats is
// its own ledger's total, so it equals the attached report's totals, and
// /metrics sums exactly those totals. Tracing does not matter: with
// TraceSpans -1 every counter is still there.
func TestJobEffortFromLedger(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans int
	}{{"traced", 0}, {"untraced", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 2, TraceSpans: tc.spans})
			defer shutdown(t, e)

			portfolio := fqWitnessReq(6)
			portfolio.Portfolio = 4
			synth := fqWitnessReq(6)
			synth.Kind = KindSynthesize
			var sum [4]int64
			for _, req := range []*Request{portfolio, synth, sweepReq("verify", 6), sweepReq("witness", 6)} {
				job, err := e.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				res := waitDone(t, job, 2*time.Minute)
				name := string(req.Kind) + "/" + req.SweepMode
				if res.CacheHit || res.Search == nil {
					t.Fatalf("%s: cache_hit=%v search=%v, want a solved job with a report", name, res.CacheHit, res.Search)
				}
				got, rep := res.SatStats, res.Search.Totals
				if rep.Solves == 0 {
					t.Errorf("%s: no solves recorded", name)
				}
				// The warm witness sweep may answer from what the verify
				// sweep learnt, spending nothing; every other job searches.
				if got.Conflicts == 0 && req.SweepMode != "witness" {
					t.Errorf("%s: no conflicts recorded", name)
				}
				if got.Conflicts != rep.Conflicts || got.Decisions != rep.Decisions ||
					got.Propagations != rep.Propagations || got.Restarts != rep.Restarts {
					t.Errorf("%s: sat_stats %+v != search report totals %+v", name, got, rep)
				}
				if req.Kind == KindSweep && req.SweepMode == "witness" && !res.SessionHit {
					t.Errorf("%s: want the pooled session the verify sweep built", name)
				}
				sum[0] += got.Conflicts
				sum[1] += got.Decisions
				sum[2] += got.Propagations
				sum[3] += got.Restarts
			}
			m := e.Metrics()
			if met := [4]int64{m.SatConflicts, m.SatDecisions, m.SatPropagations, m.SatRestarts}; met != sum {
				t.Errorf("/metrics sat conflicts/decisions/propagations/restarts %v, jobs spent %v", met, sum)
			}
		})
	}
}
