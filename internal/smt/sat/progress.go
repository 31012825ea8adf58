package sat

import (
	"math"
	"sync/atomic"
)

// Progress is a lock-free live view of in-flight search effort. The CDCL
// loop owns its Stats fields exclusively (they are plain int64s on the
// hot path); on the same amortized cadence as the budget checks it
// publishes *deltas* into the attached Progress with atomic adds. Readers
// (the service's /v1/jobs/{id}/progress endpoint) call Snapshot from any
// goroutine without synchronizing with the solver.
//
// Delta publication is what makes one Progress shareable across the
// concurrent solvers of a portfolio race and the sequential checks of an
// fperf synthesis alike: each solver adds what it did since its last
// publish, so every counter is the monotonically increasing sum of all
// search effort spent on the job so far.
type Progress struct {
	conflicts    atomic.Int64
	decisions    atomic.Int64
	propagations atomic.Int64
	restarts     atomic.Int64
	learnt       atomic.Int64
	learntBytes  atomic.Int64  // gauge: deltas may be negative (DB reduction)
	solves       atomic.Int64  // SolveLimited calls that attached this Progress
	running      atomic.Int64  // solvers currently publishing
	budget       atomic.Uint64 // Float64bits of the max budget fraction seen

	// rec, when set, receives the same publish-cadence feed as the
	// counters above, plus restart/simplify/solve event marks, and
	// accumulates them into a SearchReport (see report.go). Attaching a
	// recorder costs nothing on the hot path: solvers check the pointer
	// only inside publish, which is already amortized.
	rec atomic.Pointer[SearchRecorder]
}

// SetRecorder attaches (or, with nil, detaches) a SearchRecorder. Safe
// to call concurrently with live solving; solvers pick the new recorder
// up at their next publish. Nil-safe on p.
func (p *Progress) SetRecorder(r *SearchRecorder) {
	if p == nil {
		return
	}
	p.rec.Store(r)
}

// Recorder returns the attached SearchRecorder, if any. Nil-safe.
func (p *Progress) Recorder() *SearchRecorder {
	if p == nil {
		return nil
	}
	return p.rec.Load()
}

// ProgressSnapshot is a point-in-time copy of a Progress, JSON-friendly.
type ProgressSnapshot struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learnt       int64 `json:"learnt_clauses"`
	LearntBytes  int64 `json:"learnt_bytes"`
	// Solves counts SolveLimited calls so far (fperf runs many per job;
	// a portfolio race runs one per config).
	Solves int64 `json:"solves"`
	// Running is how many solvers are mid-search right now.
	Running int64 `json:"running"`
	// BudgetFraction is the largest fraction of any configured resource
	// budget (conflicts, propagations, learnt bytes, deadline) any solver
	// has consumed, in [0, 1]; 0 when no budget is set.
	BudgetFraction float64 `json:"budget_fraction"`
}

// Snapshot reads the current progress atomically (field-by-field; the
// counters are independently monotonic). Nil-safe.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		Conflicts:      p.conflicts.Load(),
		Decisions:      p.decisions.Load(),
		Propagations:   p.propagations.Load(),
		Restarts:       p.restarts.Load(),
		Learnt:         p.learnt.Load(),
		LearntBytes:    p.learntBytes.Load(),
		Solves:         p.solves.Load(),
		Running:        p.running.Load(),
		BudgetFraction: math.Float64frombits(p.budget.Load()),
	}
}

// add publishes one solver's effort delta.
func (p *Progress) add(d Stats) {
	p.conflicts.Add(d.Conflicts)
	p.decisions.Add(d.Decisions)
	p.propagations.Add(d.Propagations)
	p.restarts.Add(d.Restarts)
	p.learnt.Add(d.Learnt)
	p.learntBytes.Add(d.LearntBytes)
}

// observeBudget raises the published budget fraction to frac (at most
// 1) if larger (CAS loop; fractions only move up within a job).
func (p *Progress) observeBudget(frac float64) {
	for {
		old := p.budget.Load()
		if math.Float64frombits(old) >= frac {
			return
		}
		if p.budget.CompareAndSwap(old, math.Float64bits(frac)) {
			return
		}
	}
}

// progressPub tracks one SolveLimited call's last-published counters so
// repeated publishes add only the delta since the previous one.
type progressPub struct {
	p       *Progress
	name    string // Options.Name of the publishing solver (portfolio label)
	last    Stats
	lastLBD [lbdOverflowBucket + 1]int64
}

// publish pushes the effort accumulated since the previous publish, plus
// the current budget fraction, and forwards the same delta to the
// attached SearchRecorder (if any) together with the solver's current
// decision depth and the delta of its LBD histogram.
func (pp *progressPub) publish(s *Solver, frac float64) {
	if pp.p == nil {
		return
	}
	cur := s.stats
	cur.LearntBytes = s.learntBytes
	d := Stats{
		Conflicts:    cur.Conflicts - pp.last.Conflicts,
		Decisions:    cur.Decisions - pp.last.Decisions,
		Propagations: cur.Propagations - pp.last.Propagations,
		Restarts:     cur.Restarts - pp.last.Restarts,
		Learnt:       cur.Learnt - pp.last.Learnt,
		LearntBytes:  cur.LearntBytes - pp.last.LearntBytes,
	}
	frac = min(frac, 1)
	pp.p.add(d)
	pp.last = cur
	pp.p.observeBudget(frac)
	if rec := pp.p.Recorder(); rec != nil {
		var lbdDelta [lbdOverflowBucket + 1]int64
		for i, n := range s.lbdHist {
			lbdDelta[i] = n - pp.lastLBD[i]
			pp.lastLBD[i] = n
		}
		rec.observe(pp.name, d, frac, s.decisionLevel(), &lbdDelta)
	}
}

// event forwards a discrete search event (restart, simplify, solve
// boundary) to the attached recorder. Conflicts is reported job-wide:
// the published total plus this solver's not-yet-published delta.
func (pp *progressPub) event(s *Solver, kind string, detail int64) {
	if pp.p == nil {
		return
	}
	if rec := pp.p.Recorder(); rec != nil {
		conflicts := pp.p.conflicts.Load() + (s.stats.Conflicts - pp.last.Conflicts)
		rec.event(kind, pp.name, conflicts, detail)
	}
}
