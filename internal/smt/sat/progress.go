package sat

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Progress is a job's effort ledger: the one place a job's search effort
// is summed. The CDCL loop owns its Stats fields exclusively (they are
// plain int64s on the hot path); on the same amortized cadence as the
// budget checks, and once at every solve boundary, it publishes *deltas*
// into the attached Progress under one mutex. Readers — the service's
// progress and explain endpoints, the job's result, /metrics — call
// Snapshot, Totals or Report from any goroutine, and all three read the
// same totals.
//
// Delta publication is what makes one Progress shareable across the
// concurrent solvers of a portfolio race, the sequential checks of an
// fperf synthesis and the per-horizon re-solves of a warm sweep alike:
// each solver adds what it did since its last publish, so every total is
// the monotonically increasing sum of all search effort spent on the job
// so far. Alongside the totals the ledger keeps the solve and running
// counts, the budget high-water mark, a bounded timeline of effort
// samples, restart/simplify/solve event marks, decision-depth and LBD
// histograms, and a per-configuration breakdown (see Report).
//
// Create one with NewProgress. A nil *Progress is valid for every
// reader and costs solvers nothing: SolveLimited publishes only when
// Limits.Progress is set.
type Progress struct {
	start time.Time

	mu            sync.Mutex
	totals        Stats // LearntBytes is a gauge: deltas may be negative
	solves        int64 // SolveLimited calls that attached this Progress
	running       int64 // solvers currently publishing
	maxBudget     float64
	samples       []SearchSample
	stride        int // publishes per kept sample; doubles on decimation
	skip          int // publishes to skip before the next kept sample
	events        []SearchEvent
	eventsDropped int64
	depth         [len(depthBucketBounds) + 1]int64
	lbd           [lbdOverflowBucket + 1]int64
	configs       map[string]*ConfigEffort
}

// NewProgress returns an empty ledger whose timeline starts now.
func NewProgress() *Progress {
	return &Progress{
		start:   time.Now(),
		stride:  1,
		configs: make(map[string]*ConfigEffort),
	}
}

// ProgressSnapshot is a point-in-time copy of a Progress, JSON-friendly.
type ProgressSnapshot struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learnt       int64 `json:"learnt_clauses"`
	Removed      int64 `json:"removed_clauses"`
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

// Snapshot reads the current totals under the ledger's lock. Nil-safe.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

func (p *Progress) snapshotLocked() ProgressSnapshot {
	return ProgressSnapshot{
		Conflicts:      p.totals.Conflicts,
		Decisions:      p.totals.Decisions,
		Propagations:   p.totals.Propagations,
		Restarts:       p.totals.Restarts,
		Learnt:         p.totals.Learnt,
		Removed:        p.totals.Removed,
		LearntBytes:    p.totals.LearntBytes,
		Solves:         p.solves,
		Running:        p.running,
		BudgetFraction: p.maxBudget,
	}
}

// Totals returns the job's summed search effort. Nil-safe (zero).
func (p *Progress) Totals() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals
}

// observe ingests one publish-cadence point from a solver: the effort
// delta since that solver's previous publish, its budget fraction, its
// current decision depth, and the delta of its LBD histogram. The
// sample's cumulative counters are the ledger's own totals, read under
// the same lock that appends the sample, so concurrent solvers can never
// append samples out of order.
func (p *Progress) observe(config string, d Stats, budgetFrac float64, depth int, lbdDelta *[lbdOverflowBucket + 1]int64) {
	if p == nil {
		return
	}
	at := time.Since(p.start)
	p.mu.Lock()
	defer p.mu.Unlock()

	p.totals = p.totals.add(d)
	p.maxBudget = max(p.maxBudget, budgetFrac)

	ce := p.effortLocked(config)
	ce.Conflicts += d.Conflicts
	ce.Decisions += d.Decisions
	ce.Propagations += d.Propagations
	ce.Restarts += d.Restarts
	ce.Learnt += d.Learnt

	p.depth[depthBucket(int64(depth))]++
	if lbdDelta != nil {
		for i, n := range lbdDelta {
			p.lbd[i] += n
		}
	}

	if p.skip > 0 {
		p.skip--
		return
	}
	p.samples = append(p.samples, SearchSample{
		AtMS:           float64(at.Microseconds()) / 1000,
		Conflicts:      p.totals.Conflicts,
		Decisions:      p.totals.Decisions,
		Propagations:   p.totals.Propagations,
		Restarts:       p.totals.Restarts,
		Learnt:         p.totals.Learnt,
		LearntBytes:    p.totals.LearntBytes,
		BudgetFraction: p.maxBudget,
		Depth:          depth,
		Config:         config,
	})
	p.skip = p.stride - 1
	if len(p.samples) >= maxSamples {
		// Decimate: keep every other sample, double the stride. The
		// timeline keeps its overall shape at half the resolution.
		kept := p.samples[:0]
		for i := 0; i < len(p.samples); i += 2 {
			kept = append(kept, p.samples[i])
		}
		p.samples = kept
		p.stride *= 2
		p.skip = p.stride - 1
	}
}

// event records a discrete search event mark. solve_start and solve_end
// also count solves and running solvers. unpublished is the publishing
// solver's conflicts since its last publish, so the mark's Conflicts is
// job-wide.
func (p *Progress) event(kind, config string, unpublished, detail int64) {
	if p == nil {
		return
	}
	at := time.Since(p.start)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch kind {
	case "solve_start":
		p.solves++
		p.running++
		p.effortLocked(config).Solves++
	case "solve_end":
		p.running--
	}
	if len(p.events) >= maxEvents {
		p.eventsDropped++
		return
	}
	p.events = append(p.events, SearchEvent{
		AtMS:      float64(at.Microseconds()) / 1000,
		Kind:      kind,
		Config:    config,
		Conflicts: p.totals.Conflicts + unpublished,
		Detail:    detail,
	})
}

// effortLocked returns (creating if needed) the per-config aggregate.
func (p *Progress) effortLocked(config string) *ConfigEffort {
	ce := p.configs[config]
	if ce == nil {
		ce = &ConfigEffort{Name: config}
		p.configs[config] = ce
	}
	return ce
}

// depthBucket maps a decision depth to its histogram bucket index.
func depthBucket(d int64) int {
	for i, b := range depthBucketBounds {
		if d <= b {
			return i
		}
	}
	return len(depthBucketBounds)
}

// Report copies the ledger into a standalone SearchReport. Safe to call
// while solvers are still publishing; the result is internally
// consistent under the ledger's lock. Nil-safe (returns nil).
func (p *Progress) Report() *SearchReport {
	if p == nil {
		return nil
	}
	dur := time.Since(p.start)
	p.mu.Lock()
	defer p.mu.Unlock()

	rep := &SearchReport{
		DurationMS:    float64(dur.Microseconds()) / 1000,
		SampleStride:  p.stride,
		Samples:       append([]SearchSample(nil), p.samples...),
		Events:        append([]SearchEvent(nil), p.events...),
		EventsDropped: p.eventsDropped,
		Totals:        p.snapshotLocked(),
	}

	for i, n := range p.depth {
		rep.Depth.Count += n
		if n == 0 {
			continue
		}
		le := "+inf"
		if i < len(depthBucketBounds) {
			le = fmt.Sprintf("%d", depthBucketBounds[i])
		}
		rep.Depth.Buckets = append(rep.Depth.Buckets, DistBucket{Le: le, Count: n})
	}
	for i, n := range p.lbd {
		rep.LBD.Count += n
		if n == 0 {
			continue
		}
		le := "+inf"
		if i < lbdOverflowBucket {
			le = fmt.Sprintf("%d", i+1)
		}
		rep.LBD.Buckets = append(rep.LBD.Buckets, DistBucket{Le: le, Count: n})
	}

	for _, ce := range p.configs {
		rep.Configs = append(rep.Configs, *ce)
	}
	sort.Slice(rep.Configs, func(i, j int) bool {
		if rep.Configs[i].Conflicts != rep.Configs[j].Conflicts {
			return rep.Configs[i].Conflicts > rep.Configs[j].Conflicts
		}
		return rep.Configs[i].Name < rep.Configs[j].Name
	})
	return rep
}

// progressPub tracks one SolveLimited call's last-published counters so
// repeated publishes add only the delta since the previous one.
type progressPub struct {
	p       *Progress
	name    string // Options.Name of the publishing solver (portfolio label)
	last    Stats
	lastLBD [lbdOverflowBucket + 1]int64
}

// publish pushes the effort accumulated since the previous publish, the
// current budget fraction, the solver's decision depth and the delta of
// its LBD histogram into the ledger.
func (pp *progressPub) publish(s *Solver, frac float64) {
	if pp.p == nil {
		return
	}
	cur := s.Stats()
	var lbdDelta [lbdOverflowBucket + 1]int64
	for i, n := range s.lbdHist {
		lbdDelta[i] = n - pp.lastLBD[i]
	}
	pp.p.observe(pp.name, cur.Sub(pp.last), min(frac, 1), s.decisionLevel(), &lbdDelta)
	pp.last, pp.lastLBD = cur, s.lbdHist
}

// event forwards a discrete search event (restart, simplify, solve
// boundary) to the ledger.
func (pp *progressPub) event(s *Solver, kind string, detail int64) {
	if pp.p == nil {
		return
	}
	pp.p.event(kind, pp.name, s.stats.Conflicts-pp.last.Conflicts, detail)
}
