package sat

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffy/internal/smt/cnf"
)

// satisfiable decides clauses together with the assumptions as units by
// enumerating all assignments of n variables (n <= 16).
func satisfiable(n int, clauses [][]cnf.Lit, assume []cnf.Lit) bool {
	for m := 0; m < 1<<n; m++ {
		val := func(l cnf.Lit) bool { return (m>>(int(l.Var())-1)&1 == 1) != l.Sign() }
		ok := true
		for _, a := range assume {
			ok = ok && val(a)
		}
		for _, c := range clauses {
			ok = ok && slices.ContainsFunc(c, val)
		}
		if ok {
			return true
		}
	}
	return false
}

// TestArenaDifferentialBruteForce interleaves clause intake with
// assumption solves under a learnt-DB limit so small that reduceDB and
// arena compaction run on almost every solve, with the invariant checker
// on (it also checks that every reason clause leads with its implied
// literal, which compaction's reason remapping relies on). Every verdict
// is checked against enumeration and every model against the clauses.
func TestArenaDifferentialBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var removed, solves int64
	for iter := 0; iter < 400; iter++ {
		n := 10 + rng.Intn(4)
		s := NewWithOptions(Options{LearntBase: 2, LearntFrac: 0.01, LearntGrowth: 1.5})
		s.SetDebug(true)
		newVars(s, n)
		var clauses [][]cnf.Lit
		randLit := func() cnf.Lit { return cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0) }
		addRandom := func() bool {
			c := make([]cnf.Lit, 3)
			for i := range c {
				c[i] = randLit()
			}
			clauses = append(clauses, c)
			return s.AddClause(c...)
		}
		ok := true
		for i := 0; i < 4*n && ok; i++ {
			ok = addRandom()
		}
		for round := 0; round < 8 && ok; round++ {
			assume := make([]cnf.Lit, rng.Intn(3))
			for i := range assume {
				assume[i] = randLit()
			}
			got := s.SolveLimited(Limits{}, assume...)
			solves++
			if want := satisfiable(n, clauses, assume); (got == Sat) != want {
				t.Fatalf("iter %d round %d: solver %v, enumeration sat=%v", iter, round, got, want)
			}
			if got == Sat {
				for _, c := range clauses {
					if !slices.ContainsFunc(c, s.LitTrue) {
						t.Fatalf("iter %d round %d: model violates %v", iter, round, c)
					}
				}
				for _, a := range assume {
					if !s.LitTrue(a) {
						t.Fatalf("iter %d round %d: model violates assumption %v", iter, round, a)
					}
				}
			}
			for i := 0; i < 1+rng.Intn(3) && ok; i++ {
				ok = addRandom()
			}
		}
		if !ok && satisfiable(n, clauses, nil) {
			t.Fatalf("iter %d: AddClause reported top-level unsat on a satisfiable set", iter)
		}
		removed += s.Stats().Removed
	}
	if removed == 0 {
		t.Fatalf("no learnt clause was removed in %d solves; reduceDB never compacted", solves)
	}
}

// TestCompactionRemapsLockedReason: a learnt clause that is a level-0
// reason is never removed, and when a deleted clause before it is
// compacted away, it moves down and its variable's reason follows it.
func TestCompactionRemapsLockedReason(t *testing.T) {
	s := New()
	newVars(s, 8)
	s.AddClause(lit(1, false), lit(2, false))
	doomed := s.addLearnt([]cnf.Lit{lit(1, true), lit(2, true), lit(3, true), lit(7, false)}, 5)
	reason := s.addLearnt([]cnf.Lit{lit(5, false), lit(6, true), lit(4, true)}, 5)
	s.addLearnt([]cnf.Lit{lit(7, true), lit(8, false)}, 2)
	s.addLearnt([]cnf.Lit{lit(8, true), lit(3, false)}, 2)
	// x6 and x4 at level 0 leave x5 implied by the locked clause.
	if !s.AddClause(lit(6, false)) || !s.AddClause(lit(4, false)) {
		t.Fatal("unit intake reported a conflict")
	}
	if s.reason[5] != reason || !s.LitTrue(lit(5, false)) {
		t.Fatalf("x5: reason %d value %v, want reason %d and true", s.reason[5], s.LitTrue(lit(5, false)), reason)
	}
	want := slices.Clone(s.lits(reason))
	arenaBefore := len(s.arena)

	// Removal order is [reason, doomed, ...] (equal LBD and activity: the
	// later clause first), so the locked clause is a candidate and skipped.
	s.reduceDB()

	if got := s.Stats().Removed; got != 1 {
		t.Fatalf("removed %d clauses, want 1 (the unlocked LBD-5 clause)", got)
	}
	if len(s.learnts) != 3 || s.learnts[0] != doomed {
		t.Fatalf("learnts after reduce = %v, want 3 led by the reason at %d", s.learnts, doomed)
	}
	if got, wantLen := len(s.arena), arenaBefore-(hdrWords+4); got != wantLen {
		t.Fatalf("arena holds %d words after compaction, want %d", got, wantLen)
	}
	moved := s.reason[5]
	if moved != doomed {
		t.Fatalf("reason of x5 at %d, want it moved from %d down to %d", moved, reason, doomed)
	}
	if !slices.Equal(s.lits(moved), want) || s.lbd(moved) != 5 || !s.locked(moved) {
		t.Fatalf("moved reason clause = %v (lbd %d), want %v (lbd 5)", s.lits(moved), s.lbd(moved), want)
	}
	s.checkInvariants("after compaction")
	if got := s.Solve(lit(1, true)); got != Sat || !s.LitTrue(lit(2, false)) || !s.LitTrue(lit(5, false)) {
		t.Fatalf("solve after compaction: %v", got)
	}
}

// TestStampWraparound runs clause intake and LBD counting across the
// mark-stamp wraparound: marks left from the first stamps must not be
// mistaken for current ones once the counter wraps back to them.
func TestStampWraparound(t *testing.T) {
	s := New()
	newVars(s, 6)
	// Stamp 1 marks x1 and x2; the wrap below comes back to stamp 1.
	s.AddClause(lit(1, false), lit(2, false))
	s.stamp = math.MaxUint32 - 1
	for i := 0; i < 4; i++ { // stamps MaxUint32, 1, 2, ..., 7
		before := s.NumClauses()
		if !s.AddClause(lit(3, false), lit(4, true), lit(3, true)) || s.NumClauses() != before {
			t.Fatalf("round %d: tautology was kept", i)
		}
		// A stale mark on x1 would make this look tautological.
		s.AddClause(lit(1, true), lit(2, true), lit(1, true), lit(5, false))
		if got, want := s.lits(s.clauses[len(s.clauses)-1]), []cnf.Lit{lit(1, true), lit(2, true), lit(5, false)}; !slices.Equal(got, want) {
			t.Fatalf("round %d (stamp %d): stored %v, want %v", i, s.stamp, got, want)
		}
	}
	if s.stamp != 7 {
		t.Fatalf("stamp = %d, want 7 after wrapping", s.stamp)
	}

	// computeLBD shares the stamp: levels 1, 1, 3 are two distinct levels,
	// also when the stamp wraps back to one that marked them before.
	s.level[1], s.level[2], s.level[3] = 1, 1, 3
	lits := []cnf.Lit{lit(1, false), lit(2, false), lit(3, false)}
	if got := s.computeLBD(lits); got != 2 {
		t.Fatalf("computeLBD = %d, want 2", got)
	}
	k := s.stamp
	s.stamp = math.MaxUint32 - 1
	for s.stamp != k {
		if got := s.computeLBD(lits); got != 2 {
			t.Fatalf("computeLBD at stamp %d = %d, want 2", s.stamp, got)
		}
	}
}

// TestReduceDBKeepsInsertionSortOrder: reduceDB removes exactly the
// clauses the solver's original O(n²) insertion sort (LBD descending,
// activity ascending, equal keys latest-first) put in the first half,
// with many equal keys.
func TestReduceDBKeepsInsertionSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(40)
		s := New()
		newVars(s, 3*n)
		var cs []cref
		for i := 0; i < n; i++ {
			c := s.addLearnt([]cnf.Lit{lit(3*i+1, false), lit(3*i+2, true), lit(3*i+3, false)}, uint32(1+rng.Intn(5)))
			s.setAct(c, float32(rng.Intn(3)))
			cs = append(cs, c)
		}
		ls := slices.Clone(cs)
		for i := 1; i < len(ls); i++ {
			for j := i; j > 0; j-- {
				a, b := ls[j-1], ls[j]
				if s.lbd(a) > s.lbd(b) || (s.lbd(a) == s.lbd(b) && s.act(a) < s.act(b)) {
					break
				}
				ls[j-1], ls[j] = b, a
			}
		}
		var want [][]cnf.Lit
		for _, c := range cs {
			if s.lbd(c) <= 2 || !slices.Contains(ls[:n/2], c) {
				want = append(want, slices.Clone(s.lits(c)))
			}
		}
		s.reduceDB()
		var got [][]cnf.Lit
		for _, c := range s.learnts {
			got = append(got, s.lits(c))
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("iter %d: kept %v, want %v", iter, got, want)
		}
	}
}
