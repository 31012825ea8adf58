// Package fperfenc contains FPerf-style *direct* encodings of the three
// schedulers of Table 1 — the state of the art Buffy replaces. Each
// encoding builds the per-step logical constraints by hand against the
// solver's term API, exactly the way Figure 1 of the paper shows FPerf
// modeling queue demotion with Z3's C++ API: explicit variables for every
// piece of state at every time step, and hand-rolled conjunctions,
// disjunctions and ite-chains for every case that can arise.
//
// The point of this package is the comparison: the same schedulers are 7,
// 10 and 18 lines of Buffy (package qm), and these encodings are the
// hundreds of lines one writes without the language (Table 1). The
// differential tests check that both routes produce identical verdicts, so
// the LoC gap is an apples-to-apples measurement.
//
// This file holds the scheduler-agnostic plumbing (bounded symbolic lists,
// queue-length updates, arrival handling) that FPerf likewise keeps in its
// shared library — the paper counts it separately from the "scheduling
// logic alone" (~200 lines for FQ), and so does our Table 1 harness.
package fperfenc

import (
	"fmt"

	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
	"buffy/internal/unroll"
)

// Encoding exposes the artifacts of a direct scheduler encoding.
type Encoding struct {
	N, T int
	// Arrive[i][t] is the symbolic "queue i receives one packet at step t".
	Arrive [][]*term.Term
	// QLen[i][t] is queue i's backlog at the END of step t.
	QLen [][]*term.Term
	// Served[i][t] is true when queue i transmitted at step t.
	Served [][]*term.Term
	// CDeq1[t] counts queue 1's transmissions through the end of step t.
	CDeq1 []*term.Term
	// Query is the starvation query at the final step (cdeq1 <= 1 with
	// queue 1 backlogged every step), matching the Buffy sources in qm.
	Query *term.Term
	// Assume conjoins the demand assumptions (queue 1 backlogged).
	Assume *term.Term
}

// queueCap is the queue capacity used by all encodings: the pipeline's
// default buffer capacity.
var queueCap = unroll.Bounds{}.Resolve(1, 0).BufferCap

// symList is a bounded list of integers encoded as per-slot variables —
// the scheduler-agnostic queue-of-pointers state FPerf encodes with
// "100s of lines of code creating additional scheduler-agnostic
// constraints" (§2.2).
type symList struct {
	elems []*term.Term
	size  *term.Term
}

func newSymList(b *term.Builder, capacity int) *symList {
	l := &symList{size: b.IntConst(0)}
	for i := 0; i < capacity; i++ {
		l.elems = append(l.elems, b.IntConst(0))
	}
	return l
}

func (l *symList) clone() *symList {
	return &symList{elems: append([]*term.Term(nil), l.elems...), size: l.size}
}

// pushBack appends v under guard g (dropped silently when full).
func (l *symList) pushBack(b *term.Builder, v, g *term.Term) {
	fits := b.Lt(l.size, b.IntConst(int64(len(l.elems))))
	place := b.And(g, fits)
	for j := range l.elems {
		here := b.And(place, b.Eq(l.size, b.IntConst(int64(j))))
		l.elems[j] = b.Ite(here, v, l.elems[j])
	}
	l.size = b.Add(l.size, b.Ite(place, b.IntConst(1), b.IntConst(0)))
}

// popFront removes and returns the head under guard g (0 when empty).
func (l *symList) popFront(b *term.Builder, g *term.Term) *term.Term {
	nonEmpty := b.Lt(b.IntConst(0), l.size)
	do := b.And(g, nonEmpty)
	head := b.Ite(nonEmpty, l.elems[0], b.IntConst(0))
	for j := 0; j < len(l.elems)-1; j++ {
		l.elems[j] = b.Ite(do, l.elems[j+1], l.elems[j])
	}
	l.size = b.Sub(l.size, b.Ite(do, b.IntConst(1), b.IntConst(0)))
	return head
}

// has reports membership among the first size elements.
func (l *symList) has(b *term.Builder, v *term.Term) *term.Term {
	hits := make([]*term.Term, len(l.elems))
	for i := range l.elems {
		inRange := b.Lt(b.IntConst(int64(i)), l.size)
		hits[i] = b.And(inRange, b.Eq(l.elems[i], v))
	}
	return b.Or(hits...)
}

func (l *symList) empty(b *term.Builder) *term.Term {
	return b.Eq(l.size, b.IntConst(0))
}

// mkArrivals allocates one symbolic arrival flag per queue per step and
// returns the (capacity-clamped) updated queue lengths after the arrivals
// of step t flush in.
func mkArrivals(sv *solver.Solver, name string, n, T int) [][]*term.Term {
	b := sv.Builder()
	arrive := make([][]*term.Term, n)
	for i := 0; i < n; i++ {
		arrive[i] = make([]*term.Term, T)
		for t := 0; t < T; t++ {
			arrive[i][t] = b.Var(fmt.Sprintf("%s!arr!q%d!t%d", name, i, t), term.Bool)
		}
	}
	return arrive
}

// arriveInto clamps an arrival into a queue at capacity.
func arriveInto(b *term.Builder, qlen, arrived *term.Term) *term.Term {
	fits := b.Lt(qlen, b.IntConst(int64(queueCap)))
	return b.Add(qlen, b.Ite(b.And(arrived, fits), b.IntConst(1), b.IntConst(0)))
}

// selectByIndex returns values[idx] as an ite-chain (0 when out of range) —
// the hand-written form of every ibs[head] access.
func selectByIndex(b *term.Builder, values []*term.Term, idx *term.Term) *term.Term {
	out := b.IntConst(0)
	for i := len(values) - 1; i >= 0; i-- {
		out = b.Ite(b.Eq(idx, b.IntConst(int64(i))), values[i], out)
	}
	return out
}

// decrementAt returns values with values[idx] decremented by one (no
// change when idx is out of range) — the hand-written guarded update.
func decrementAt(b *term.Builder, values []*term.Term, idx, g *term.Term) []*term.Term {
	out := make([]*term.Term, len(values))
	for i := range values {
		hit := b.And(g, b.Eq(idx, b.IntConst(int64(i))))
		out[i] = b.Ite(hit, b.Sub(values[i], b.IntConst(1)), values[i])
	}
	return out
}

func boolToInt(b *term.Builder, t *term.Term) *term.Term {
	return b.Ite(t, b.IntConst(1), b.IntConst(0))
}

// listCap is the pipeline's default list capacity for n input queues.
func listCap(n int) int { return unroll.Bounds{}.Resolve(1, n).ListCap }
