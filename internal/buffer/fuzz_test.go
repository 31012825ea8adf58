package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// refBuffer is an obviously-correct slice-based reference implementation
// of the list model's semantics (FIFO, capacity drops, filtered prefix
// moves, byte-budget moves).
type refBuffer struct {
	cap     int
	pkts    [][2]int64 // (flow, bytes)
	dropped int64
}

func (r *refBuffer) arrive(flow, bytes int64) {
	if len(r.pkts) >= r.cap {
		r.dropped++
		return
	}
	r.pkts = append(r.pkts, [2]int64{flow, bytes})
}

func (r *refBuffer) backlogP() int64 { return int64(len(r.pkts)) }

func (r *refBuffer) backlogB() int64 {
	var n int64
	for _, p := range r.pkts {
		n += p[1]
	}
	return n
}

func (r *refBuffer) filterP(flow int64) int64 {
	var n int64
	for _, p := range r.pkts {
		if p[0] == flow {
			n++
		}
	}
	return n
}

// moveP moves the first n packets matching (flow or any when flow<0) to d.
func (r *refBuffer) moveP(d *refBuffer, n int64, flow int64) {
	var kept [][2]int64
	for _, p := range r.pkts {
		if n > 0 && (flow < 0 || p[0] == flow) {
			n--
			if len(d.pkts) < d.cap {
				d.pkts = append(d.pkts, p)
			} else {
				d.dropped++
			}
		} else {
			kept = append(kept, p)
		}
	}
	r.pkts = kept
}

// moveB moves the maximal matching prefix whose cumulative bytes fit in n.
func (r *refBuffer) moveB(d *refBuffer, n int64, flow int64) {
	var kept [][2]int64
	var cum int64
	for _, p := range r.pkts {
		match := flow < 0 || p[0] == flow
		if match {
			cum += p[1]
		}
		if match && cum <= n {
			if len(d.pkts) < d.cap {
				d.pkts = append(d.pkts, p)
			} else {
				d.dropped++
			}
		} else {
			kept = append(kept, p)
		}
	}
	r.pkts = kept
}

// TestListModelAgainstReference drives random op sequences through the
// symbolic list model (with concrete operands, so terms fold) and the
// reference implementation, comparing all observables after every op.
func TestListModelAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 40; iter++ {
		sv := solver.New(solver.Options{})
		c := &Ctx{B: sv.Builder(), Assume: sv.Assert, Prefix: "fuzz"}
		b := sv.Builder()
		capA, capB := 2+rng.Intn(5), 2+rng.Intn(5)
		symA := ListModel{}.Empty(c, Config{Cap: capA, NumFields: 1, MaxBytes: 4})
		symB := ListModel{}.Empty(c, Config{Cap: capB, NumFields: 1, MaxBytes: 4})
		refA := &refBuffer{cap: capA}
		refB := &refBuffer{cap: capB}

		check := func(opIdx int, op string) {
			t.Helper()
			pairs := []struct {
				sym State
				ref *refBuffer
				nm  string
			}{{symA, refA, "A"}, {symB, refB, "B"}}
			for _, pr := range pairs {
				if got := pr.sym.BacklogP(c); got.Kind() != term.KindIntConst || got.IntVal() != pr.ref.backlogP() {
					t.Fatalf("iter %d op %d (%s): backlogP(%s) = %s, want %d", iter, opIdx, op, pr.nm, got, pr.ref.backlogP())
				}
				if got := pr.sym.BacklogB(c); got.IntVal() != pr.ref.backlogB() {
					t.Fatalf("iter %d op %d (%s): backlogB(%s) = %s, want %d", iter, opIdx, op, pr.nm, got, pr.ref.backlogB())
				}
				for flow := int64(0); flow < 3; flow++ {
					got, err := pr.sym.FilterBacklogP(c, Filter{Field: 0, Value: b.IntConst(flow)})
					if err != nil {
						t.Fatal(err)
					}
					if got.IntVal() != pr.ref.filterP(flow) {
						t.Fatalf("iter %d op %d (%s): filter(%s,%d) = %s, want %d",
							iter, opIdx, op, pr.nm, flow, got, pr.ref.filterP(flow))
					}
				}
				if got := pr.sym.Dropped(); got.IntVal() != pr.ref.dropped {
					t.Fatalf("iter %d op %d (%s): dropped(%s) = %s, want %d", iter, opIdx, op, pr.nm, got, pr.ref.dropped)
				}
			}
		}

		for opIdx := 0; opIdx < 25; opIdx++ {
			var op string
			switch rng.Intn(4) {
			case 0, 1: // arrive at A
				op = "arrive"
				flow, bytes := int64(rng.Intn(3)), int64(1+rng.Intn(3))
				symA.Arrive(c, Packet{
					Fields: []*term.Term{b.IntConst(flow)}, Bytes: b.IntConst(bytes),
				}, b.True())
				refA.arrive(flow, bytes)
			case 2: // move-p A -> B, possibly filtered
				op = "move-p"
				n := int64(rng.Intn(4))
				flow := int64(rng.Intn(4)) - 1 // -1 = unfiltered
				var f *Filter
				if flow >= 0 {
					f = &Filter{Field: 0, Value: b.IntConst(flow)}
				}
				if err := symA.MoveP(c, symB, b.IntConst(n), f, b.True()); err != nil {
					t.Fatal(err)
				}
				refA.moveP(refB, n, flow)
			case 3: // move-b A -> B
				op = "move-b"
				n := int64(rng.Intn(6))
				flow := int64(rng.Intn(4)) - 1
				var f *Filter
				if flow >= 0 {
					f = &Filter{Field: 0, Value: b.IntConst(flow)}
				}
				if err := symA.MoveB(c, symB, b.IntConst(n), f, b.True()); err != nil {
					t.Fatal(err)
				}
				refA.moveB(refB, n, flow)
			}
			check(opIdx, op)
		}
	}
}

// TestCountModelConservation: under random guarded ops with symbolic
// guards, packets are conserved (arrivals = in-buffers + dropped).
func TestCountModelConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		sv := solver.New(solver.Options{})
		b := sv.Builder()
		c := &Ctx{B: b, Assume: sv.Assert, Prefix: "cc"}
		a := CountModel{}.Empty(c, Config{Cap: 3})
		d := CountModel{}.Empty(c, Config{Cap: 2})
		arrivals := b.IntConst(0)
		for op := 0; op < 8; op++ {
			guard := b.Var(fmt.Sprintf("g%d_%d", iter, op), term.Bool)
			if rng.Intn(2) == 0 {
				a.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(0)}}, guard)
				// Count attempted arrivals that were admitted or dropped.
				arrivals = b.Add(arrivals, b.Ite(guard, b.IntConst(1), b.IntConst(0)))
			} else {
				if err := a.MoveP(c, d, b.IntConst(int64(rng.Intn(3))), nil, guard); err != nil {
					t.Fatal(err)
				}
			}
		}
		total := b.Add(a.BacklogP(c), d.BacklogP(c), a.Dropped(), d.Dropped())
		sv.Assert(b.Neq(total, arrivals))
		if got := sv.Check(); got != solver.Unsat {
			t.Fatalf("iter %d: conservation violated (%v)", iter, got)
		}
	}
}
