package core

import (
	"context"
	"strings"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/term"
)

const limiter = `
limiter(buffer in0, buffer out0) {
  monitor int departed;
  local int n;
  n = backlog-p(in0);
  if (n > 1) { n = 1; }
  move-p(in0, out0, n);
  departed = departed + n;
  assert(departed <= t + 1);
}
`

func TestParseAndMetadata(t *testing.T) {
	prog, err := Parse(qm.FQBuggySrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "fq" {
		t.Errorf("name = %q", prog.Name())
	}
	if len(prog.Params()) != 1 || prog.Params()[0] != "N" {
		t.Errorf("params = %v", prog.Params())
	}
}

func TestParseError(t *testing.T) {
	if _, err := Parse("not a program"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := Parse(`p(buffer a, buffer b) { x = 1; }`); err == nil {
		t.Error("expected type error")
	}
}

func TestParseFileMultiple(t *testing.T) {
	progs, err := ParseFile(qm.DelaySrc + "\n" + qm.SPSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || progs[0].Name() != "delay" || progs[1].Name() != "sp" {
		t.Fatalf("got %d programs", len(progs))
	}
}

func TestVerifyAndWitness(t *testing.T) {
	prog, err := Parse(limiter)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.VerifyContext(context.Background(), Analysis{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.Holds {
		t.Errorf("verify: %v", res.Status)
	}
	w, err := prog.FindWitnessContext(context.Background(), Analysis{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Status != smtbe.WitnessFound {
		t.Errorf("witness: %v", w.Status)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	prog, _ := Parse(limiter)
	if _, err := prog.VerifyContext(context.Background(), Analysis{T: 1, Model: "quantum"}); err == nil {
		t.Error("expected unknown-model error")
	}
}

func TestSMTLibOutput(t *testing.T) {
	prog, _ := Parse(limiter)
	out, err := prog.SMTLib(Analysis{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(set-logic QF_LIA)", "(check-sat)", "(assert"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestGenerateDafnyThroughFacade(t *testing.T) {
	prog, _ := Parse(qm.RRSrc)
	out, err := prog.GenerateDafny(Analysis{T: 2, Params: map[string]int64{"N": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "method rr_T2(") {
		t.Error("missing generated method")
	}
}

func TestVerifyDafnyThroughFacade(t *testing.T) {
	prog, _ := Parse(limiter)
	res, err := prog.VerifyDafny(Analysis{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || len(res.VCs) != 3 {
		t.Errorf("verified=%v VCs=%d", res.Verified, len(res.VCs))
	}
}

func TestSynthesizeThroughFacade(t *testing.T) {
	prog, _ := Parse(`p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == T - 1) { assert(backlog-p(b) == T); }
	}`)
	res, err := prog.SynthesizeWorkloadContext(context.Background(), Analysis{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Workload) == 0 {
		t.Errorf("found=%v workload=%v", res.Found, res.Workload)
	}
}

func TestProveForAllHorizonsThroughFacade(t *testing.T) {
	prog, _ := Parse(qm.PathServerSrc)
	bound := func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
		b := ctx.B
		return b.Le(m.Var("tokens"), b.IntConst(4))
	}
	res, err := prog.ProveForAllHorizons(Analysis{Params: map[string]int64{"C": 2, "B": 2}, Model: "count"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Error("token bound should prove")
	}
}

func TestInferInvariantsThroughFacade(t *testing.T) {
	prog, _ := Parse(qm.PathServerSrc)
	res, err := prog.InferInvariants(Analysis{Params: map[string]int64{"C": 2, "B": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) == 0 {
		t.Error("expected surviving invariants")
	}
}

func TestSimulateAndReplayRoundTrip(t *testing.T) {
	prog, _ := Parse(qm.FQBuggyQuerySrc)
	a := Analysis{T: 6, Params: map[string]int64{"N": 3}}
	res, err := prog.FindWitnessContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	_, diffs, err := prog.Replay(a, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) > 0 {
		t.Errorf("replay differences: %v", diffs)
	}
}

// TestPortfolioWidthKeepsVerdicts runs the one verify/witness path at
// portfolio widths 0, 1 and 4: the verdict never depends on the width, a
// single solver reports no race, and a race reports every config and a
// winner (the static tier, when it answers first).
func TestPortfolioWidthKeepsVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int64
		static bool // the static tier answers verify before any solver
	}{
		{"fq-buggy", qm.FQBuggyQuerySrc, map[string]int64{"N": 3}, false},
		{"limiter", limiter, nil, true},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		checks := map[string]func(context.Context, Analysis) (*smtbe.Result, error){
			"verify":  prog.VerifyContext,
			"witness": prog.FindWitnessContext,
		}
		for mode, check := range checks {
			var want smtbe.Status
			for _, width := range []int{0, 1, 4} {
				res, err := check(context.Background(), Analysis{T: 4, Params: c.params, Portfolio: width})
				if err != nil {
					t.Fatalf("%s %s width %d: %v", c.name, mode, width, err)
				}
				if width == 0 {
					want = res.Status
				} else if res.Status != want {
					t.Errorf("%s %s width %d: status %v, want %v", c.name, mode, width, res.Status, want)
				}
				switch {
				case width <= 1:
					if len(res.Runs) != 0 || res.Winner != "" {
						t.Errorf("%s %s width %d: single solver reported a race: winner %q, %d runs",
							c.name, mode, width, res.Winner, len(res.Runs))
					}
				case res.Tier == "static":
					if res.Winner != "static" || len(res.Runs) != 0 {
						t.Errorf("%s %s: static answer to a race: winner %q, %d runs", c.name, mode, res.Winner, len(res.Runs))
					}
				default:
					if len(res.Runs) != width || res.Winner == "" {
						t.Errorf("%s %s: race reported winner %q, %d runs, want a winner and %d runs",
							c.name, mode, res.Winner, len(res.Runs), width)
					}
				}
				if c.static && mode == "verify" && res.Tier != "static" {
					t.Errorf("%s verify width %d: tier %q, want static", c.name, width, res.Tier)
				}
			}
		}
	}
}
