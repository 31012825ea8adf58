// Package core is Buffy's front door: it ties the language front-end, the
// buffer models, the compiler and every analysis back-end into the
// solver-agnostic workflow of Figure 2 — the user writes one imperative
// Buffy program (network functionality + traffic assumptions + queries)
// and picks an analysis; the framework picks the representation.
//
//	prog, _ := core.Parse(src)
//	res, _  := prog.FindWitnessContext(ctx, core.Analysis{T: 6, Params: ...})
//	res, _   = prog.VerifyContext(ctx, core.Analysis{T: 6, Portfolio: 4}) // race solver configs
//	sr, _   := prog.SweepWithSession(ctx, sess, a, opts) // minimal horizon; nil sess sweeps cold
//	b, _    := prog.BoundContext(ctx, a)              // network-calculus bounds
//	wl, _   := prog.SynthesizeWorkloadContext(ctx, a) // FPerf-style back-end
//	dfy, _  := prog.GenerateDafny(...)                // Dafny back-end (source)
//	ver, _  := prog.VerifyDafny(...)                  // Dafny-style mini-verifier
//	ok, _   := prog.ProveForAllHorizons(...)          // transition-system back-end
package core

import (
	"context"
	"time"

	"buffy/internal/backend/dafny"
	"buffy/internal/backend/fperf"
	"buffy/internal/backend/netcalc"
	"buffy/internal/backend/smtbe"
	"buffy/internal/backend/ts"
	"buffy/internal/buffer"
	"buffy/internal/interp"
	"buffy/internal/ir"
	"buffy/internal/lang/parser"
	"buffy/internal/lang/typecheck"
	"buffy/internal/portfolio"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/smtlib"
	"buffy/internal/smt/solver"
	"buffy/internal/synth"
	"buffy/internal/unroll"
)

// Program is a parsed and checked Buffy program.
type Program struct {
	Info   *typecheck.Info
	Source string
}

// Parse parses and checks a single Buffy program.
func Parse(src string) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		return nil, err
	}
	return &Program{Info: info, Source: src}, nil
}

// ParseFile parses a source file containing one or more programs.
func ParseFile(src string) ([]*Program, error) {
	progs, err := parser.ParseFile(src)
	if err != nil {
		return nil, err
	}
	out := make([]*Program, len(progs))
	for i, p := range progs {
		info, err := typecheck.Check(p)
		if err != nil {
			return nil, err
		}
		out[i] = &Program{Info: info, Source: src}
	}
	return out, nil
}

// Name returns the program's name.
func (p *Program) Name() string { return p.Info.Prog.Name }

// Params returns the compile-time parameters the program needs.
func (p *Program) Params() []string { return p.Info.Params }

// Analysis configures an analysis run. The zero value analyzes one step of
// a parameterless program with the list buffer model.
type Analysis struct {
	// T is the time horizon (number of steps).
	T int
	// Params binds compile-time parameters (the N in buffer[N]).
	Params map[string]int64
	// Model selects buffer precision: "list" (default), "count",
	// "multiclass" (§3's plug-in buffer models).
	Model string
	// BufferCap / OutBufferCap / ArrivalsPerStep / NumClasses / MaxBytes /
	// ListCap are the unroll.Bounds fields (see bounds); zero values take
	// unroll's defaults in every layer.
	BufferCap       int
	OutBufferCap    int
	ArrivalsPerStep int
	NumClasses      int
	MaxBytes        int
	ListCap         int
	// Width is the solver's integer bit width (default
	// unroll.DefaultWidth).
	Width int
	// MaxConflicts / MaxPropagations / MaxLearntBytes / Timeout bound each
	// solver call; exhausting one yields an Unknown result whose Stop
	// field names the budget, instead of an open-ended search.
	MaxConflicts    int64
	MaxPropagations int64
	MaxLearntBytes  int64
	Timeout         time.Duration
	// Portfolio races this many diversified solver configurations per
	// verify/witness query, taking the first conclusive answer (see
	// VerifyContext). 0 or 1 means a single solver.
	Portfolio int
	// Progress, when non-nil, receives live CDCL search counters from
	// every solver call made on behalf of this analysis (all portfolio
	// configs and fperf checks included), pollable while the analysis
	// runs. See sat.Progress.
	Progress *sat.Progress
	// K is the induction depth for ProveForAllHorizons (default 1).
	K int
	// CrossCheck makes BoundContext differentially validate its
	// analytical bounds against the SMT backend at horizon T
	// (ErrDisagreement on violation).
	CrossCheck bool
}

// bounds is the analysis's bounded-model record, the one mapping from
// an Analysis to the bounds every layer resolves through unroll.
func (a Analysis) bounds() unroll.Bounds {
	return unroll.Bounds{
		BufferCap: a.BufferCap, OutBufferCap: a.OutBufferCap,
		ArrivalsPerStep: a.ArrivalsPerStep, NumClasses: a.NumClasses,
		MaxBytes: a.MaxBytes, ListCap: a.ListCap,
	}
}

func (a Analysis) irOptions() (ir.Options, error) {
	model, err := buffer.ModelByName(a.Model)
	if err != nil {
		return ir.Options{}, err
	}
	return ir.Options{Model: model, T: a.T, Params: a.Params, Bounds: a.bounds()}, nil
}

// interpOptions configures the concrete interpreter behind Simulate and
// Replay with the same bounds the solver encodes.
func (a Analysis) interpOptions() interp.Options {
	return interp.Options{T: a.T, Params: a.Params, Bounds: a.bounds(), Width: a.Width}
}

func (a Analysis) solverOptions() solver.Options {
	return solver.Options{
		Width: a.Width, MaxConflicts: a.MaxConflicts,
		MaxPropagations: a.MaxPropagations, MaxLearntBytes: a.MaxLearntBytes,
		Timeout: a.Timeout, Progress: a.Progress,
	}
}

// VerifyContext checks that every assert holds on all executions within
// the horizon (the bounded-model-checking direction). A counterexample
// trace is returned when one exists. Cancelling ctx (or passing its
// deadline) aborts the in-flight solve promptly.
func (p *Program) VerifyContext(ctx context.Context, a Analysis) (*smtbe.Result, error) {
	return p.check(ctx, a, smtbe.Verify)
}

// FindWitnessContext searches for an execution satisfying the program's
// query (the FPerf "can this happen" direction), returning its traffic
// trace. Cancellation works as for VerifyContext.
func (p *Program) FindWitnessContext(ctx context.Context, a Analysis) (*smtbe.Result, error) {
	return p.check(ctx, a, smtbe.Witness)
}

// check is the one verify/witness path: the static tier first, then a
// single solver call, or with a.Portfolio > 1 a race of that many
// diversified solver configurations over one shared encoding. A race's
// result is the winner's, carrying the winner's name, every config's
// effort (Runs) and the race's wall clock as Duration; a conclusive
// disagreement between configs returns the winner's result together with
// an error wrapping portfolio.ErrDisagreement.
func (p *Program) check(ctx context.Context, a Analysis, mode smtbe.Mode) (*smtbe.Result, error) {
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	if res := p.staticTier(ctx, a, mode); res != nil {
		if a.Portfolio > 1 {
			res.Winner = "static"
		}
		return res, nil
	}
	opts := smtbe.Options{IR: iro, Solver: a.solverOptions(), Mode: mode}
	if a.Portfolio > 1 {
		return portfolio.CheckContext(ctx, p.Info, portfolio.Options{N: a.Portfolio, Base: opts})
	}
	return smtbe.CheckContext(ctx, p.Info, opts)
}

// BoundContext runs the network-calculus back-end: analytical worst-case
// delay and backlog bounds for the program's victim flow, answered in
// microseconds (min-plus algebra, no solver search, no horizon). With
// a.CrossCheck set it additionally proves at horizon a.T that the bounds
// dominate every execution the SMT backend can reach — a SAT witness
// beyond the bound is the hard error netcalc.ErrDisagreement. Only that
// cross-check solve can block on ctx; the bound itself is instant.
func (p *Program) BoundContext(ctx context.Context, a Analysis) (*netcalc.Result, error) {
	if err := p.vetGate(ctx, a); err != nil {
		return nil, err
	}
	r, err := netcalc.Analyze(ctx, p.Info, netcalc.Options{
		Params: a.Params, ArrivalsPerStep: a.ArrivalsPerStep,
	})
	if err != nil {
		return nil, err
	}
	if a.CrossCheck {
		iro, err := a.irOptions()
		if err != nil {
			return nil, err
		}
		if _, err := netcalc.CrossCheck(ctx, p.Info, r, netcalc.CrossCheckOptions{
			IR: iro, Solver: a.solverOptions(),
		}); err != nil {
			return r, err
		}
	}
	return r, nil
}

// SynthesizeWorkloadContext runs the FPerf-style back-end: find
// input-traffic conditions under which the query is guaranteed.
func (p *Program) SynthesizeWorkloadContext(ctx context.Context, a Analysis) (*fperf.Result, error) {
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	if err := p.vetGate(ctx, a); err != nil {
		return nil, err
	}
	return fperf.SynthesizeContext(ctx, p.Info, fperf.Options{IR: iro, Solver: a.solverOptions()})
}

// GenerateDafny emits the program as a Dafny method (unrolled, inlined,
// structured-havoc inputs), ready for the external Dafny toolchain.
func (p *Program) GenerateDafny(a Analysis) (string, error) {
	return dafny.Generate(p.Info, dafny.GenOptions{T: a.T, Params: a.Params, Bounds: a.bounds()})
}

// VerifyDafny runs the Dafny-style mini annotation checker: each assert is
// discharged as its own verification condition (the Figure 6 workload).
func (p *Program) VerifyDafny(a Analysis) (*dafny.VerifyResult, error) {
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	return dafny.Verify(p.Info, dafny.VerifyOptions{IR: iro, Solver: a.solverOptions()})
}

// ProveForAllHorizons attempts a k-induction proof that prop holds at
// every time horizon (the transition-system back-end), optionally helped
// by auxiliary invariants.
func (p *Program) ProveForAllHorizons(a Analysis, prop ts.Prop, aux ...ts.Prop) (*ts.Result, error) {
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	iro.T = 0 // horizon-free
	return ts.ProveInvariant(p.Info, ts.Options{IR: iro, Solver: a.solverOptions(), K: a.K, Aux: aux}, prop)
}

// InferInvariants runs the grammar + Houdini loop (§5) and returns the
// surviving inductive invariants.
func (p *Program) InferInvariants(a Analysis) (*synth.HoudiniResult, error) {
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	sv := solver.New(a.solverOptions())
	probe, err := ir.NewMachine(p.Info, sv.Builder(), iro)
	if err != nil {
		return nil, err
	}
	cands := synth.Grammar(p.Info, probe, synth.GrammarOptions{})
	return synth.Houdini(p.Info, ts.Options{IR: iro, Solver: a.solverOptions()}, cands)
}

// SMTLib renders the program's bounded encoding in the standard SMT-LIB v2
// format (§4), consumable by external solvers such as Z3 or cvc5.
func (p *Program) SMTLib(a Analysis) (string, error) {
	iro, err := a.irOptions()
	if err != nil {
		return "", err
	}
	sv := solver.New(a.solverOptions())
	c, err := ir.Compile(p.Info, sv.Builder(), iro)
	if err != nil {
		return "", err
	}
	all := c.Assumes
	if len(c.Asserts) > 0 {
		all = append(all, c.B.Not(c.AssertHolds()))
	}
	return smtlib.Script(all), nil
}

// Simulate runs the program concretely for T steps, feeding arrivals from
// the supplied generator (step, inputName) -> packets.
func (p *Program) Simulate(a Analysis, gen func(step int, input string) []interp.Packet) (*interp.Machine, error) {
	m, err := interp.New(p.Info, a.interpOptions())
	if err != nil {
		return nil, err
	}
	for t := 0; t < max(1, a.T); t++ {
		if gen != nil {
			for _, in := range m.Inputs() {
				for _, pkt := range gen(t, in) {
					m.Buffer(in).Arrive(pkt)
				}
			}
		}
		if err := m.Step(t); err != nil {
			return m, err
		}
	}
	return m, nil
}

// Replay re-executes a solver trace concretely and cross-checks the
// observations (the differential-validation entry point).
func (p *Program) Replay(a Analysis, tr *smtbe.Trace) (*interp.Machine, []string, error) {
	m, err := interp.Replay(p.Info, a.interpOptions(), tr)
	if err != nil {
		return nil, nil, err
	}
	return m, interp.Diff(m, tr), nil
}
