package core

// The static analysis tier (DESIGN.md "Analysis tiers"): an always-on
// pre-solve gate in every *Context entry point. Before a query is
// compiled and bit-blasted, the sema abstract interpreter gets a few
// microseconds to decide it outright — contradictory workloads and
// trivially-true queries short-circuit here, and the solver is never
// constructed. (Assert-free programs are NOT short-circuited: the SMT
// backend's "nothing to check" input error is the established contract
// for those, and the gate preserves it.) The tier is sound by
// construction: over-approximate abstract interpretation can only
// answer in the directions where over-approximation proves the claim
// (Verify -> Holds, Witness -> NoWitness); anything needing a concrete
// execution falls through to the SMT tier.

import (
	"context"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/lang/sema"
	"buffy/internal/telemetry"
)

// semaOptions derives the static-analyzer configuration from an
// Analysis, mirroring the ir bounds so the abstract semantics match what
// the solver would encode.
func (a Analysis) semaOptions() sema.Options {
	return sema.Options{
		T:               a.T,
		Params:          a.Params,
		BufferCap:       a.BufferCap,
		OutBufferCap:    a.OutBufferCap,
		ArrivalsPerStep: a.ArrivalsPerStep,
		MaxBytes:        a.MaxBytes,
		ListCap:         a.ListCap,
		Width:           a.Width,
	}
}

// Vet runs the static analyzer over the program with this analysis
// configuration and returns the full diagnostic report.
func (p *Program) Vet(a Analysis) *sema.Report {
	return sema.Analyze(p.Info, a.semaOptions())
}

// vet is the pre-amble shared by the static tier and the vet gate: it
// runs the analyzer under a "vet" span carrying the diagnostic count and
// returns the report with the span, already ended, for callers to
// annotate further. It declines (nil report) when the context is already
// done (the solver path reports cancellation uniformly) or when
// parameters are unbound (the ir path reports the missing binding as an
// error).
func (p *Program) vet(ctx context.Context, a Analysis) (*sema.Report, *telemetry.Span) {
	if ctx.Err() != nil {
		return nil, nil
	}
	for _, name := range p.Info.Params {
		if _, ok := a.Params[name]; !ok {
			return nil, nil
		}
	}
	_, span := telemetry.StartSpan(ctx, "vet")
	defer span.End()
	rep := sema.Analyze(p.Info, a.semaOptions())
	span.SetAttrs(telemetry.Int("diags", int64(len(rep.Diags))))
	return rep, span
}

// staticTier is the pre-solve gate. It returns a conclusive static
// result for the given query mode, or nil when the query needs a solver.
func (p *Program) staticTier(ctx context.Context, a Analysis, mode smtbe.Mode) *smtbe.Result {
	start := time.Now()
	rep, span := p.vet(ctx, a)
	if rep == nil {
		return nil
	}
	v := rep.Verdict
	span.SetAttrs(telemetry.String("verdict", v.Reason))

	if v.Reason == sema.ReasonNoAsserts {
		// Let smtbe report its "program has no assert()" error; a silent
		// static Holds would mask a malformed query.
		return nil
	}
	var status smtbe.Status
	switch {
	case mode == smtbe.Verify && v.Verify == "holds":
		status = smtbe.Holds
	case mode == smtbe.Witness && v.Witness == "no-witness":
		status = smtbe.NoWitness
	default:
		return nil
	}
	return &smtbe.Result{
		Status:   status,
		Mode:     mode,
		Duration: time.Since(start),
		Tier:     "static",
	}
}

// vetGate rejects programs whose static analysis produced error-severity
// diagnostics (contradictory assumptions, unusable horizon) before an
// expensive backend runs. Used by the backends that cannot otherwise
// consume a static verdict (workload synthesis, bound computation,
// sweeps).
func (p *Program) vetGate(ctx context.Context, a Analysis) error {
	rep, _ := p.vet(ctx, a)
	if rep == nil || !rep.HasErrors() {
		return nil
	}
	var errDiags []sema.Diagnostic
	for _, d := range rep.Diags {
		if d.Severity == sema.Error {
			errDiags = append(errDiags, d)
		}
	}
	return &sema.VetError{Diags: errDiags}
}
