package core

import (
	"context"
	"errors"

	"buffy/internal/backend/smtbe"
	"buffy/internal/session"
)

// SweepOptions configures a horizon sweep (see SweepWithSession).
type SweepOptions struct {
	// MaxT is the deepest horizon to try.
	MaxT int
	// Mode is the query direction for every horizon (default Verify).
	Mode smtbe.Mode
	// OnVerdict, when non-nil, receives each horizon's verdict as it
	// lands (the streaming hook).
	OnVerdict func(session.Verdict)
}

// NewSession builds a warm solver session for this program with capacity
// maxT, ready to answer assumption-based queries (any mode, any horizon
// up to maxT) on one shared encoding. It returns a nil session and no
// error when the program's use of T forces per-horizon compilation
// (session.ErrConstHorizon): SweepWithSession then sweeps cold. This is
// the one place that decision is made. The analysis' Progress is
// intentionally not baked in: sessions outlive requests, so progress
// attaches per query.
func (p *Program) NewSession(a Analysis, maxT int) (*session.Session, error) {
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	iro.T = maxT
	so := a.solverOptions()
	so.Progress = nil
	sess, err := session.New(p.Info, session.Options{IR: iro, Solver: so})
	if errors.Is(err, session.ErrConstHorizon) {
		return nil, nil
	}
	return sess, err
}

// SweepWithSession runs the minimal-horizon search: solve horizons
// 1..MaxT in order until one produces a trace. With a warm session (from
// NewSession, possibly shared) each horizon re-solves one encoding under
// per-horizon assumptions instead of a cold solve; a nil session sweeps
// cold, and a session evicted mid-sweep degrades the remaining horizons
// to cold solves.
func (p *Program) SweepWithSession(ctx context.Context, sess *session.Session, a Analysis, opts SweepOptions) (*session.SweepResult, error) {
	if err := p.vetGate(ctx, a); err != nil {
		return nil, err
	}
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	return session.Sweep(ctx, p.Info, sess, session.SweepOptions{
		MaxT:      opts.MaxT,
		Mode:      opts.Mode,
		OnVerdict: opts.OnVerdict,
		Backend:   smtbe.Options{IR: iro, Solver: a.solverOptions()},
		Query:     session.Query{Progress: a.Progress},
	})
}
