package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/qm"
)

// TestConcurrentAnalyses pins down that the whole pipeline — parse,
// typecheck, compile, blast, solve, trace extraction — is safe to call
// from many goroutines at once, both on a shared *Program and on
// per-goroutine ones. This is the contract the service worker pool relies
// on; run with -race.
func TestConcurrentAnalyses(t *testing.T) {
	shared, err := Parse(qm.FQBuggyQuerySrc)
	if err != nil {
		t.Fatal(err)
	}
	fqAnalysis := Analysis{T: 4, Params: map[string]int64{"N": 2}}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0, 1: // shared program, witness direction
				res, err := shared.FindWitnessContext(context.Background(), fqAnalysis)
				if err != nil {
					errs <- err
					return
				}
				if res.Status != smtbe.WitnessFound || res.Trace == nil {
					t.Errorf("worker %d: witness status %v", i, res.Status)
				}
			case 2: // distinct program, verify direction
				prog, err := Parse(limiter)
				if err != nil {
					errs <- err
					return
				}
				res, err := prog.VerifyContext(context.Background(), Analysis{T: 3})
				if err != nil {
					errs <- err
					return
				}
				if res.Status != smtbe.Holds {
					t.Errorf("worker %d: verify status %v", i, res.Status)
				}
			case 3: // shared program, verify direction (FQ starves: cex exists)
				res, err := shared.VerifyContext(context.Background(), fqAnalysis)
				if err != nil {
					errs <- err
					return
				}
				if res.Status != smtbe.CounterexampleFound {
					t.Errorf("worker %d: fq verify status %v", i, res.Status)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestContextCancelPreCompile: a context cancelled before the call aborts
// without doing any work.
func TestContextCancel(t *testing.T) {
	prog, err := Parse(qm.FQBuggyQuerySrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := prog.FindWitnessContext(ctx, Analysis{T: 10, Params: map[string]int64{"N": 3}}); err == nil {
		t.Error("expected a cancellation error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pre-cancelled analysis took %v", elapsed)
	}

	// Synthesize honours cancellation too.
	if _, err := prog.SynthesizeWorkloadContext(ctx, Analysis{T: 5, Params: map[string]int64{"N": 2}}); err == nil {
		t.Error("expected a cancellation error from synthesis")
	}
}
