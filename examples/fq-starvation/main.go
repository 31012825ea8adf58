// The paper's §6.1 case study end to end: find the FQ-CoDel starvation
// bug in the buggy fair-queuing scheduler of Figure 4, replay the
// discovered trace through the concrete interpreter, synthesize the
// general traffic pattern behind it (the FPerf-style back-end), and show
// the RFC 8290 fix eliminates the bug.
//
//	go run ./examples/fq-starvation
package main

import (
	"context"
	"fmt"
	"log"

	"buffy/internal/core"
	"buffy/internal/qm"
)

func main() {
	ctx := context.Background()
	const T, N = 6, 3
	analysis := core.Analysis{T: T, Params: map[string]int64{"N": N}}

	// --- 1. The buggy scheduler: can queue 1, with packets waiting in
	// every step, be served at most once over the whole horizon?
	buggy, err := core.Parse(qm.FQBuggyQuerySrc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := buggy.FindWitnessContext(ctx, analysis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buggy scheduler, T=%d: %v (%v)\n", T, res.Status, res.Duration.Round(1000000))
	if res.Trace == nil {
		log.Fatal("expected a starvation witness")
	}
	fmt.Print(res.Trace)
	fmt.Printf("queue 1 served %d time(s) despite constant demand\n\n",
		res.Trace.Vars[T-1]["cdeq1"])

	// --- 2. Independent confirmation: replay the trace concretely.
	m, diffs, err := buggy.Replay(analysis, res.Trace)
	if err != nil {
		log.Fatal(err)
	}
	if len(diffs) > 0 {
		log.Fatalf("interpreter disagrees with solver: %v", diffs)
	}
	fmt.Printf("replay: interpreter reproduces the trace exactly (%d asserts held — witness semantics)\n\n",
		T-len(m.Failures()))

	// --- 3. Generalize: what traffic pattern causes this? This is the
	// RFC's "transmits at just the right rate" flow, discovered
	// automatically.
	synth, err := buggy.SynthesizeWorkloadContext(ctx, core.Analysis{T: 5, Params: map[string]int64{"N": 2}})
	if err != nil {
		log.Fatal(err)
	}
	if synth.Found {
		fmt.Printf("synthesized workload (T=5, N=2):\n  %v\n  (%d solver checks, %v)\n\n",
			synth.Workload, synth.Checks, synth.Duration.Round(1000000))
	}

	// --- 4. The RFC 8290 fix: same query, no witness.
	fixed, err := core.Parse(qm.FQFixedQuerySrc)
	if err != nil {
		log.Fatal(err)
	}
	fres, err := fixed.FindWitnessContext(ctx, analysis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed scheduler, T=%d: %v (%v) — the deactivation change removes the bug\n",
		T, fres.Status, fres.Duration.Round(1000000))
}
