// Quickstart: model a tiny rate limiter in Buffy, simulate it, verify a
// property on all traffic, and extract a counterexample for a property
// that does not hold.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"buffy/internal/core"
	"buffy/internal/workload"
)

// A one-packet-per-step server: every step it forwards at most one packet
// from its input to its output. The monitor tracks total departures; the
// queries say (1) departures never exceed the elapsed steps (true) and
// (2) the queue never exceeds 2 packets (false for bursty input).
const src = `
limiter(buffer in0, buffer out0) {
  monitor int departed;
  local int n;
  n = backlog-p(in0);
  if (n > 1) { n = 1; }
  move-p(in0, out0, n);
  departed = departed + n;
  assert(departed <= t + 1);
  assert(backlog-p(in0) <= 2);
}
`

func main() {
	ctx := context.Background()
	prog, err := core.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed program %q (inputs and queries included)\n\n", prog.Name())

	// --- Concrete simulation under a bursty workload.
	plan := workload.OnOff(6, []string{"in0"}, 2, 2) // bursts of 2 every 2 steps
	m, err := prog.Simulate(core.Analysis{T: 6}, plan.Generator())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation: sent %d packets, delivered %d, %d assert failure(s)\n",
		plan.Total(), m.Buffer("out0").BacklogP(), len(m.Failures()))

	// --- Verification: with up to 2 arrivals per step the backlog bound
	// breaks; the solver hands us the offending traffic pattern.
	res, err := prog.VerifyContext(ctx, core.Analysis{T: 4, ArrivalsPerStep: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverify (2 arrivals/step allowed): %v in %v\n", res.Status, res.Duration.Round(1000000))
	if res.Trace != nil {
		fmt.Print(res.Trace)
	}

	// --- Restrict traffic and verify again: at one arrival per step both
	// asserts hold on every execution.
	res, err = prog.VerifyContext(ctx, core.Analysis{T: 6, ArrivalsPerStep: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverify (1 arrival/step): %v in %v — the limiter keeps up\n",
		res.Status, res.Duration.Round(1000000))
}
