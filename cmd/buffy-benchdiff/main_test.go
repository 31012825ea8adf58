package main

import "testing"

// TestGateFailsOnRegressedFixture is the CI gate's proof of life: a
// candidate trajectory whose deterministic work counters grew ~40%
// (testdata/regressed.json) must exit nonzero against the baseline.
func TestGateFailsOnRegressedFixture(t *testing.T) {
	if code := run("testdata/base.json", "testdata/regressed.json"); code != 1 {
		t.Fatalf("regressed fixture: exit %d, want 1", code)
	}
}

// TestGateFailsOnVerdictFixture: identical timings and work, but one
// probe answered differently (testdata/verdict.json) — a correctness
// regression the gate must fail on any machine.
func TestGateFailsOnVerdictFixture(t *testing.T) {
	if code := run("testdata/base.json", "testdata/verdict.json"); code != 1 {
		t.Fatalf("verdict fixture: exit %d, want 1", code)
	}
}

// TestGatePassesOnIdenticalFixture pins the other direction: a run
// compared against itself is never a regression.
func TestGatePassesOnIdenticalFixture(t *testing.T) {
	if code := run("testdata/base.json", "testdata/base.json"); code != 0 {
		t.Fatalf("identical fixture: exit %d, want 0", code)
	}
}

// TestGateUnreadableInputIsUsageError distinguishes "perf regressed"
// (1) from "could not even compare" (2) so CI failures read correctly.
func TestGateUnreadableInputIsUsageError(t *testing.T) {
	if code := run("testdata/does-not-exist.json", "testdata/base.json"); code != 2 {
		t.Fatalf("missing baseline: exit %d, want 2", code)
	}
}
