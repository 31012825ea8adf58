package main

import (
	"os"
	"path/filepath"
	"testing"

	"buffy/internal/bench"
)

// TestVetRecordsVerdicts runs the vet experiment end to end: -out writes
// one loadable trajectory whose every entry carries the answer it
// measured, so the gate can compare verdicts across runs.
func TestVetRecordsVerdicts(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trajectory.json")
	if code := run("vet", out); code != 0 {
		t.Fatalf("-exp vet: exit %d, want 0", code)
	}
	traj, err := bench.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.Experiments) == 0 {
		t.Fatal("no experiments recorded")
	}
	for _, e := range traj.Experiments {
		if e.Verdict == "" || !e.Advisory || len(e.RunsMS) != 1 {
			t.Errorf("%s: verdict %q, advisory %v, %d runs; want a verdict on one advisory sample",
				e.Name, e.Verdict, e.Advisory, len(e.RunsMS))
		}
	}
}

// TestEmptyOutWritesNoFile pins the default: without -out a run leaves
// the working directory untouched, so a partial run can never overwrite
// the committed baseline.
func TestEmptyOutWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if code := run("vet", ""); code != 0 {
		t.Fatalf("-exp vet: exit %d, want 0", code)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("empty -out left %d files in the working directory (err %v)", len(entries), err)
	}
}
