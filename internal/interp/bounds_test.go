package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"buffy/internal/ir"
	"buffy/internal/smt/solver"
	"buffy/internal/unroll"
)

// TestBoundsAgreeWithIR pins the interpreter to the solver's bounded
// model: counterexample replay is only meaningful when both machines
// resolve the same capacities, arrivals, classes and list size. The two
// count input instances with different constant evaluators, so every
// shipped model is checked at several horizons and parameter values,
// with and without explicit bounds.
func TestBoundsAgreeWithIR(t *testing.T) {
	models, err := filepath.Glob(filepath.Join("..", "qm", "models", "*.buffy"))
	if err != nil || len(models) == 0 {
		t.Fatalf("no qm models found: %v", err)
	}
	explicit := []unroll.Bounds{
		{},
		{BufferCap: 3, ArrivalsPerStep: 2},
		{BufferCap: 5, OutBufferCap: 11, ArrivalsPerStep: 2, NumClasses: 7, MaxBytes: 3, ListCap: 6},
	}
	for _, path := range models {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		info := load(t, string(src))
		for _, pv := range []int64{2, 5} {
			params := map[string]int64{}
			for _, p := range info.Params {
				params[p] = pv
			}
			for _, T := range []int{1, 4, 9} {
				for _, b := range explicit {
					name := fmt.Sprintf("%s/param=%d/T=%d/%+v", filepath.Base(path), pv, T, b)
					sv := solver.New(solver.Options{})
					sym, err := ir.NewMachine(info, sv.Builder(), ir.Options{T: T, Params: params, Bounds: b})
					if err != nil {
						t.Fatalf("%s: ir: %v", name, err)
					}
					con, err := New(info, Options{T: T, Params: params, Bounds: b})
					if err != nil {
						t.Fatalf("%s: interp: %v", name, err)
					}
					if got, want := con.Bounds(), sym.Bounds(); got != want {
						t.Errorf("%s: interp bounds %+v, ir bounds %+v", name, got, want)
					}
				}
			}
		}
	}
}
