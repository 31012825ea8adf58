package main

import (
	"fmt"
	"os"

	"buffy/internal/core"
	"buffy/internal/vet"
)

// runVet executes -mode vet: static analysis only, no solver. It prints
// every diagnostic with a source excerpt, reports the static verdict if
// one was decided, and exits 1 on error findings (or on warnings too
// with -vet-strict).
func runVet(filename, src string, a core.Analysis, strict bool) {
	res := core.VetSource(src, a)
	vet.Render(os.Stdout, filename, src, res)
	fmt.Printf("%s: vet %s\n", filename, vet.Summary(res))
	if res.Report.HasErrors() || (strict && !res.Report.Clean()) {
		os.Exit(1)
	}
}
