// Command perfbench is Buffy's benchmark: time-to-verdict on three
// workloads, with a separate traced run that breaks each query down by
// layer.
//
//	perfbench -workload cold-compile -seed 1 -seconds 20 -trace 0
//
// The workloads and their query grids live in grid.json. An untraced run
// (-trace 0) prints the end-to-end metrics; a traced run (-trace 1) of the
// same workload and seed prints the per-layer metrics. Every verdict is
// checked against the grid's expected verdict and every Sat trace is
// replayed through the concrete interpreter; a wrong answer makes the run
// exit nonzero. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 130, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; units come from the unit table.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// report is the run's last line of output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	out      string // directory for spans and exact-counter records
}

// minSamples keeps at least ten latencies beyond the p90 of a run.
const minSamples = 100

// setupRepeats is how often a run sets up; setup_s is their median.
const setupRepeats = 5

func main() {
	workload := flag.String("workload", "", "workload name: cold-compile | cold-search | served-mix")
	seed := flag.Int64("seed", 1, "seed that orders each pass of the query grid")
	seconds := flag.Int("seconds", 20, "how long the run measures, in seconds (whole passes, at least 100 samples)")
	trace := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps and exact-counter records")
	flag.Parse()

	g, err := loadGrid()
	if err != nil {
		fail(err)
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *out,
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0|1"))
	}

	var rep *report
	if w, ok := g.Cold[*workload]; ok {
		rep, err = runCold(*workload, w, cfg)
	} else if w, ok := g.Served[*workload]; ok {
		rep, err = runServed(*workload, w, cfg)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fail(err)
	}
	if cfg.trace {
		// Every per-layer metric appears in every traced run; those a
		// workload does not exercise read 0.
		for name := range units {
			if _, ok := rep.Metrics[name]; !ok && !endToEnd[name] {
				rep.Metrics.set(name, 0)
			}
		}
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// printReport writes one readable line per metric, then the JSON line.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// writeJSON writes v under dir, creating it as needed.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
