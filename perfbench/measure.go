package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// units is every metric the benchmark reports, with its unit. The
// per-layer counts marked "count.exact" repeat bit for bit for one build
// and grid; the traced run checks this.
var units = map[string]string{
	// End to end, from the untraced run.
	"latency_ms_p50":   "ms",
	"latency_ms_p90":   "ms",
	"throughput_per_s": "1/s",
	"cpu_ms_per_op":    "ms",
	"peak_rss_mb":      "MB",
	"setup_s":          "s",
	"success_ratio":    "ratio",

	// Per layer, from the traced run, summed per pass over the grid.
	"lang.parse_ms":             "ms",
	"lang.allocs":               "count",
	"sema.vet_ms":               "ms",
	"sema.allocs":               "count",
	"sema.static_answers":       "count",
	"ir.compile_ms":             "ms",
	"ir.compile_share":          "ratio",
	"ir.allocs":                 "count",
	"ir.alloc_mb":               "MB",
	"ir.terms":                  "count.exact",
	"ir.assumes":                "count.exact",
	"bitblast.ms":               "ms",
	"bitblast.allocs":           "count",
	"cnf.vars":                  "count.exact",
	"cnf.clauses":               "count.exact",
	"sat.search_ms":             "ms",
	"sat.search_share":          "ratio",
	"sat.conflicts":             "count.exact",
	"sat.decisions":             "count.exact",
	"sat.propagations":          "count.exact",
	"sat.restarts":              "count.exact",
	"sat.learnt":                "count.exact",
	"sat.removed":               "count.exact",
	"sat.props_per_ms":          "1/ms",
	"smtbe.model_ms":            "ms",
	"go.gc_cycles":              "count",
	"go.gc_pause_ms":            "ms",
	"go.total_alloc_mb":         "MB",
	"netcalc.bound_us":          "us",
	"session.hits":              "count",
	"session.misses":            "count",
	"session.horizons":          "count.exact",
	"session.sweep_ms":          "ms",
	"service.queue_wait_ms_p50": "ms",
	"service.queue_wait_ms_p90": "ms",
	"service.exec_ms_p50":       "ms",
	"service.exec_ms_p90":       "ms",
	"service.memory_hits":       "count",
	"service.disk_hits":         "count",
	"service.misses":            "count",
	"service.cache_hit_ratio":   "ratio",
	"store.writes":              "count",
	"store.write_drops":         "count",
	"store.disk_hit_ratio":      "ratio",
	"trace.overhead_pct":        "%",
}

// endToEnd names the metrics of the untraced run.
var endToEnd = map[string]bool{
	"latency_ms_p50": true, "latency_ms_p90": true, "throughput_per_s": true,
	"cpu_ms_per_op": true, "peak_rss_mb": true, "setup_s": true, "success_ratio": true,
}

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// memDelta is the change in allocation and GC counters across a span.
type memDelta struct {
	allocs  uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func memSince(before *runtime.MemStats) memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		allocs:  now.Mallocs - before.Mallocs,
		bytes:   now.TotalAlloc - before.TotalAlloc,
		gcs:     now.NumGC - before.NumGC,
		pauseNs: now.PauseTotalNs - before.PauseTotalNs,
	}
}

// endToEndMetrics fills the untraced run's metrics from its samples.
func endToEndMetrics(m metrics, latMS []float64, window, cpu time.Duration, setups []float64, attempted, failed int) {
	done := attempted - failed
	m.set("latency_ms_p50", quantile(latMS, 0.5))
	m.set("latency_ms_p90", quantile(latMS, 0.9))
	m.set("throughput_per_s", float64(done)/window.Seconds())
	m.set("cpu_ms_per_op", ms(cpu)/float64(max(done, 1)))
	m.set("peak_rss_mb", peakRSSMB())
	m.set("setup_s", median(setups))
	m.set("success_ratio", float64(done)/float64(max(attempted, 1)))
}
