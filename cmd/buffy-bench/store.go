package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"buffy/internal/bench"
	"buffy/internal/qm"
	"buffy/internal/service"
	"buffy/internal/store"
)

// storeCorpus is a spread of solver-bound queries across the qm corpus:
// witnesses that exist, verifications that hold, a bound and a sweep, so
// the disk tier is exercised over every result shape.
func storeCorpus() []*service.Request {
	return []*service.Request{
		{Kind: service.KindWitness, Source: qm.FQBuggyQuerySrc, T: 6, Params: map[string]int64{"N": 3}},
		{Kind: service.KindVerify, Source: qm.FQFixedQuerySrc, T: 5, Params: map[string]int64{"N": 3}},
		{Kind: service.KindWitness, Source: qm.RRQuerySrc, T: 5, Params: map[string]int64{"N": 2}},
		{Kind: service.KindWitness, Source: qm.SPQuerySrc, T: 6, Params: map[string]int64{"N": 3}},
		{Kind: service.KindVerify, Source: qm.ShaperSrc, T: 8, Params: map[string]int64{"RATE": 2, "BURST": 3}},
		{Kind: service.KindSweep, Source: qm.FQBuggyQuerySrc, MaxT: 6, SweepMode: "witness", Params: map[string]int64{"N": 3}},
	}
}

func storeModelName(req *service.Request) string {
	switch req.Source {
	case qm.FQBuggyQuerySrc:
		if req.Kind == service.KindSweep {
			return "cs1-fq-buggy-sweep"
		}
		return "cs1-fq-buggy"
	case qm.FQFixedQuerySrc:
		return "cs1b-fq-fixed"
	case qm.RRQuerySrc:
		return "rr"
	case qm.SPQuerySrc:
		return "sp"
	case qm.ShaperSrc:
		return "shaper"
	}
	return "unknown"
}

// runStoreExp measures what the durable tier buys across a restart: the
// corpus is solved cold through an engine writing behind to a disk
// store, the engine is shut down and a fresh one opened over the same
// directory (a restart with zero memory), and the corpus replayed. Every
// replay must hit the disk tier with the same answer; each query records
// a store/<model>/cold and a store/<model>/disk entry. The experiment
// fails below a disk hit ratio of 0.9 or a median speedup of 2x.
func runStoreExp() ([]bench.Experiment, error) {
	dir, err := os.MkdirTemp("", "buffy-bench-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fp := service.PipelineFingerprint()
	open := func() (*store.Store, error) {
		return store.Open(store.Options{Dir: dir, Fingerprint: fp, MaxBytes: 1 << 30})
	}

	corpus := storeCorpus()
	s1, err := open()
	if err != nil {
		return nil, err
	}
	e1 := service.New(service.Config{Workers: 2, Store: s1})
	cold := make([]time.Duration, len(corpus))
	status := make([]string, len(corpus))
	for i, req := range corpus {
		r := *req // engines share the corpus; give each its own copy
		start := time.Now()
		res, err := solveOn(e1, &r)
		if err != nil {
			return nil, fmt.Errorf("cold %s: %w", storeModelName(req), err)
		}
		cold[i] = time.Since(start)
		status[i] = res.Status
		if res.CacheHit {
			return nil, fmt.Errorf("cold %s unexpectedly served from cache", storeModelName(req))
		}
	}
	if err := shutdownEngine(e1); err != nil { // flushes write-behinds, closes the store
		return nil, err
	}

	// "Restart": a fresh store over the same directory (recovery scan
	// included) under a fresh engine with a cold memory tier.
	s2, err := open()
	if err != nil {
		return nil, err
	}
	e2 := service.New(service.Config{Workers: 2, Store: s2})
	var exps []bench.Experiment
	var speedups []float64
	hits := 0
	fmt.Printf("%-20s  %-7s  %-10s  %9s  %9s  %8s  %s\n",
		"model", "kind", "status", "cold", "disk", "speedup", "tier")
	for i, req := range corpus {
		r := *req
		start := time.Now()
		res, err := solveOn(e2, &r)
		if err != nil {
			return exps, fmt.Errorf("replay %s: %w", storeModelName(req), err)
		}
		disk := time.Since(start)
		if res.CacheHit && res.CacheTier == service.CacheTierDisk {
			hits++
		}
		if res.Status != status[i] {
			return exps, fmt.Errorf("replay %s: answer changed across restart: %s vs %s",
				storeModelName(req), res.Status, status[i])
		}
		var speedup float64
		if disk > 0 {
			speedup = float64(cold[i]) / float64(disk)
		}
		speedups = append(speedups, speedup)
		name := "store/" + storeModelName(req)
		exps = append(exps, advisory(name+"/cold", res.Status, cold[i]), advisory(name+"/disk", res.Status, disk))
		fmt.Printf("%-20s  %-7s  %-10s  %8.2fms  %8.2fms  %7.1fx  %s\n",
			storeModelName(req), req.Kind, res.Status, ms(cold[i]), ms(disk), speedup, res.CacheTier)
	}
	st := e2.Metrics().Store
	if err := shutdownEngine(e2); err != nil {
		return exps, err
	}

	hitRatio := float64(hits) / float64(len(corpus))
	medianSpeedup, _ := bench.MedianIQR(speedups)
	var entries int
	var size int64
	if st != nil {
		entries, size = st.Entries, st.Bytes
	}
	fmt.Printf("\ndisk hit ratio %.2f (%d/%d), median speedup %.1fx, %d entries / %d bytes on disk\n",
		hitRatio, hits, len(corpus), medianSpeedup, entries, size)
	if hitRatio < 0.9 {
		return exps, fmt.Errorf("disk hit ratio %.2f below the 0.9 gate", hitRatio)
	}
	if medianSpeedup < 2 {
		return exps, fmt.Errorf("median disk-hit speedup %.2fx below the 2x gate", medianSpeedup)
	}
	return exps, nil
}

func shutdownEngine(e *service.Engine) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return e.Shutdown(ctx)
}

func solveOn(e *service.Engine, req *service.Request) (*service.Result, error) {
	job, err := e.Submit(req)
	if err != nil {
		return nil, err
	}
	if req.Kind == service.KindSweep {
		// Drain the verdict stream like a client would; the terminal
		// result still carries the full list.
		if ch := job.Verdicts(); ch != nil {
			for range ch {
			}
		}
	}
	<-job.Done()
	res, err := job.Result()
	if err != nil {
		return nil, err
	}
	return res, nil
}
