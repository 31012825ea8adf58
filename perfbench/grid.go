package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"buffy/internal/qm"
)

//go:embed grid.json
var gridJSON []byte

// grid is grid.json: the query grids of every workload.
type grid struct {
	Programs map[string]string          `json:"programs"`
	Cold     map[string]*coldWorkload   `json:"cold"`
	Served   map[string]*servedWorkload `json:"served"`
}

// coldWorkload is one closed-loop client sending cold queries.
type coldWorkload struct {
	Why     string       `json:"why"`
	Queries []*coldQuery `json:"queries"`
}

// coldQuery is one grid entry of a cold workload.
type coldQuery struct {
	Name    string           `json:"name"`
	Program string           `json:"program"`
	Model   string           `json:"model"`
	Params  map[string]int64 `json:"params"`
	T       int              `json:"t"`
	Mode    string           `json:"mode"`
	Expect  string           `json:"expect"`

	src string
}

// servedWorkload is the client mix sent to one service.Engine.
type servedWorkload struct {
	Why          string           `json:"why"`
	Clients      int              `json:"clients"`
	Workers      int              `json:"workers"`
	CacheEntries int              `json:"memory_cache_entries"`
	Sessions     int              `json:"session_entries"`
	Canonical    []*servedRequest `json:"canonical"`
	Fresh        []*servedRequest `json:"fresh"`
	Vet          []*vetRequest    `json:"vet"`
}

// servedRequest is one engine request of the served mix. A canonical
// request runs PerPass times a pass (default once). A fresh request
// gets a new comment line per pass, so its cache key is new while its
// work is the same; fresh requests sharing a group share that line, so
// sweeps of one group share a warm session.
type servedRequest struct {
	Name      string           `json:"name"`
	Kind      string           `json:"kind"`
	Program   string           `json:"program"`
	Model     string           `json:"model"`
	Params    map[string]int64 `json:"params"`
	T         int              `json:"t"`
	Arrivals  int              `json:"arrivals_per_step"`
	BufferCap int              `json:"buffer_cap"`
	MaxT      int              `json:"max_t"`
	SweepMode string           `json:"sweep_mode"`
	Group     string           `json:"group"`
	PerPass   int              `json:"per_pass"`
	Expect    string           `json:"expect"`
	Tier      string           `json:"tier"`
	Delay     string           `json:"delay"`
	Backlog   string           `json:"backlog"`
	FoundAt   int              `json:"found_at"`

	src string
}

// vetRequest is one POST /v1/vet of the served mix.
type vetRequest struct {
	Name    string           `json:"name"`
	Program string           `json:"program"`
	Params  map[string]int64 `json:"params"`
	T       int              `json:"t"`
	Clean   bool             `json:"clean"`
	Witness string           `json:"witness"`

	src string
}

// qmPrograms names the model library's sources for grid.json.
var qmPrograms = map[string]string{
	"fq_buggy_query": qm.FQBuggyQuerySrc,
	"fq_fixed_query": qm.FQFixedQuerySrc,
	"rr_query":       qm.RRQuerySrc,
	"sp_query":       qm.SPQuerySrc,
	"sptandem":       qm.SPTandemSrc,
	"tbrl":           qm.TBRLSrc,
	"shaper":         qm.ShaperSrc,
}

func loadGrid() (*grid, error) {
	var g grid
	if err := json.Unmarshal(gridJSON, &g); err != nil {
		return nil, fmt.Errorf("grid.json: %w", err)
	}
	source := func(name string) (string, error) {
		if src, ok := qmPrograms[name]; ok {
			return src, nil
		}
		if src, ok := g.Programs[name]; ok {
			return src, nil
		}
		return "", fmt.Errorf("grid.json: unknown program %q", name)
	}
	var err error
	for _, w := range g.Cold {
		for _, q := range w.Queries {
			if q.src, err = source(q.Program); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range g.Served {
		for _, r := range append(append([]*servedRequest(nil), w.Canonical...), w.Fresh...) {
			if r.src, err = source(r.Program); err != nil {
				return nil, err
			}
		}
		for _, v := range w.Vet {
			if v.src, err = source(v.Program); err != nil {
				return nil, err
			}
		}
	}
	return &g, nil
}

// passOrder is the seeded order of one pass over n grid entries. Each
// pass runs every entry once, so every run of a workload asks the same
// mix of queries and the seed decides only their order.
func passOrder(seed int64, pass, n int) []int {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	return r.Perm(n)
}
