package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"buffy/internal/core"
	"buffy/internal/qm"
)

// portfolioOut is where -exp portfolio writes its machine-readable summary.
var portfolioOut = flag.String("portfolio-out", "portfolio-summary.json",
	"JSON summary path for the portfolio experiment")

// portfolioSizes are the race widths the experiment compares against the
// single classic config. Size 2 is the minimal hedge (classic plus its
// best-measured complement); size 4 is the service/CLI default.
var portfolioSizes = []int{2, 4}

// portfolioRow is one (example, size) single-vs-portfolio comparison,
// serialized into the JSON summary artifact.
type portfolioRow struct {
	Example         string  `json:"example"`
	Mode            string  `json:"mode"`
	T               int     `json:"t"`
	PortfolioSize   int     `json:"portfolio_size"`
	SingleMS        float64 `json:"single_ms"`
	SingleStatus    string  `json:"single_status"`
	PortfolioMS     float64 `json:"portfolio_ms"`
	PortfolioStatus string  `json:"portfolio_status"`
	Winner          string  `json:"winner"`
	Speedup         float64 `json:"speedup"`
}

// runPortfolioExp compares the single classic-config solver against
// portfolios of diversified configurations on the case-study queries:
// same answers on every row, and the race's wall clock is the first
// conclusive config's, so examples where a non-classic heuristic wins
// show a speedup > 1. On a single-CPU host the racing searches time-slice
// one core, so a width-N race only wins where some config beats classic
// by more than Nx; with real parallelism every fast-config win shows.
func runPortfolioExp() error {
	ctx := context.Background()
	examples := []struct {
		name   string
		src    string
		mode   string // "verify" | "witness"
		t      int
		params map[string]int64
	}{
		{"cs1-fq-starvation", qm.FQBuggyQuerySrc, "witness", 8, map[string]int64{"N": 3}},
		{"sp-starvation", qm.SPQuerySrc, "witness", 6, map[string]int64{"N": 3}},
		{"rr-no-starvation", qm.RRQuerySrc, "witness", 6, map[string]int64{"N": 2}},
		{"shaper-envelope", qm.ShaperSrc, "verify", 5, map[string]int64{"RATE": 2, "BURST": 3}},
	}

	rows := make([]portfolioRow, 0, len(examples)*len(portfolioSizes))
	wins := 0
	fmt.Printf("%-20s  %-8s  %5s  %10s  %10s  %8s  %-14s\n",
		"example", "mode", "width", "single", "portfolio", "speedup", "winner")
	for _, ex := range examples {
		prog, err := core.Parse(ex.src)
		if err != nil {
			return err
		}
		a := core.Analysis{T: ex.t, Params: ex.params}

		check := prog.VerifyContext
		if ex.mode == "witness" {
			check = prog.FindWitnessContext
		}
		start := time.Now()
		res, err := check(ctx, a)
		if err != nil {
			return err
		}
		single, singleStatus := time.Since(start), res.Status.String()

		for _, size := range portfolioSizes {
			pa := a
			pa.Portfolio = size
			pr, err := check(ctx, pa)
			if err != nil {
				return err
			}
			portStatus, winner, portWall := pr.Status.String(), pr.Winner, pr.Duration
			if portStatus != singleStatus {
				return fmt.Errorf("%s (width %d): portfolio answered %s but single config answered %s",
					ex.name, size, portStatus, singleStatus)
			}
			speedup := float64(single) / float64(portWall)
			if speedup > 1 {
				wins++
			}
			rows = append(rows, portfolioRow{
				Example: ex.name, Mode: ex.mode, T: ex.t, PortfolioSize: size,
				SingleMS: float64(single.Microseconds()) / 1e3, SingleStatus: singleStatus,
				PortfolioMS: float64(portWall.Microseconds()) / 1e3, PortfolioStatus: portStatus,
				Winner: winner, Speedup: speedup,
			})
			fmt.Printf("%-20s  %-8s  %5d  %9.3fs  %9.3fs  %7.2fx  %-14s\n",
				ex.name, ex.mode, size, single.Seconds(), portWall.Seconds(), speedup, winner)
		}
	}

	summary := struct {
		CPUs          int            `json:"cpus"`
		Rows          []portfolioRow `json:"rows"`
		WallClockWins int            `json:"wall_clock_wins"`
	}{runtime.NumCPU(), rows, wins}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*portfolioOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("portfolio beat the single config on %d/%d rows (%d CPUs); summary: %s\n",
		wins, len(rows), runtime.NumCPU(), *portfolioOut)
	fmt.Println("(every answer agreed across modes — diversification changes speed, never the verdict)")
	return nil
}
