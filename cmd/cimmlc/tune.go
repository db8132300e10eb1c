package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"cimmlc"
)

// runTune is the `cimmlc tune` subcommand: it compiles a model twice — once
// with the multi-level heuristics alone and once with the schedule autotuner
// on top — and reports the heuristic-vs-tuned latency, the budget spent and
// the accepted move chain.
func runTune(args []string) {
	fs := flag.NewFlagSet("cimmlc tune", flag.ExitOnError)
	var (
		modelName  = fs.String("model", "", "zoo model name")
		modelFile  = fs.String("model-file", "", "graph JSON file (alternative to -model)")
		archName   = fs.String("arch", "", "preset architecture name")
		archFile   = fs.String("arch-file", "", "architecture JSON file (alternative to -arch)")
		maxLevel   = fs.String("max-level", "", "cap optimization level (CM, XBM or WLM)")
		candidates = fs.Int("budget", 0, "max candidate schedules to score (0 = default)")
		beam       = fs.Int("beam", 0, "beam width of the search (0 = default)")
		rounds     = fs.Int("rounds", 0, "max search rounds (0 = default)")
		workers    = fs.Int("workers", 0, "concurrent candidate scorers (0 = GOMAXPROCS; never changes the result)")
	)
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	g, err := loadModel(*modelName, *modelFile)
	if err != nil {
		fatal(err)
	}
	a, err := loadArch(*archName, *archFile)
	if err != nil {
		fatal(err)
	}
	level, err := parseMaxLevel(*maxLevel)
	if err != nil {
		fatal(err)
	}
	base := []cimmlc.Option{cimmlc.WithMaxLevel(level)}
	budget := cimmlc.Budget{MaxCandidates: *candidates, Beam: *beam, MaxRounds: *rounds, Workers: *workers}

	hc, err := cimmlc.New(a, base...)
	if err != nil {
		fatal(err)
	}
	hres, err := hc.Compile(ctx, g)
	if err != nil {
		fatal(err)
	}
	tc, err := cimmlc.New(a, append(append([]cimmlc.Option{}, base...), cimmlc.WithAutoTune(budget))...)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	tres, err := tc.Compile(ctx, g)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	st := tres.Tuning
	fmt.Printf("model:        %s on %s\n", g.Name, a)
	fmt.Printf("heuristic:    %.0f cycles (levels %v)\n", hres.Report.Cycles, hres.Schedule.Levels)
	fmt.Printf("tuned:        %.0f cycles (%.3fx speedup)\n", st.TunedCycles, st.Speedup())
	fmt.Printf("search:       %d candidates scored over %d rounds in %v\n", st.Evaluated, st.Rounds, wall.Round(time.Millisecond))
	fmt.Printf("fingerprint:  %s\n", st.ScheduleFingerprint)
	if len(st.Moves) == 0 {
		fmt.Println("moves:        none (the heuristic schedule was already best found)")
	} else {
		fmt.Println("moves:")
		for _, m := range st.Moves {
			fmt.Printf("  %s\n", m)
		}
	}
}
