package main

import (
	"flag"
	"fmt"
	"time"

	"cimmlc"
)

// runTune is the `cimmlc tune` subcommand: it compiles a model once with the
// schedule autotuner on top of the multi-level heuristics and reports the
// heuristic-vs-tuned latency, the budget spent and the accepted move chain.
// The tuned result carries the heuristic figures itself: the tuner's
// record holds the heuristic latency and its level trail is the heuristic
// one plus a trailing TUNE.
func runTune(args []string) {
	fs := flag.NewFlagSet("cimmlc tune", flag.ExitOnError)
	cf := declareCellFlags(fs, true, true)
	var (
		candidates = fs.Int("budget", 0, "max candidate schedules to score (0 = default)")
		beam       = fs.Int("beam", 0, "beam width of the search (0 = default)")
		rounds     = fs.Int("rounds", 0, "max search rounds (0 = default)")
		workers    = fs.Int("workers", 0, "concurrent candidate scorers (0 = GOMAXPROCS; never changes the result)")
	)
	fs.Parse(args)

	ctx, stop := signalContext()
	defer stop()

	g, a, level := cf.load()
	budget := cimmlc.Budget{MaxCandidates: *candidates, Beam: *beam, MaxRounds: *rounds, Workers: *workers}
	c, err := cimmlc.New(a, cimmlc.WithMaxLevel(level), cimmlc.WithAutoTune(budget))
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := c.Compile(ctx, g)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	st := res.Tuning
	levels := res.Schedule.Levels
	fmt.Printf("model:        %s on %s\n", g.Name, a)
	fmt.Printf("heuristic:    %.0f cycles (levels %v)\n", st.HeuristicCycles, levels[:len(levels)-1])
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
