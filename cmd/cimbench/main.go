// Command cimbench regenerates the paper's tables and figures, and runs the
// serving benchmark smoke against the compile-once Program API.
//
// Usage:
//
//	cimbench                 # run every experiment
//	cimbench fig20a fig21d   # run selected experiments
//	cimbench -list           # list experiment IDs
//	cimbench -json fig20a    # machine-readable results
//	cimbench -flows fig16    # print the full Figure-16 flows
//	cimbench -serving -json  # compile-once serving smoke (CI artifact)
//	cimbench -loadgen -json  # micro-batching vs per-request load generator
//	cimbench -loadgen -fleet -json  # fleet serving: 1 replica vs -fleet-replicas
//	cimbench -conform        # cross-level conformance matrix vs goldens
//	cimbench -conform -conform-full -json  # full-zoo sweep, CI artifact
//	cimbench -tune -json     # autotune the short zoo, per-cell speedup JSON
//	cimbench -partition -json  # mixed-model host-fallback sweep, transfer-cost artifact
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cimmlc"
	"cimmlc/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flows := flag.String("flows", "", "print the generated flows of the named experiment (fig16)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of formatted tables")
	serving := flag.Bool("serving", false, "run the compile-once serving smoke instead of experiments")
	servingModel := flag.String("serving-model", "conv-relu", "zoo model for -serving / -loadgen")
	servingArch := flag.String("serving-arch", "toy-table2", "preset architecture for -serving / -loadgen")
	servingReqs := flag.Int("serving-requests", 32, "requests to serve in -serving")
	conform := flag.Bool("conform", false, "run the cross-level conformance matrix against the committed goldens")
	partition := flag.Bool("partition", false, "run the mixed-model host-fallback sweep and report transfer costs")
	conformFull := flag.Bool("conform-full", false, "with -conform: sweep the full model zoo instead of the short matrix")
	tune := flag.Bool("tune", false, "autotune every short-zoo (model, preset, level) cell and report speedups")
	tuneBudget := flag.Int("tune-budget", 0, "with -tune: max candidate schedules per cell (0 = default)")
	tuneBeam := flag.Int("tune-beam", 0, "with -tune: beam width (0 = default)")
	loadgen := flag.Bool("loadgen", false, "run the micro-batching load generator instead of experiments")
	loadgenReqs := flag.Int("loadgen-requests", 256, "requests per path in -loadgen")
	loadgenClients := flag.Int("loadgen-clients", 16, "concurrent clients hitting the batcher in -loadgen")
	loadgenBatch := flag.Int("loadgen-batch", 8, "micro-batch size trigger in -loadgen")
	fleetgen := flag.Bool("fleet", false, "with -loadgen: compare a 1-replica fleet against -fleet-replicas")
	fleetReplicas := flag.Int("fleet-replicas", 4, "scaled fleet size in -loadgen -fleet")
	fleetGate := flag.Bool("fleet-gate", false, "with -loadgen -fleet: exit non-zero when the scaled fleet is slower on a multicore host")
	flag.Parse()

	if *list {
		for _, id := range cimmlc.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *serving {
		if err := runServing(*servingModel, *servingArch, *servingReqs, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *conform {
		if err := runConform(*conformFull, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *partition {
		if err := runPartition(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tune {
		if err := runTuneSweep(*tuneBudget, *tuneBeam, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *loadgen {
		var err error
		if *fleetgen {
			err = runFleetgen(*servingModel, *servingArch, *loadgenReqs, *loadgenClients, *loadgenBatch, *fleetReplicas, *fleetGate, *jsonOut)
		} else {
			err = runLoadgen(*servingModel, *servingArch, *loadgenReqs, *loadgenClients, *loadgenBatch, *jsonOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *flows != "" {
		if *flows != "fig16" {
			fmt.Fprintf(os.Stderr, "cimbench: only fig16 has printable flows\n")
			os.Exit(1)
		}
		fl, err := experiments.Fig16Flows()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			os.Exit(1)
		}
		for _, mode := range []string{"CM", "XBM", "WLM"} {
			fmt.Printf("===== %s =====\n", mode)
			fmt.Println(truncateFlow(fl[mode].Flow.Print(), 40))
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = cimmlc.ExperimentIDs()
	}
	failed := false
	var tables []*cimmlc.ExperimentTable
	for _, id := range ids {
		t, err := cimmlc.Experiment(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		if *jsonOut {
			tables = append(tables, t)
		} else {
			fmt.Println(t.Format())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// servingResult is the machine-readable record of one serving smoke run.
type servingResult struct {
	Model        string  `json:"model"`
	Arch         string  `json:"arch"`
	Requests     int     `json:"requests"`
	Parallel     int     `json:"parallel"`
	Cycles       float64 `json:"cycles"`
	Energy       float64 `json:"energy"`
	BuildNS      int64   `json:"build_ns"`
	WallNS       int64   `json:"wall_ns"`
	NSPerRequest float64 `json:"ns_per_request"`
	PoolHits     uint64  `json:"pool_hits"`
	PoolMisses   uint64  `json:"pool_misses"`
}

// runServing builds a Program once and serves a batch of random requests,
// reporting simulated device metrics and host-side serving throughput.
func runServing(model, arch string, requests int, jsonOut bool) error {
	if requests < 1 {
		return fmt.Errorf("-serving-requests must be at least 1")
	}
	ctx := context.Background()
	g, err := cimmlc.Model(model)
	if err != nil {
		return err
	}
	a, err := cimmlc.Preset(arch)
	if err != nil {
		return err
	}
	c, err := cimmlc.New(a)
	if err != nil {
		return err
	}
	w := cimmlc.RandomWeights(g, 1)
	reqs := make([]map[int]*cimmlc.Tensor, requests)
	for i := range reqs {
		in := map[int]*cimmlc.Tensor{}
		for _, id := range g.InputIDs() {
			t := cimmlc.NewTensor(g.MustNode(id).OutShape...)
			t.Rand(uint64(i)*131+uint64(id)+2, 1)
			in[id] = t
		}
		reqs[i] = in
	}

	parallel := runtime.GOMAXPROCS(0)
	buildStart := time.Now()
	p, err := c.Build(ctx, g, w, cimmlc.CodegenOptions{},
		cimmlc.WithCalibration(reqs[0]), cimmlc.WithWorkers(parallel))
	if err != nil {
		return err
	}
	buildNS := time.Since(buildStart).Nanoseconds()
	if err := p.Verify(ctx, reqs[0], 0.05); err != nil {
		return err
	}
	serveStart := time.Now()
	if _, err := p.RunBatch(ctx, reqs); err != nil {
		return err
	}
	wall := time.Since(serveStart)

	st := p.Stats()
	rep := p.Result().Report
	res := servingResult{
		Model:        g.Name,
		Arch:         a.Name,
		Requests:     requests,
		Parallel:     parallel,
		Cycles:       rep.Cycles,
		Energy:       rep.Energy,
		BuildNS:      buildNS,
		WallNS:       wall.Nanoseconds(),
		NSPerRequest: float64(wall.Nanoseconds()) / float64(requests),
		PoolHits:     st.PoolHits,
		PoolMisses:   st.PoolMisses,
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("serving smoke: %s on %s, %d requests / %d workers\n", res.Model, res.Arch, res.Requests, res.Parallel)
	fmt.Printf("  build %.2fms, serve %.2fms (%.0f ns/request)\n",
		float64(res.BuildNS)/1e6, float64(res.WallNS)/1e6, res.NSPerRequest)
	fmt.Printf("  device: %.0f cycles, %.3g energy; pool %d hits / %d misses\n",
		res.Cycles, res.Energy, res.PoolHits, res.PoolMisses)
	return nil
}

// truncateFlow keeps the first n lines of a printed flow (the §3.4 example
// prints "… 256 similar code segments" rather than all of them).
func truncateFlow(text string, n int) string {
	lines := 0
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			lines++
			if lines == n {
				return text[:i] + "\n  ... (truncated; flows are complete in memory)"
			}
		}
	}
	return text
}
