// Command cimmlc is the CLI compiler: it compiles a zoo model (or a graph
// JSON file) onto a preset architecture (or an architecture JSON file) and
// prints the schedule report and, optionally, the meta-operator flow.
//
// The run subcommand compiles once into an executable Program and serves a
// stream of inference requests against it on the functional simulator. The
// tune subcommand runs the schedule autotuner and reports the tuned-vs-
// heuristic latency and the accepted moves.
//
// Usage:
//
//	cimmlc -model resnet18 -arch isaac-baseline
//	cimmlc -model conv-relu -arch toy-table2 -flow -max-windows 2
//	cimmlc -model-file net.json -arch-file accel.json -report
//	cimmlc -list
//	cimmlc run -model conv-relu -arch toy-table2 -requests 64 -parallel 8
//	cimmlc tune -model vgg7 -arch puma -budget 256
//	cimmlc vet lenet5 puma
//	cimmlc vet -zoo
//	cimmlc vet -selftest
//	cimmlc analyze -model mlp -arch puma -json
//	cimmlc analyze -zoo -golden testdata/analyze_golden.json
//
// The vet subcommand compiles with the static IR verifier (internal/
// irverify) forced on and reports rule-named diagnostics; -selftest proves
// the rules still reject the seeded-corruption fixtures in this build. The
// analyze subcommand emits the static dataflow resource report (see
// internal/flowdata) per cell, with a golden diff/update flow for CI.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"

	"cimmlc"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "run" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "tune" {
		runTune(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		runVet(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	compileMain()
}

// signalContext is the CLI-wide interruptible context.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

func compileMain() {
	var (
		modelName = flag.String("model", "", "zoo model name (see -list)")
		modelFile = flag.String("model-file", "", "graph JSON file (alternative to -model)")
		archName  = flag.String("arch", "", "preset architecture name (see -list)")
		archFile  = flag.String("arch-file", "", "architecture JSON file (alternative to -arch)")
		maxLevel  = flag.String("max-level", "", "cap optimization level (CM, XBM or WLM)")
		noPipe    = flag.Bool("no-pipeline", false, "disable inter-operator pipelining")
		noDup     = flag.Bool("no-duplication", false, "disable operator duplication")
		noStagger = flag.Bool("no-stagger", false, "disable the staggered MVM pipeline")
		noRemap   = flag.Bool("no-remap", false, "disable wordline remapping")
		emitFlow  = flag.Bool("flow", false, "print the generated meta-operator flow")
		maxWin    = flag.Int64("max-windows", 0, "cap emitted window blocks per operator (0 = all)")
		list      = flag.Bool("list", false, "list models and architectures, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("models:")
		for _, n := range cimmlc.ModelNames() {
			fmt.Println("  " + n)
		}
		fmt.Println("architectures:")
		for _, n := range cimmlc.Presets() {
			fmt.Println("  " + n)
		}
		return
	}

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
	var opts []cimmlc.Option
	if *noPipe {
		opts = append(opts, cimmlc.WithoutPipeline())
	}
	if *noDup {
		opts = append(opts, cimmlc.WithoutDuplication())
	}
	if *noStagger {
		opts = append(opts, cimmlc.WithoutStagger())
	}
	if *noRemap {
		opts = append(opts, cimmlc.WithoutRemap())
	}
	level, err := parseMaxLevel(*maxLevel)
	if err != nil {
		fatal(err)
	}
	c, err := cimmlc.New(a, append(opts, cimmlc.WithMaxLevel(level))...)
	if err != nil {
		fatal(err)
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		fatal(err)
	}
	printReport(g, a, res)
	if *emitFlow {
		fr, err := c.Lower(ctx, g, res, cimmlc.CodegenOptions{MaxWindowsPerOp: *maxWin})
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(fr.Flow.Print())
		if fr.Truncated {
			fmt.Println("# (window loops truncated by -max-windows; rerun with 0 for the executable flow)")
		}
	}
}

// runServe is the `cimmlc run` subcommand: Build once, then serve -requests
// random inferences across -parallel workers and report throughput.
func runServe(args []string) {
	fs := flag.NewFlagSet("cimmlc run", flag.ExitOnError)
	var (
		modelName = fs.String("model", "", "zoo model name")
		modelFile = fs.String("model-file", "", "graph JSON file (alternative to -model)")
		archName  = fs.String("arch", "", "preset architecture name")
		archFile  = fs.String("arch-file", "", "architecture JSON file (alternative to -arch)")
		requests  = fs.Int("requests", 32, "number of inference requests to serve")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for the batch")
		seed      = fs.Uint64("seed", 1, "seed for random weights and inputs")
		verify    = fs.Float64("verify", 0, "if > 0, verify the first request within this float tolerance")
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
	if *requests < 1 {
		fatal(fmt.Errorf("cimmlc run: -requests must be at least 1"))
	}
	c, err := cimmlc.New(a)
	if err != nil {
		fatal(err)
	}
	w := cimmlc.RandomWeights(g, *seed)
	reqs := make([]map[int]*cimmlc.Tensor, *requests)
	for i := range reqs {
		in := map[int]*cimmlc.Tensor{}
		for _, id := range g.InputIDs() {
			t := cimmlc.NewTensor(g.MustNode(id).OutShape...)
			t.Rand(*seed+uint64(i)*131+uint64(id), 1)
			in[id] = t
		}
		reqs[i] = in
	}

	buildStart := time.Now()
	p, err := c.Build(ctx, g, w, cimmlc.CodegenOptions{},
		cimmlc.WithCalibration(reqs[0]), cimmlc.WithWorkers(*parallel))
	if err != nil {
		fatal(err)
	}
	buildTime := time.Since(buildStart)
	if *verify > 0 {
		if err := p.Verify(ctx, reqs[0], *verify); err != nil {
			fatal(err)
		}
		fmt.Printf("verify:       ok (tol %g)\n", *verify)
	}

	serveStart := time.Now()
	if _, err := p.RunBatch(ctx, reqs); err != nil {
		fatal(err)
	}
	wall := time.Since(serveStart)

	st := p.Stats()
	rep := p.Result().Report
	fmt.Printf("model:        %s on %s\n", g.Name, a.Name)
	fmt.Printf("build:        %v (compile + lower + program weights, paid once)\n", buildTime.Round(time.Microsecond))
	fmt.Printf("requests:     %d across %d workers\n", *requests, *parallel)
	fmt.Printf("wall time:    %v (%.0f ns/request, %.1f req/s)\n",
		wall.Round(time.Microsecond), float64(wall.Nanoseconds())/float64(*requests),
		float64(*requests)/wall.Seconds())
	fmt.Printf("device model: %.0f cycles/inference, %.3g energy units\n", rep.Cycles, rep.Energy)
	fmt.Printf("state pool:   %d hits, %d misses\n", st.PoolHits, st.PoolMisses)
}

func loadModel(name, file string) (*cimmlc.Graph, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("cimmlc: use either -model or -model-file, not both")
	case name != "":
		return cimmlc.Model(name)
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return cimmlc.DecodeGraph(data)
	default:
		return nil, fmt.Errorf("cimmlc: -model or -model-file is required (try -list)")
	}
}

func loadArch(name, file string) (*cimmlc.Arch, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("cimmlc: use either -arch or -arch-file, not both")
	case name != "":
		return cimmlc.Preset(name)
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return cimmlc.DecodeArch(data)
	default:
		return nil, fmt.Errorf("cimmlc: -arch or -arch-file is required (try -list)")
	}
}

func printReport(g *cimmlc.Graph, a *cimmlc.Arch, res *cimmlc.Result) {
	r := res.Report
	s := res.Schedule
	fmt.Printf("model:        %s (%d nodes, %d weights)\n", g.Name, len(g.Nodes), g.WeightCount())
	fmt.Printf("architecture: %s\n", a)
	fmt.Printf("levels:       %v  pipeline=%v stagger=%v\n", s.Levels, s.Pipeline, s.Stagger)
	fmt.Printf("segments:     %d\n", len(s.Segments))
	fmt.Printf("latency:      %.0f cycles (reload %.0f)\n", r.Cycles, r.ReloadCycles)
	fmt.Printf("peak power:   %.2f units (%.0f active crossbars)\n", r.PeakPower.Total(), r.PeakActiveXBs)
	fmt.Printf("energy:       %.3g units\n", r.Energy)
	fmt.Printf("occupancy:    %d/%d cores, %d crossbars programmed\n", r.CoresUsed, a.Chip.CoreCount(), r.XBsUsed)

	// Duplication summary: top entries by copies.
	type d struct {
		id, dup, remap int
	}
	var ds []d
	for _, id := range g.CIMNodeIDs() {
		ds = append(ds, d{id, s.DupOf(id), s.RemapOf(id)})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].dup > ds[j].dup })
	n := len(ds)
	if n > 8 {
		n = 8
	}
	fmt.Println("hottest operators (dup × remap):")
	for _, e := range ds[:n] {
		node := g.MustNode(e.id)
		fmt.Printf("  %-12s dup=%-4d remap=%d\n", node.Name, e.dup, e.remap)
	}
}

// parseMaxLevel reads the -max-level flag every subcommand takes: empty
// leaves the architecture's own mode, otherwise CM, XBM or WLM in any case.
func parseMaxLevel(s string) (cimmlc.Mode, error) {
	level := cimmlc.Mode(strings.ToUpper(s))
	if s != "" && !level.Valid() {
		return "", fmt.Errorf("cimmlc: invalid -max-level %q", s)
	}
	return level, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
