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
//	cimmlc -model-file net.json -arch-file accel.json
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

// subcommands maps each subcommand name to its entry point; anything else
// is the compiler's own flags.
var subcommands = map[string]func(args []string){
	"run":     runServe,
	"tune":    runTune,
	"vet":     runVet,
	"analyze": runAnalyze,
}

func main() {
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			cmd(os.Args[2:])
			return
		}
	}
	compileMain(os.Args[1:])
}

// signalContext is the CLI-wide interruptible context.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// cellFlags names the cell a command works on: a model and an architecture,
// each by zoo name or JSON file, and the optimization level cap.
type cellFlags struct {
	model, modelFile, arch, archFile, maxLevel string
}

// declareCellFlags declares the cell flags on fs. byName adds -model and
// -arch (vet takes the names as arguments instead); level adds -max-level.
func declareCellFlags(fs *flag.FlagSet, byName, level bool) *cellFlags {
	cf := &cellFlags{}
	if byName {
		fs.StringVar(&cf.model, "model", "", "zoo model name (see -list)")
		fs.StringVar(&cf.arch, "arch", "", "preset architecture name (see -list)")
	}
	fs.StringVar(&cf.modelFile, "model-file", "", "graph JSON file (alternative to -model)")
	fs.StringVar(&cf.archFile, "arch-file", "", "architecture JSON file (alternative to -arch)")
	if level {
		fs.StringVar(&cf.maxLevel, "max-level", "", "cap optimization level (CM, XBM or WLM)")
	}
	return cf
}

// load resolves the cell, exiting on the first error.
func (cf *cellFlags) load() (*cimmlc.Graph, *cimmlc.Arch, cimmlc.Mode) {
	g, err := nameOrFile("model", cf.model, cf.modelFile, cimmlc.Model, cimmlc.DecodeGraph)
	if err != nil {
		fatal(err)
	}
	a, err := nameOrFile("arch", cf.arch, cf.archFile, cimmlc.Preset, cimmlc.DecodeArch)
	if err != nil {
		fatal(err)
	}
	level, err := parseMaxLevel(cf.maxLevel)
	if err != nil {
		fatal(err)
	}
	return g, a, level
}

func compileMain(args []string) {
	fs := flag.NewFlagSet("cimmlc", flag.ExitOnError)
	cf := declareCellFlags(fs, true, true)
	var (
		noPipe    = fs.Bool("no-pipeline", false, "disable inter-operator pipelining")
		noDup     = fs.Bool("no-duplication", false, "disable operator duplication")
		noStagger = fs.Bool("no-stagger", false, "disable the staggered MVM pipeline")
		noRemap   = fs.Bool("no-remap", false, "disable wordline remapping")
		emitFlow  = fs.Bool("flow", false, "print the generated meta-operator flow")
		maxWin    = fs.Int64("max-windows", 0, "cap emitted window blocks per operator (0 = all)")
		list      = fs.Bool("list", false, "list models and architectures, then exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cimmlc [flags] | cimmlc {run|tune|vet|analyze} [flags] (-h after a subcommand for its flags)")
		fs.PrintDefaults()
	}
	fs.Parse(args)

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

	ctx, stop := signalContext()
	defer stop()

	g, a, level := cf.load()
	opts := []cimmlc.Option{cimmlc.WithMaxLevel(level)}
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
	c, err := cimmlc.New(a, opts...)
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
	cf := declareCellFlags(fs, true, false)
	var (
		requests = fs.Int("requests", 32, "number of inference requests to serve")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for the batch")
		seed     = fs.Uint64("seed", 1, "seed for random weights and inputs")
		verify   = fs.Float64("verify", 0, "if > 0, verify the first request within this float tolerance")
	)
	fs.Parse(args)

	ctx, stop := signalContext()
	defer stop()

	g, a, _ := cf.load()
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

// nameOrFile resolves one -<what> / -<what>-file flag pair: by name, or by
// decoding the JSON file, and exactly one of the two must be set.
func nameOrFile[T any](what, name, file string, byName func(string) (T, error), decode func([]byte) (T, error)) (T, error) {
	var zero T
	switch {
	case name != "" && file != "":
		return zero, fmt.Errorf("cimmlc: use either -%s or -%s-file, not both", what, what)
	case name != "":
		return byName(name)
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return zero, err
		}
		return decode(data)
	}
	return zero, fmt.Errorf("cimmlc: -%s or -%s-file is required (try -list)", what, what)
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

// parseMaxLevel reads the -max-level flag of every command but run: empty
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
