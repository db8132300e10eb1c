package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"cimmlc"
)

// zooEnv is compile-zoo's environment: one cache-off compiler per preset and
// one graph per (model, preset) cell. The cache is off because a cached
// Compile does no compiling; the IR verifier is off because that is the
// production default outside test binaries.
type zooEnv struct {
	cells  []cell
	graphs []*cimmlc.Graph
	comps  map[string]*cimmlc.Compiler
}

func newZooEnv(models []string, opts ...cimmlc.Option) (*zooEnv, error) {
	env := &zooEnv{comps: map[string]*cimmlc.Compiler{}}
	for _, preset := range cimmlc.Presets() {
		a, err := cimmlc.Preset(preset)
		if err != nil {
			return nil, err
		}
		c, err := cimmlc.New(a, append([]cimmlc.Option{cimmlc.WithCache(0), cimmlc.WithoutVerifyIR()}, opts...)...)
		if err != nil {
			return nil, err
		}
		env.comps[preset] = c
		for _, m := range models {
			g, err := cimmlc.Model(m)
			if err != nil {
				return nil, err
			}
			env.cells = append(env.cells, cell{m, preset})
			env.graphs = append(env.graphs, g)
		}
	}
	return env, nil
}

// pass compiles every cell once in the given order, timing each Compile.
// check sees every result.
func (e *zooEnv) pass(order []int, check func(i int, d float64, res *cimmlc.Result, err error)) {
	for _, i := range order {
		t0 := time.Now()
		res, err := e.comps[e.cells[i].Arch].Compile(context.Background(), e.graphs[i])
		check(i, ms(time.Since(t0)), res, err)
	}
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// runCompileZoo measures Compiler.Compile over the model x preset grid, one
// goroutine, whole passes over the grid until the time budget is spent. The
// grid itself is the input; the seed only shuffles the order within a pass.
func runCompileZoo(cfg runConfig) (*WorkloadResult, error) {
	r := newResult("compile-zoo", cfg.Trace)
	build := func() (*zooEnv, error) { return newZooEnv(cfg.Size.ZooModels) }
	env, err := setup(r, 3*cfg.Size.SetupReps, build, func(*zooEnv) {})
	if err != nil {
		return nil, err
	}
	n := len(env.cells)

	// Gate: a warm pass fixes each cell's reference Report, and one pass with
	// the static IR verifier on must accept every intermediate and agree.
	want := make([]*cimmlc.Report, n)
	env.pass(identity(n), func(i int, _ float64, res *cimmlc.Result, err error) {
		r.Attempted++
		if err != nil {
			r.fail("%s: %v", env.cells[i], err)
			return
		}
		want[i] = res.Report
	})
	same := func(i int, res *cimmlc.Result, err error) bool {
		r.Attempted++
		switch {
		case err != nil:
			r.fail("%s: %v", env.cells[i], err)
		case want[i] == nil || !reflect.DeepEqual(res.Report, want[i]):
			r.fail("%s: Report differs from the warm pass", env.cells[i])
		default:
			return true
		}
		return false
	}
	verified, err := newZooEnv(cfg.Size.ZooModels, cimmlc.WithVerifyIR())
	if err != nil {
		return nil, err
	}
	verified.pass(identity(n), func(i int, _ float64, res *cimmlc.Result, err error) { same(i, res, err) })

	rng := newRand(cfg.Seed, 1)
	if cfg.Trace {
		return r, traceCompileZoo(cfg, r, env, same)
	}

	lat := make([][]float64, n)
	passes := 0
	for start := time.Now(); passes < cfg.Size.MinRounds || time.Since(start) < cfg.budget(); passes++ {
		env.pass(rng.Perm(n), func(i int, d float64, res *cimmlc.Result, err error) {
			if same(i, res, err) {
				lat[i] = append(lat[i], d)
			}
		})
	}
	r.Counts["passes"], r.Counts["cells"] = passes, n

	quiet := make([]float64, 0, n) // per cell: the quietest pass, ms
	var cycles, energy, power []float64
	for i, c := range env.cells {
		r.Rows = append(r.Rows, Row{Cell: c.String(), What: "compile", Unit: "ms", Dist: summarize(lat[i])})
		if len(lat[i]) == 0 || want[i] == nil {
			continue // failed every pass: counted in Failed, has no latency
		}
		// A compile lasts up to half a second, longer than the host's slow
		// spells: the window is one operation, the quietest pass.
		best, _ := quietest(lat[i], 1)
		quiet = append(quiet, best)
		cycles = append(cycles, want[i].Cycles)
		energy = append(energy, want[i].Energy)
		power = append(power, want[i].PeakPower.Total())
	}
	if len(quiet) == 0 {
		return r, fmt.Errorf("compile-zoo: no cell compiled")
	}
	r.set("op_ms_gm", geomean(quiet), passes*n)
	r.set("ops_per_s", float64(len(quiet))/(sum(quiet)/1e3), passes*n)
	r.set("tail_ms", slowCells(quiet), passes*n)
	setSimFrom(r, cycles, energy, power)
	return r, nil
}

// passMetric maps the compiler's pass names to per-layer metric names.
var passMetric = map[string]string{
	cimmlc.PassCG:       "cg.pass_ms",
	cimmlc.PassMVM:      "mvm.pass_ms",
	cimmlc.PassVVM:      "vvm.pass_ms",
	cimmlc.PassPlace:    "mapping.pass_ms",
	cimmlc.PassSimulate: "perfsim.pass_ms",
}

// traceCompileZoo repeats the grid with the compiler's public WithTrace hook
// registered and an outer span around every Compile. A pass metric is the
// pass's time summed over the grid, median over the traced passes; the
// untraced grid passes interleaved with them give the tracing overhead.
func traceCompileZoo(cfg runConfig, r *WorkloadResult, plain *zooEnv, same func(int, *cimmlc.Result, error) bool) error {
	tr := newTracer()
	outer, req := 0, 0
	cur := ""
	traced, err := newZooEnv(cfg.Size.ZooModels, cimmlc.WithTrace(func(ev cimmlc.TraceEvent) {
		if !ev.Skipped {
			tr.Add(outer, req, ev.Pass, cur, ev.Duration)
		}
	}))
	if err != nil {
		return err
	}
	n := len(plain.cells)
	var tracedMS, plainMS, allocMB []float64
	perPass := map[string][]float64{} // metric -> per-grid-pass total ms
	var last []*cimmlc.Result
	passes := 0
	for start := time.Now(); passes < cfg.Size.MinRounds || time.Since(start) < cfg.budget(); passes++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		last = make([]*cimmlc.Result, n)
		first := len(tr.Spans())
		total := 0.0
		for i := range traced.cells {
			req++
			cur = traced.cells[i].String()
			outer = tr.Start(0, req, "cimmlc.compile", cur)
			res, err := traced.comps[traced.cells[i].Arch].Compile(context.Background(), traced.graphs[i])
			total += ms(tr.End(outer))
			if same(i, res, err) {
				last[i] = res
			}
		}
		runtime.ReadMemStats(&after)
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		tracedMS = append(tracedMS, total)

		spans := tr.Spans()[first:]
		self := selfNS(spans)
		sums := map[string]float64{}
		for _, s := range spans {
			if s.Name == "cimmlc.compile" {
				sums["cimmlc.compile.self_ms"] += float64(self[s.ID]) / 1e6
			} else if m, ok := passMetric[s.Name]; ok {
				sums[m] += float64(s.EndNS-s.StartNS) / 1e6
			}
		}
		for m, v := range sums {
			perPass[m] = append(perPass[m], v)
		}

		total = 0
		plain.pass(identity(n), func(i int, d float64, res *cimmlc.Result, err error) {
			same(i, res, err)
			total += d
		})
		plainMS = append(plainMS, total)
	}
	r.Counts["passes"], r.Counts["cells"] = passes, n
	for m, vs := range perPass {
		r.set(m, median(vs), len(vs))
	}
	r.set("go.alloc_mb_per_pass", median(allocMB), len(allocMB))
	r.set("trace.overhead_ratio", median(tracedMS)/median(plainMS), passes)

	// Counts read from the last traced pass's Results.
	var nodes, segments, dup, remap, xbs, cores int
	var reload, cycles, peak float64
	for i, res := range last {
		if res == nil {
			continue
		}
		nodes += len(traced.graphs[i].Nodes)
		segments += len(res.Schedule.Segments)
		for _, d := range res.Schedule.Dup {
			dup += d
		}
		for _, m := range res.Schedule.Remap {
			remap += m
		}
		xbs += res.Report.XBsUsed
		cores += res.Report.CoresUsed
		reload += res.Report.ReloadCycles
		cycles += res.Report.Cycles
		peak += res.Report.PeakActiveXBs
		r.Rows = append(r.Rows, Row{Cell: traced.cells[i].String(), What: "counts", Unit: "count", Detail: map[string]float64{
			"graph.nodes": float64(len(traced.graphs[i].Nodes)), "cg.segments": float64(len(res.Schedule.Segments)),
			"mapping.xbs_used": float64(res.Report.XBsUsed), "mapping.cores_used": float64(res.Report.CoresUsed),
			"perfsim.reload_cycles": res.Report.ReloadCycles, "perfsim.cycles": res.Report.Cycles,
		}})
	}
	r.set("graph.nodes", float64(nodes), n)
	r.set("cg.segments", float64(segments), n)
	r.set("cg.dup_sum", float64(dup), n)
	r.set("vvm.remap_sum", float64(remap), n)
	r.set("mapping.xbs_used", float64(xbs), n)
	r.set("mapping.cores_used", float64(cores), n)
	r.set("perfsim.peak_active_xbs", peak, n)
	if cycles > 0 {
		r.set("perfsim.reload_cycle_share", reload/cycles, n)
	}

	// Per-cell pass rows, so "cg dominates the two isaac cells" is visible.
	type key struct{ cell, name string }
	perCell := map[key][]float64{}
	for _, s := range tr.Spans() {
		perCell[key{s.Cell, s.Name}] = append(perCell[key{s.Cell, s.Name}], float64(s.EndNS-s.StartNS)/1e6)
	}
	for _, c := range traced.cells {
		for _, name := range []string{"cimmlc.compile", cimmlc.PassCG, cimmlc.PassMVM, cimmlc.PassVVM, cimmlc.PassPlace, cimmlc.PassSimulate} {
			if vs := perCell[key{c.String(), name}]; len(vs) > 0 {
				r.Rows = append(r.Rows, Row{Cell: c.String(), What: name, Unit: "ms", Dist: summarize(vs)})
			}
		}
	}
	r.fillMissing()
	return writeSpans(cfg.OutDir, r.Workload, tr.Spans())
}
