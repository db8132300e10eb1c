package cimmlc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/core"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/partition"
	"cimmlc/internal/perfsim"
)

// TestCompilerMatchesLegacy checks that the Compiler — private graph and
// arch copies, prebuilt pass list, artifact cache — adds nothing to the bare
// pass pipeline it wraps: New(arch).Compile produces the same Schedule,
// Report and Placement as core.Compile for every preset × several zoo models.
func TestCompilerMatchesLegacy(t *testing.T) {
	zoo := []string{"conv-relu", "lenet5", "resnet18"}
	for _, pname := range Presets() {
		for _, mname := range zoo {
			t.Run(pname+"/"+mname, func(t *testing.T) {
				a, err := Preset(pname)
				if err != nil {
					t.Fatal(err)
				}
				g1, err := Model(mname)
				if err != nil {
					t.Fatal(err)
				}
				g2, err := Model(mname)
				if err != nil {
					t.Fatal(err)
				}
				legacy, legacyErr := core.Compile(g1, a, core.Options{})
				c, err := New(a)
				if err != nil {
					t.Fatal(err)
				}
				res, resErr := c.Compile(context.Background(), g2)
				if (legacyErr != nil) != (resErr != nil) {
					t.Fatalf("error mismatch: legacy=%v compiler=%v", legacyErr, resErr)
				}
				if legacyErr != nil {
					t.Skipf("model does not compile on this preset: %v", legacyErr)
				}
				if !reflect.DeepEqual(legacy.Report, res.Report) {
					t.Errorf("reports differ: legacy %+v vs compiler %+v", legacy.Report, res.Report)
				}
				ls, ns := legacy.Schedule, res.Schedule
				if !reflect.DeepEqual(ls.Dup, ns.Dup) || !reflect.DeepEqual(ls.Remap, ns.Remap) ||
					!reflect.DeepEqual(ls.Segments, ns.Segments) || !reflect.DeepEqual(ls.Levels, ns.Levels) ||
					ls.Pipeline != ns.Pipeline || ls.Stagger != ns.Stagger {
					t.Errorf("schedules differ:\nlegacy dup=%v remap=%v segs=%v levels=%v pipe=%v stag=%v\nnew    dup=%v remap=%v segs=%v levels=%v pipe=%v stag=%v",
						ls.Dup, ls.Remap, ls.Segments, ls.Levels, ls.Pipeline, ls.Stagger,
						ns.Dup, ns.Remap, ns.Segments, ns.Levels, ns.Pipeline, ns.Stagger)
				}
				if !reflect.DeepEqual(legacy.Placement.Extents, res.Placement.Extents) {
					t.Errorf("placements differ:\nlegacy %+v\nnew    %+v", legacy.Placement.Extents, res.Placement.Extents)
				}
			})
		}
	}
}

// TestCompilerConcurrent hammers one Compiler from many goroutines sharing
// the same Graph value; run under -race this verifies the concurrency-safety
// contract.
func TestCompilerConcurrent(t *testing.T) {
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Model("mlp")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := g
			if i%4 == 3 {
				in = g2 // mix a second model into the traffic
			}
			results[i], errs[i] = c.Compile(context.Background(), in)
		}(i)
	}
	wg.Wait()

	var ref *Result
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if i%4 == 3 {
			continue
		}
		if ref == nil {
			ref = results[i]
			continue
		}
		if !reflect.DeepEqual(ref.Report, results[i].Report) {
			t.Fatalf("worker %d produced a different report", i)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != workers {
		t.Fatalf("stats account for %d compiles, want %d (%+v)", st.Hits+st.Misses, workers, st)
	}
	if st.Misses < 2 || st.Entries < 1 {
		t.Fatalf("unexpected cache accounting: %+v", st)
	}
}

func TestCompilerCache(t *testing.T) {
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}

	r1, err := c.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second identical compile not served from the cache")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Capacity != DefaultCacheSize {
		t.Fatalf("stats after hit = %+v", st)
	}

	// A structurally identical graph built separately also hits (the key is
	// a content fingerprint, not a pointer).
	g2, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ctx, g2); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("fingerprint-equal graph missed the cache: %+v", st)
	}

	// A different model misses.
	g3, err := Model("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ctx, g3); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats after second model = %+v", st)
	}
}

func TestCompilerCacheDisabledAndEviction(t *testing.T) {
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Model("mlp")
	if err != nil {
		t.Fatal(err)
	}

	off, err := New(a, WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := off.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := off.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("WithCache(0) still memoized")
	}
	if st := off.Stats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 0 || st.Capacity != 0 {
		t.Fatalf("stats with cache off = %+v", st)
	}

	one, err := New(a, WithCache(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Graph{g, g2, g} { // g evicted by g2, then recompiled
		if _, err := one.Compile(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if st := one.Stats(); st.Evictions != 2 || st.Misses != 3 || st.Entries != 1 {
		t.Fatalf("stats with capacity 1 = %+v", st)
	}
}

// TestCompileRejectsInvalidGraphCacheOnOrOff: a caching compiler validates
// the graph on the way to its fingerprint; a cache-less one skips the
// fingerprint but must refuse the same graph with the same message.
func TestCompileRejectsInvalidGraphCacheOnOrOff(t *testing.T) {
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	g.Nodes[len(g.Nodes)-1].Inputs = nil // the output operator reads nothing
	var msgs []string
	for _, capacity := range []int{0, 4} {
		c, err := New(a, WithCache(capacity))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Compile(context.Background(), g)
		if err == nil {
			t.Fatalf("WithCache(%d): compiled an invalid graph", capacity)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || !strings.HasPrefix(msgs[0], "cimmlc: Compile: graph: refusing to encode invalid graph: ") {
		t.Fatalf("cache off: %q\ncache on:  %q", msgs[0], msgs[1])
	}
}

// cancelPass cancels its context the first time it runs, simulating a
// deadline landing mid-compile.
type cancelPass struct{ cancel context.CancelFunc }

func (cancelPass) Name() string                              { return "test-cancel" }
func (cancelPass) Applicable(Mode) bool                      { return true }
func (p cancelPass) Run(context.Context, *PassContext) error { p.cancel(); return nil }

func TestCompilerContextCancellation(t *testing.T) {
	a, err := Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: rejected before any work.
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Compile(cancelled, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled compile returned %v", err)
	}

	// Cancellation mid-compile: a pass inserted after CG cancels, and the
	// pipeline stops before the MVM phase.
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	mid, err := New(a, WithPass(PassCG, cancelPass{cancel: cancelMid}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = mid.Compile(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-compile cancellation returned %v", err)
	}
	if !strings.Contains(err.Error(), PassMVM) {
		t.Fatalf("expected cancellation before %s, got: %v", PassMVM, err)
	}
}

// observerPass records the schedule state it sees, to verify user passes
// run at their declared slot between the built-in phases.
type observerPass struct {
	mu     sync.Mutex
	levels [][]string
}

func (*observerPass) Name() string         { return "test-observe" }
func (*observerPass) Applicable(Mode) bool { return true }
func (p *observerPass) Run(_ context.Context, pc *PassContext) error {
	if pc.Schedule == nil {
		return fmt.Errorf("no schedule at observation point")
	}
	p.mu.Lock()
	p.levels = append(p.levels, append([]string(nil), pc.Schedule.Levels...))
	p.mu.Unlock()
	return nil
}

func TestCompilerCustomPassBetweenMVMAndVVM(t *testing.T) {
	a, err := Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	obs := &observerPass{}
	c, err := New(a, WithPass(PassMVM, obs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.levels) != 1 || !reflect.DeepEqual(obs.levels[0], []string{"CG", "MVM"}) {
		t.Fatalf("observer saw levels %v, want one observation of [CG MVM]", obs.levels)
	}
	if !reflect.DeepEqual(res.Schedule.Levels, []string{"CG", "MVM", "VVM"}) {
		t.Fatalf("final levels = %v", res.Schedule.Levels)
	}

	// The observer must not run again on a cache hit.
	if _, err := c.Compile(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if len(obs.levels) != 1 {
		t.Fatalf("custom pass ran %d times despite cache hit", len(obs.levels))
	}
}

func TestCompilerOptionValidation(t *testing.T) {
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil); err == nil {
		t.Fatal("accepted nil arch")
	}
	if _, err := New(a, WithMaxLevel("bogus")); err == nil {
		t.Fatal("accepted invalid max level")
	}
	if _, err := New(a, WithAllocator("waterfil")); err == nil {
		t.Fatal("accepted unknown allocator")
	}
	if _, err := New(a, WithAllocator(AllocWaterfill)); err != nil {
		t.Fatalf("rejected valid allocator: %v", err)
	}
	if _, err := New(a, WithPass("no-such-pass", &observerPass{})); err == nil {
		t.Fatal("accepted unknown pass anchor")
	}
	if _, err := New(a, WithPass("", nil)); err == nil {
		t.Fatal("accepted nil pass")
	}
	if _, err := New(a, WithPass("", shadowPass{})); err == nil {
		t.Fatal("accepted pass shadowing a built-in name")
	}
	// Two distinct passes under one name would collide in the artifact
	// cache (optionFingerprint folds pass names only), so New rejects
	// duplicates even at different anchors.
	if _, err := New(a,
		WithPass(PassCG, &observerPass{}),
		WithPass(PassMVM, &observerPass{}),
	); err == nil {
		t.Fatal("accepted duplicate user pass names")
	}
}

type shadowPass struct{}

func (shadowPass) Name() string                            { return PassCG }
func (shadowPass) Applicable(Mode) bool                    { return true }
func (shadowPass) Run(context.Context, *PassContext) error { return nil }

// TestCompilerEndToEnd drives the full Compiler surface — Compile, Lower,
// Build, then Program.Verify and Run — as the quickstart does, and pins that
// nil graphs error instead of panicking.
func TestCompilerEndToEnd(t *testing.T) {
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := c.Lower(ctx, g, res, CodegenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Flow == nil || len(fr.Flow.Body) == 0 {
		t.Fatal("Lower produced an empty flow")
	}
	w := RandomWeights(g, 1)
	in := NewTensor(3, 32, 32)
	in.Rand(2, 1)
	inputs := map[int]*Tensor{0: in}
	p, err := c.Build(ctx, g, w, CodegenOptions{}, WithCalibration(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(ctx, inputs, 0.05); err != nil {
		t.Fatal(err)
	}
	outs, err := p.Run(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[g.Outputs()[0]].Len() != 32*32*32 {
		t.Fatal("wrong output size")
	}

	if _, err := c.Compile(ctx, nil); err == nil {
		t.Fatal("Compile accepted nil graph")
	}
	if _, err := c.Lower(ctx, nil, res, CodegenOptions{}); err == nil {
		t.Fatal("Lower accepted nil graph")
	}
	if _, err := c.BuildPipeline(ctx, nil, w, CodegenOptions{}, 0); err == nil {
		t.Fatal("BuildPipeline accepted nil graph")
	}
}

// TestCompilerLowerRunConcurrent drives the whole Compile → Lower → Analyze →
// Build → Run → Verify surface from goroutines sharing one Graph value and one
// cached Result, on a monolithic cell, a host-fallback cell and a model
// BuildPipeline spreads over two chips. Builds read the Result's own graphs,
// so under -race this verifies that no Compiler or Program method writes to
// caller-owned graphs or to a cached Result.
func TestCompilerLowerRunConcurrent(t *testing.T) {
	ctx := context.Background()
	for _, cell := range []struct {
		model, arch string
		opts        []Option
		// pipeline builds through BuildPipeline on the preset shrunk to 2×4
		// cores, where the model needs two chips.
		pipeline bool
	}{
		{"conv-relu", "toy-table2", nil, false},
		{"conv-gate", "puma", []Option{WithHostFallback()}, false},
		{"mlp", "jia-isscc21", []Option{WithStationaryWeights()}, true},
	} {
		t.Run(cell.model+"."+cell.arch, func(t *testing.T) {
			a, err := Preset(cell.arch)
			if err != nil {
				t.Fatal(err)
			}
			if cell.pipeline {
				a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
			}
			c, err := New(a, cell.opts...)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Model(cell.model)
			if err != nil {
				t.Fatal(err)
			}
			var cut partition.Options
			build := func() (*Program, error) { return c.Build(ctx, g, RandomWeights(g, 1), CodegenOptions{}) }
			if cell.pipeline {
				cut.Chip = &c.arch
				build = func() (*Program, error) {
					return c.BuildPipeline(ctx, g, RandomWeights(g, 1), CodegenOptions{}, 0)
				}
			}
			res, err := c.compile(ctx, g, cut)
			if err != nil {
				t.Fatal(err)
			}
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			// The cells with options are the staged ones.
			if p.Result() != res || (res.Partition == nil) != (cell.opts == nil) {
				t.Fatalf("built from another result, or partition %v", res.Partition != nil)
			}
			var wg sync.WaitGroup
			errs := make([]error, 7)
			do := func(i int, f func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = f()
				}()
			}
			do(0, func() error { _, err := c.compile(ctx, g, cut); return err })
			do(1, func() error { _, err := c.Analyze(ctx, g, res, CodegenOptions{}); return err })
			do(2, func() error {
				if res.Partition != nil {
					return nil // a staged result has no single flow to lower
				}
				_, err := c.Lower(ctx, g, res, CodegenOptions{})
				return err
			})
			do(3, func() error { return p.Verify(ctx, seededRequest(p, 3), 0.5) })
			for i := 4; i < len(errs); i++ {
				do(i, func() error {
					q, err := build()
					if err != nil {
						return err
					}
					req := seededRequest(q, uint64(i))
					if _, err := q.Run(ctx, req); err != nil {
						return err
					}
					return q.Verify(ctx, req, 0.5)
				})
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
		})
	}
}

// TestSimulateBesideBuild runs the performance simulator on a cached
// Result's schedule beside a Build and an Analyze of that Result: Simulate
// reads the schedule's graph, which the Build's stage shares, so under -race a
// write to it from either side fails here. The simulation must reproduce the
// compile's report.
func TestSimulateBesideBuild(t *testing.T) {
	ctx := context.Background()
	a, err := Preset("puma")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var rep *Report
	errs := make([]error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		rep, errs[0] = Simulate(res.Schedule)
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = c.Build(ctx, g, RandomWeights(g, 1), CodegenOptions{})
	}()
	go func() {
		defer wg.Done()
		_, errs[2] = c.Analyze(ctx, g, res, CodegenOptions{})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if rep.Cycles != res.Report.Cycles || rep.Energy != res.Report.Energy {
		t.Fatalf("Simulate(res.Schedule) = %g cycles, %g energy; the compile reported %g, %g", rep.Cycles, rep.Energy, res.Report.Cycles, res.Report.Energy)
	}
}

// TestLowerAndAnalyzeRefuseAnotherGraph: Lower and Analyze index the graph they
// are given by the node IDs res was compiled over, so a graph of another shape
// is refused rather than read out of range or lowered under the wrong
// operators, with the verifier on and off, in both directions, and when only
// one operator differs.
func TestLowerAndAnalyzeRefuseAnotherGraph(t *testing.T) {
	ctx := context.Background()
	a, err := Preset("puma")
	if err != nil {
		t.Fatal(err)
	}
	model := func(name string) *Graph {
		g, err := Model(name)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	swapped := model("conv-relu")
	swapped.Nodes[len(swapped.Nodes)-1].Op = graph.OpSigmoid
	for _, verify := range []Option{WithVerifyIR(), WithoutVerifyIR()} {
		c, err := New(a, verify)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			g        *Graph
			compiled string
		}{
			{model("conv-relu"), "lenet5"},
			{model("lenet5"), "conv-relu"},
			{swapped, "conv-relu"},
		} {
			res, err := c.Compile(ctx, model(pair.compiled))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Lower(ctx, pair.g, res, CodegenOptions{}); err == nil || !strings.Contains(err.Error(), "compiled over") {
				t.Errorf("Lower(%s, Compile(%s)) = %v, want a refusal", pair.g.Name, pair.compiled, err)
			}
			if _, err := c.Analyze(ctx, pair.g, res, CodegenOptions{}); err == nil || !strings.Contains(err.Error(), "compiled over") {
				t.Errorf("Analyze(%s, Compile(%s)) = %v, want a refusal", pair.g.Name, pair.compiled, err)
			}
		}
	}
}

func TestLookupErrorsAndCaseInsensitivity(t *testing.T) {
	if _, err := Preset("ISAAC-Baseline"); err != nil {
		t.Fatalf("case-insensitive preset lookup failed: %v", err)
	}
	if _, err := Model("ResNet18"); err != nil {
		t.Fatalf("case-insensitive model lookup failed: %v", err)
	}
	if _, err := Experiment("FIG16"); err != nil {
		t.Fatalf("case-insensitive experiment lookup failed: %v", err)
	}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"preset", func() error { _, err := Preset("nope"); return err }()},
		{"model", func() error { _, err := Model("nope"); return err }()},
		{"experiment", func() error { _, err := Experiment("nope"); return err }()},
	} {
		if tc.err == nil {
			t.Fatalf("%s lookup accepted unknown name", tc.name)
		}
		if !strings.Contains(tc.err.Error(), `"nope"`) || !strings.Contains(tc.err.Error(), "available:") {
			t.Fatalf("%s lookup error not actionable: %v", tc.name, tc.err)
		}
	}
}

func TestCompilerTrace(t *testing.T) {
	a, err := Preset("jia-isscc21") // CM: MVM and VVM passes are skipped
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ran, skipped []string
	c, err := New(a, WithTrace(func(ev TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Skipped {
			skipped = append(skipped, ev.Pass)
		} else {
			ran = append(ran, ev.Pass)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []string{PassCG, PassPlace, PassSimulate}) {
		t.Fatalf("ran = %v", ran)
	}
	if !reflect.DeepEqual(skipped, []string{PassMVM, PassVVM}) {
		t.Fatalf("skipped = %v", skipped)
	}
	if _, err := c.Compile(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if ran[len(ran)-1] != "cache-hit" {
		t.Fatalf("cache hit not traced: %v", ran)
	}
}

// TestReportOccupancyIsTheSchedules: the simulate pass takes its per-segment
// cores, crossbars and busiest-core wordlines from the placement rather than
// folding the schedule a second time, so on every compile-zoo cell the Report
// must still count, and charge to reprogram every segment after the first,
// what mapping.Occupancy derives from the final schedule.
func TestReportOccupancyIsTheSchedules(t *testing.T) {
	for _, preset := range arch.PresetNames() {
		a, err := Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(a, WithCache(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range compileGridModels {
			g, err := Model(model)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Compile(context.Background(), g)
			if err != nil {
				t.Fatalf("%s.%s: %v", model, preset, err)
			}
			s := res.Schedule
			cores, xbs, wordlines, err := mapping.Occupancy(context.Background(), s.Graph, s.Arch, res.Model.FPs, s.Dup, s.Remap, s.Segments)
			if err != nil {
				t.Fatalf("%s.%s: %v", model, preset, err)
			}
			wantCores, wantXBs, wantReload := 0, 0, 0.0
			for seg := range cores {
				wantCores, wantXBs = max(wantCores, cores[seg]), wantXBs+xbs[seg]
				if seg > 0 {
					wantReload += res.Model.Program(wordlines[seg])
				}
			}
			if res.Report.CoresUsed != wantCores || res.Report.XBsUsed != wantXBs {
				t.Errorf("%s.%s: report uses %d cores / %d crossbars, the schedule occupies %d / %d",
					model, preset, res.Report.CoresUsed, res.Report.XBsUsed, wantCores, wantXBs)
			}
			if res.Report.ReloadCycles != wantReload {
				t.Errorf("%s.%s: report reloads %v cycles, the schedule's segments write %v: %v", model, preset, res.Report.ReloadCycles, wordlines, wantReload)
			}
		}
	}
}

// dupPass rewrites the schedule after placement: it sets the first
// duplicated CIM node back to one copy, in place.
type dupPass struct{ node int }

func (*dupPass) Name() string              { return "undup" }
func (*dupPass) Applicable(arch.Mode) bool { return true }
func (p *dupPass) Run(_ context.Context, pc *PassContext) error {
	for _, id := range pc.Graph.CIMNodeIDs() {
		if pc.Schedule.DupOf(id) > 1 {
			pc.Schedule.Dup[id], p.node = 1, id
			return nil
		}
	}
	return fmt.Errorf("no duplicated CIM node")
}

// TestPassAfterPlacementGetsItsReport: a user pass after placement may change
// the schedule the placement was made from; the Report must then follow the
// changed schedule — its occupancy folded again — not the stale placement.
func TestPassAfterPlacementGetsItsReport(t *testing.T) {
	a, err := Preset("puma")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(a, WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	before, err := plain.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// The verifier would rightly flag the placement as drifted from the
	// schedule; this pipeline means to leave it so.
	p := &dupPass{}
	c, err := New(a, WithCache(0), WithPass(PassPlace, p), WithoutVerifyIR())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Holds(res.Schedule.Graph, res.Model.FPs, res.Schedule.Dup, res.Schedule.Remap, res.Schedule.Segments) {
		t.Fatal("the placement still holds the schedule the pass changed")
	}
	want, err := perfsim.SimulateWithModel(context.Background(), res.Schedule, res.Model, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report, want) {
		t.Fatalf("report after the pass uses %d cores / %d crossbars in %v cycles, the changed schedule %d / %d in %v",
			res.Report.CoresUsed, res.Report.XBsUsed, res.Report.Cycles, want.CoresUsed, want.XBsUsed, want.Cycles)
	}
	if res.Report.XBsUsed >= before.Report.XBsUsed {
		t.Fatalf("undoing node %d's copies left %d crossbars of %d", p.node, res.Report.XBsUsed, before.Report.XBsUsed)
	}
}

// overRemapPass raises the remap of the first CIM node already at its row
// groups one past them: a setting placement refuses, and one that clamping
// would turn back into the schedule the pipeline made.
type overRemapPass struct{}

func (overRemapPass) Name() string         { return "test-over-remap" }
func (overRemapPass) Applicable(Mode) bool { return true }
func (overRemapPass) Run(_ context.Context, pc *PassContext) error {
	for _, id := range pc.Graph.CIMNodeIDs() {
		if groups := pc.Model.FPs[id].RowGroups; pc.Schedule.RemapOf(id) == groups {
			pc.Schedule.SetRemap(id, groups+1)
			return nil
		}
	}
	return fmt.Errorf("no CIM node is remapped to its row groups")
}

// TestRemapBeyondRowGroupsFailsCompile: a remap past the row groups fails
// the compile whether the verifier runs (sched/remap-bounds after the pass)
// or not (placement refuses it); nothing downstream clamps it into a
// schedule that compiles.
func TestRemapBeyondRowGroupsFailsCompile(t *testing.T) {
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	// Every row of a crossbar activates at once: one row group a node.
	a.XB.ParallelRow = a.XB.Rows
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		verify Option
		want   string
	}{
		{WithVerifyIR(), "sched/remap-bounds"},
		{WithoutVerifyIR(), "row groups"},
	} {
		comp, err := New(a, WithCache(0), WithPass(PassVVM, overRemapPass{}), c.verify)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := comp.Compile(context.Background(), g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("compile with remap past the row groups: %v, want an error naming %q", err, c.want)
		}
	}
}

// dropNodePass removes one node from the schedule's segments, leaving a
// schedule that no longer covers the graph.
type dropNodePass struct{ node int }

func (dropNodePass) Name() string         { return "test-drop-node" }
func (dropNodePass) Applicable(Mode) bool { return true }
func (d dropNodePass) Run(_ context.Context, pc *PassContext) error {
	for i, seg := range pc.Schedule.Segments {
		var kept []int
		for _, id := range seg {
			if id != d.node {
				kept = append(kept, id)
			}
		}
		pc.Schedule.Segments[i] = kept
	}
	return nil
}

// TestUserPassScheduleIsChecked: a user pass's schedule is outside input,
// checked whether the verifier runs or not. Dropping conv-relu's ReLU after
// the VVM level or after placement fails the compile naming the node,
// instead of compiling to a Report that leaves the node out.
func TestUserPassScheduleIsChecked(t *testing.T) {
	a, err := Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	relu := -1
	for _, n := range g.Nodes {
		if n.Name == "relu_1" {
			relu = n.ID
		}
	}
	want := fmt.Sprintf("node %d (relu_1) not scheduled", relu)
	for _, anchor := range []string{PassVVM, PassPlace} {
		for _, verify := range []Option{WithVerifyIR(), WithoutVerifyIR()} {
			c, err := New(a, WithCache(0), WithPass(anchor, dropNodePass{relu}), verify)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Compile(context.Background(), g); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("after %s, verifier %t: compile returned %v, want an error naming %q", anchor, c.opt.VerifyIR, err, want)
			}
		}
	}
}

// TestBuiltinPassesLeaveTheGraph: no built-in pass writes the graph, which
// is what lets the verifier skip re-checking it after them. Every short-zoo
// cell, at every level and verified, compiles to a schedule over a graph
// equal to its input after shape inference; in a staged compile, each CIM
// subgraph equals the partitioner's cut of that input.
func TestBuiltinPassesLeaveTheGraph(t *testing.T) {
	models := append(append([]string{"conv-relu", "mlp", "lenet5"}, MixedModelNames()...), "vgg7", "vit-tiny")
	for _, model := range models {
		g, err := Model(model)
		if err != nil {
			t.Fatal(err)
		}
		inferred := g.Clone()
		if err := inferred.InferShapes(); err != nil {
			t.Fatal(err)
		}
		plan, err := partition.Partition(inferred, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, archName := range []string{"isaac-baseline", "puma", "toy-table2"} {
			a, err := Preset(archName)
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range []Mode{CM, XBM, WLM} {
				cell := fmt.Sprintf("%s.%s.%s", model, archName, level)
				c, err := New(a, WithCache(0), WithHostFallback(), WithMaxLevel(level), WithVerifyIR())
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Compile(context.Background(), g)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if res.Partition == nil {
					if !reflect.DeepEqual(res.Schedule.Graph, inferred) {
						t.Errorf("%s: the compiled graph differs from the inferred input", cell)
					}
					continue
				}
				for i, sub := range res.Partition.Subs {
					if sub.Res == nil {
						continue
					}
					want := plan.Subs[i].G.Clone()
					if err := want.InferShapes(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(sub.Res.Schedule.Graph, want) {
						t.Errorf("%s: compiled subgraph %d differs from the cut of the inferred input", cell, i)
					}
				}
			}
		}
	}
}

// TestCompileAllocs bounds the allocations of one Compile with the cache
// off, the benchmark's setting: the compiler copies the caller's graph in a
// constant number of allocations and infers its shapes into that copy, so a
// per-node copy creeping back (four allocations per node: 52 on lenet5, 736
// on vit-base) breaks the bound. The two vit cells are cut into 123 segments
// whose duplication searches share one set of tables per Compile, so an
// allocation per segment creeping back breaks their bounds too. Each bound
// is the reading (44, 47, 47) plus 4, so one more per-compile table breaks
// it. Allocation counts differ under -race.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, tc := range []struct {
		model, arch string
		max         float64
	}{
		{"lenet5", "puma", 48},
		{"vit-base", "toy-table2", 51},
		{"vit-tiny", "jain-jssc21", 51},
	} {
		g, err := Model(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Preset(tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(a, WithCache(0), WithoutVerifyIR())
		if err != nil {
			t.Fatal(err)
		}
		var cerr error
		n := testing.AllocsPerRun(10, func() { _, cerr = c.Compile(context.Background(), g) })
		if cerr != nil {
			t.Fatal(cerr)
		}
		t.Logf("%s.%s: %.0f allocations per Compile", tc.model, tc.arch, n)
		if n > tc.max {
			t.Errorf("%s.%s: %.0f allocations per Compile, want ≤ %.0f", tc.model, tc.arch, n, tc.max)
		}
	}
}
