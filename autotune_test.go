package cimmlc

import (
	"context"
	"testing"
)

// TestWithAutoTunePublicAPI exercises the autotuner through the public
// Compiler: tuning record present, never-worse latency, and artifact-cache
// reuse keyed by the budget.
func TestWithAutoTunePublicAPI(t *testing.T) {
	ctx := context.Background()
	g, err := Model("mlp")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	a.Mode = WLM

	plain, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	href, err := plain.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if href.Tuning != nil {
		t.Error("untuned compilation carries a tuning record")
	}

	tuned, err := New(a, WithAutoTune(Budget{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuned.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tuning
	if st == nil {
		t.Fatal("tuned compilation has no tuning record")
	}
	if st.HeuristicCycles != href.Report.Cycles {
		t.Errorf("tuning record heuristic cycles %v != untuned compile %v", st.HeuristicCycles, href.Report.Cycles)
	}
	if res.Report.Cycles > href.Report.Cycles {
		t.Errorf("tuned latency %v exceeds heuristic %v", res.Report.Cycles, href.Report.Cycles)
	}
	if res.Report.Cycles != st.TunedCycles {
		t.Errorf("final report %v != tuning record %v", res.Report.Cycles, st.TunedCycles)
	}

	// Memoized: the second compile of the same graph is a cache hit
	// returning the same result.
	res2, err := tuned.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Error("tuned recompile missed the artifact cache")
	}
	if s := tuned.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 hit / 1 miss", s)
	}

	// Same budget in a fresh compiler reproduces the same schedule;
	// Workers never changes the outcome or the cache key.
	again, err := New(a, WithAutoTune(Budget{Workers: 7}))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := again.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Schedule.Fingerprint() != res.Schedule.Fingerprint() {
		t.Errorf("same-budget recompile chose schedule %s, want %s", res3.Schedule.Fingerprint(), res.Schedule.Fingerprint())
	}
}

// TestAutoTuneRespectsDisabledOptimizations checks the tuner never
// re-enables a technique the user explicitly turned off: with remapping
// disabled no tuned schedule may remap, and with pipelining disabled the
// pipeline stays off.
func TestAutoTuneRespectsDisabledOptimizations(t *testing.T) {
	ctx := context.Background()
	g, err := Model("mlp")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	a.Mode = WLM

	noRemap, err := New(a, WithoutRemap(), WithAutoTune(Budget{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := noRemap.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range res.Schedule.Remap {
		if m > 1 {
			t.Errorf("WithoutRemap but tuned schedule remaps node %d by %d (moves: %v)", id, m, res.Tuning.Moves)
		}
	}

	noPipe, err := New(a, WithoutPipeline(), WithAutoTune(Budget{}))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := noPipe.Compile(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Schedule.Pipeline {
		t.Errorf("WithoutPipeline but tuned schedule pipelines (moves: %v)", res2.Tuning.Moves)
	}
}

// TestAutoTuneProgramStats checks Build on a tuned compiler surfaces the
// tuning record through ProgramStats and preserves output verification.
func TestAutoTuneProgramStats(t *testing.T) {
	ctx := context.Background()
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a, WithAutoTune(Budget{MaxCandidates: 16}))
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 1)
	in := map[int]*Tensor{}
	for _, id := range g.InputIDs() {
		tns := NewTensor(g.MustNode(id).OutShape...)
		tns.Rand(7, 1)
		in[id] = tns
	}
	p, err := c.Build(ctx, g, w, CodegenOptions{}, WithCalibration(in))
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Tuning == nil {
		t.Fatal("tuned program reports no tuning record")
	}
	if st.Tuning.TunedCycles > st.Tuning.HeuristicCycles {
		t.Errorf("tuned %v > heuristic %v", st.Tuning.TunedCycles, st.Tuning.HeuristicCycles)
	}
	if err := p.Verify(ctx, in, 0.05); err != nil {
		t.Errorf("tuned program fails verification: %v", err)
	}
}

// TestTunedExtentsRunTheirRounds: on the compile-zoo grid, tuned at the
// default budget, every placed extent runs exactly the rounds its footprint
// counts, the rounds the cost model and the simulator charge. A copy that
// wrapped over what earlier nodes of its segment left would run more rounds
// than priced: placement refuses it, so the tuner cannot gain by it.
func TestTunedExtentsRunTheirRounds(t *testing.T) {
	ctx := context.Background()
	extents, wrapped := 0, 0
	for _, preset := range []string{"isaac-baseline", "jain-jssc21", "jia-isscc21", "puma", "toy-table2"} {
		a, err := Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(a, WithAutoTune(Budget{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"} {
			g, err := Model(model)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Compile(ctx, g)
			if err != nil {
				t.Fatalf("%s.%s: %v", model, preset, err)
			}
			for _, e := range res.Placement.Extents {
				f := &res.Model.FPs[e.Node]
				slots := (e.Dup-1)*e.Stride + f.CopyTiles(a, e.Remap)
				if rounds := (slots + e.Window - 1) / e.Window; rounds != f.Rounds {
					t.Errorf("%s.%s node %d: dup %d remap %d from core %d runs %d rounds over a window of %d, its footprint counts %d",
						model, preset, e.Node, e.Dup, e.Remap, e.FirstCore, rounds, e.Window, f.Rounds)
				}
				if f.Rounds > 1 {
					wrapped++
				}
				extents++
			}
		}
	}
	t.Logf("%d extents, %d of oversized operators", extents, wrapped)
}
