package cimmlc

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/core"
	"cimmlc/internal/cost"
	"cimmlc/internal/experiments"
	"cimmlc/internal/models"
)

// One benchmark per paper table/figure: each iteration regenerates the
// experiment end-to-end (compilations + simulations) and reports the key
// metric of that experiment via b.ReportMetric, so `go test -bench=.` both
// regenerates the evaluation and tracks compiler performance.

func benchExperiment(b *testing.B, id string, metric func(*experiments.Table) (float64, string)) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if metric != nil && last != nil {
		v, unit := metric(last)
		b.ReportMetric(v, unit)
	}
}

func lastValue(t *experiments.Table) (float64, string) {
	r := t.Rows[len(t.Rows)-1]
	return r.Values[0], "x"
}

func BenchmarkTable1Generality(b *testing.B) {
	benchExperiment(b, "table1", nil)
}

func BenchmarkFig16Codegen(b *testing.B) {
	benchExperiment(b, "fig16", nil)
}

func BenchmarkFig20aJia(b *testing.B) {
	benchExperiment(b, "fig20a", func(t *experiments.Table) (float64, string) {
		return t.Rows[2].Values[0], "speedup_pd"
	})
}

func BenchmarkFig20bPUMA(b *testing.B) {
	benchExperiment(b, "fig20b", func(t *experiments.Table) (float64, string) {
		return t.Rows[1].Values[0], "norm_peak_power"
	})
}

func BenchmarkFig20cJain(b *testing.B) {
	benchExperiment(b, "fig20c", func(t *experiments.Table) (float64, string) {
		return t.Rows[3].Values[0], "speedup_full"
	})
}

func BenchmarkFig20dPolySchedule(b *testing.B) {
	benchExperiment(b, "fig20d", func(t *experiments.Table) (float64, string) {
		return t.Rows[1].Values[0] / t.Rows[2].Values[0], "speedup_vs_poly"
	})
}

func BenchmarkFig21aCG(b *testing.B) {
	benchExperiment(b, "fig21a", func(t *experiments.Table) (float64, string) {
		return t.Rows[0].Values[2], "resnet18_pd"
	})
}

func BenchmarkFig21bMVM(b *testing.B) {
	benchExperiment(b, "fig21b", func(t *experiments.Table) (float64, string) {
		return t.Rows[2].Values[0], "resnet50_mvm"
	})
}

func BenchmarkFig21cVVM(b *testing.B) {
	benchExperiment(b, "fig21c", func(t *experiments.Table) (float64, string) {
		return t.Rows[2].Values[0], "resnet50_vvm"
	})
}

func BenchmarkFig21dPeakPower(b *testing.B) {
	benchExperiment(b, "fig21d", func(t *experiments.Table) (float64, string) {
		return t.Rows[0].Values[0], "resnet18_cg_power"
	})
}

func BenchmarkFig22aCoreSweep(b *testing.B) {
	benchExperiment(b, "fig22a", lastValue)
}

func BenchmarkFig22bXBSweep(b *testing.B) {
	benchExperiment(b, "fig22b", lastValue)
}

func BenchmarkFig22cXBSize(b *testing.B) {
	benchExperiment(b, "fig22c", lastValue)
}

func BenchmarkFig22dParallelRow(b *testing.B) {
	benchExperiment(b, "fig22d", lastValue)
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationAllocator compares the paper's DP duplication search with
// the water-filling bottleneck balancer on ResNet18.
func BenchmarkAblationAllocator(b *testing.B) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	for _, alloc := range []cg.Allocator{cg.AllocDP, cg.AllocWaterfill} {
		b.Run(string(alloc), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(g, a, core.Options{MaxLevel: arch.CM, Allocator: alloc})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Report.Cycles
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkAblationSegmentation compares the pop-last refinement against the
// plain greedy prefix cut on VGG16/Jia (a heavily segmented case).
func BenchmarkAblationSegmentation(b *testing.B) {
	g := models.VGG16()
	a := arch.JiaAccelerator()
	m, err := cost.New(g, a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy-prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cg.Optimize(context.Background(), g, a, m, cg.Options{Pipeline: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pop-refined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cg.Optimize(context.Background(), g, a, m, cg.Options{Pipeline: true, Duplicate: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Serving benchmarks: the compile-once / run-many Program against the
// deprecated Lower+Run-per-request path, on the §3.4 toy machine. The
// per-request gap is the point of the Program API — the old path re-lowers
// the flow, re-quantizes and re-programs every crossbar, and re-runs the
// float reference for calibration on every single inference.

// BenchmarkProgramRun measures the per-request cost after Build: pooled
// execution state, compute section only.
func BenchmarkProgramRun(b *testing.B) {
	ctx := context.Background()
	_, _, _, inputs, p := buildToyProgram(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramRunBatch measures batched fan-out throughput per request.
func BenchmarkProgramRunBatch(b *testing.B) {
	ctx := context.Background()
	_, _, _, inputs, p := buildToyProgram(b)
	const batch = 16
	reqs := make([]map[int]*Tensor, batch)
	for i := range reqs {
		reqs[i] = inputs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if _, err := p.RunBatch(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramRunBatchSizes sweeps the batch width on a single worker:
// ns/op is per-request cost. The toy program's 68 736-word lanes hold a
// micro-batch to the lane cap's floor of two, so a wider batch runs as
// two-lane items one after another. Distinct inputs defeat any memoization
// and match the serving mix.
func BenchmarkProgramRunBatchSizes(b *testing.B) {
	ctx := context.Background()
	_, _, _, _, p := buildToyProgram(b, WithWorkers(1))
	for _, batch := range []int{1, 2, 4, 8, 16} {
		reqs := make([]map[int]*Tensor, batch)
		for i := range reqs {
			in := NewTensor(3, 32, 32)
			in.Rand(uint64(4000+i), 1)
			reqs[i] = map[int]*Tensor{0: in}
		}
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i += batch {
				if _, err := p.RunBatch(ctx, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// bodySize sums funcsim.CompiledFlow.Size over p's CIM stages: the kernels a
// request executes and the windows their sweeps walk.
func bodySize(p *Program) (kernels, windows int) {
	for _, st := range p.stages {
		if st.body != nil {
			_, k, w := st.body.Size()
			kernels, windows = kernels+k, windows+w
		}
	}
	return kernels, windows
}

// BenchmarkExecCells is per-request execution on the committed benchmark's
// exec-* cells — the five monolithic ones and the host-partitioned
// conv-gate.puma — so kernel work is measured where the bench measures it:
// `go test -run '^$' -bench ExecCells -cpu 1`. run is Program.Run of one
// request; batch64 is RunBatch of 64 on one worker, pool64 the same on a
// Program with the default workers (GOMAXPROCS, so -cpu sets them), ns/op per
// request. The requests are distinct and seeded. kernels/op is how many
// kernel closures a request runs through: a window sweep is one, however many
// windows it walks. items/op is the work items pool64 cuts each RunBatch into.
// verify is Program.Verify of one request on the one-worker Program: the run,
// the quantized reference of every CIM stage and the float reference.
func BenchmarkExecCells(b *testing.B) {
	ctx := context.Background()
	const batch = 64
	for _, cell := range [][2]string{
		{"conv-relu", "isaac-baseline"},
		{"lenet5", "puma"},
		{"lenet5", "jia-isscc21"},
		{"mlp", "puma"},
		{"lenet5", "toy-table2"},
		{"conv-gate", "puma"},
	} {
		c, g, w := buildCell(b, cell[0], cell[1])
		p, err := c.Build(ctx, g, w, CodegenOptions{}, WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		pool, err := c.Build(ctx, g, w, CodegenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]map[int]*Tensor, batch)
		for i := range reqs {
			reqs[i] = seededRequest(p, uint64(5000+100*i))
		}
		kernels, _ := bodySize(p)
		b.Run(cell[0]+"."+cell[1]+"/run", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(ctx, reqs[i%batch]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(kernels), "kernels/op")
		})
		b.Run(cell[0]+"."+cell[1]+"/batch64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += batch {
				if _, err := p.RunBatch(ctx, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cell[0]+"."+cell[1]+"/pool64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += batch {
				if _, err := pool.RunBatch(ctx, reqs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(max(1, len(pool.batchCuts(batch, min(runtime.GOMAXPROCS(0), batch)))-1)), "items/op")
		})
		b.Run(cell[0]+"."+cell[1]+"/verify", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.Verify(ctx, reqs[i%batch], 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep is the compiled body alone — no load, settle or extract — on
// the two cells whose requests are mostly window sweeps, as a micro-batch of
// one lane and of eight: ns/window is the body's time per window per lane
// (conv-relu: 1 024 windows of 27 × 32, three weight columns to the word, so
// 11 words of 27 wordlines each, then a ReLU; lenet5: 784 of 25 × 6, also
// three to the word, and 100 of 150 × 16, two to the word, the digital layers
// and three dense reads).
func BenchmarkSweep(b *testing.B) {
	ctx := context.Background()
	for _, cell := range [][2]string{{"conv-relu", "isaac-baseline"}, {"lenet5", "puma"}} {
		c, g, w := buildCell(b, cell[0], cell[1])
		p, err := c.Build(ctx, g, w, CodegenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		st := p.stages[0]
		_, windows := bodySize(p)
		for _, lanes := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s.%s/lanes%d", cell[0], cell[1], lanes), func(b *testing.B) {
				bs := st.img.NewBatchState(lanes)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					st.img.ResetBatch(bs, lanes)
					bm := st.img.ExecBatch(bs)
					for l := 0; l < lanes; l++ {
						if err := bm.LoadInputs(l, seededRequest(p, uint64(7000+l))); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if err := bm.RunBody(st.body); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes*windows), "ns/window")
			})
		}
	}
}

// BenchmarkLowerRunPerRequest measures what a Program amortizes: a Build per
// request (the compilation itself is cached; lowering, calibration and weight
// programming are not), then one Run.
func BenchmarkLowerRunPerRequest(b *testing.B) {
	ctx := context.Background()
	c, g, w, inputs, _ := buildToyProgram(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := c.Build(ctx, g, w, CodegenOptions{}, WithCalibration(inputs))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(ctx, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoTune measures one full autotune compilation (heuristics +
// search) under the default budget, reporting the achieved speedup.
func BenchmarkAutoTune(b *testing.B) {
	g, err := models.Build("lenet5")
	if err != nil {
		b.Fatal(err)
	}
	a := arch.ToyExample()
	var speedup float64
	for i := 0; i < b.N; i++ {
		c, err := New(a, WithCache(0), WithAutoTune(Budget{}))
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Compile(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Tuning.Speedup()
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkCompileThroughput measures raw compiler throughput per cell, the
// end-to-end cost a user pays, in time and (with -benchmem) bytes per
// compile. Beside the four isaac-baseline models it holds the cells a profile
// of the zoo singled out: vgg16.toy-table2 places the most tiles (135 200),
// vit-base, resnet50 and vgg16 on isaac-baseline run the longest duplication
// searches, and resnet152.isaac-baseline is the cell the benchmark's grid
// leaves out for its compile time.
func BenchmarkCompileThroughput(b *testing.B) {
	for _, cell := range [][2]string{
		{"lenet5", "isaac-baseline"},
		{"resnet18", "isaac-baseline"},
		{"vgg7", "isaac-baseline"},
		{"vit-tiny", "isaac-baseline"},
		{"vgg16", "toy-table2"},
		{"vit-base", "isaac-baseline"},
		{"resnet50", "isaac-baseline"},
		{"vgg16", "isaac-baseline"},
		{"resnet152", "isaac-baseline"},
	} {
		g, err := models.Build(cell[0])
		if err != nil {
			b.Fatal(err)
		}
		a, err := arch.Preset(cell[1])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cell[0]+"."+cell[1], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(g, a, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
