package cimmlc

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"cimmlc/internal/graph"
)

// buildCell returns what one Build of model for the preset archName takes,
// set up the way the benchmark's exec-* workloads do: cache off, host
// fallback, default calibration.
func buildCell(tb testing.TB, model, archName string) (*Compiler, *Graph, Weights) {
	tb.Helper()
	g, err := Model(model)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := Preset(archName)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(a, WithCache(0), WithHostFallback(), WithoutVerifyIR())
	if err != nil {
		tb.Fatal(err)
	}
	return c, g, RandomWeights(g, 42)
}

// measureHeap runs f and returns what it left resident (HeapAlloc delta after
// two collections; the caller keeps f's result alive) and what it allocated
// on the way (TotalAlloc delta), both in MB.
func measureHeap(f func()) (residentMB, allocMB float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	const mb = 1 << 20
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / mb, float64(after.TotalAlloc-before.TotalAlloc) / mb
}

// measureBuild runs one Build and returns the program with what the Build
// left resident and what it allocated on the way, both in MB.
func measureBuild(tb testing.TB, c *Compiler, g *Graph, w Weights) (p *Program, residentMB, allocMB float64) {
	tb.Helper()
	residentMB, allocMB = measureHeap(func() {
		var err error
		if p, err = c.Build(context.Background(), g, w, CodegenOptions{}); err != nil {
			tb.Fatal(err)
		}
	})
	return p, residentMB, allocMB
}

// programmed sums funcsim.Image.Programmed over p's CIM stages: the crossbars
// the program's images hold programmed, and the distinct contents among them.
func programmed(p *Program) (crossbars, distinct int) {
	for _, st := range p.stages {
		if st.img != nil {
			c, d := st.img.Programmed()
			crossbars, distinct = crossbars+c, distinct+d
		}
	}
	return crossbars, distinct
}

// TestBuildFootprint pins what makes a Program cheap to keep: Build programs
// each distinct tile once, so what stays resident follows the model's
// weights, not duplication × tiles, and a programmed crossbar keeps its weight
// array alone, two weight columns to the 64-bit word — a resident weight costs
// 4 B. conv-relu on isaac-baseline programs 2 048 crossbars with two distinct
// contents, lenet5 on puma 264 with 23 and conv-gate on puma 288 with 33 — a
// crossbar of these with arrays of its own reads an order of magnitude over
// the bounds — and mlp on puma 65, all distinct. Each bound leaves about
// 20 % over the measured size (1.9 / 0.88 / 1.85 / 0.83 MB). A second
// per-weight copy, the sliced cell bytes included (1.25 / 2.9 / 1.36 MB on
// lenet5 / mlp / conv-gate while crossbars kept them), reads over the puma
// bounds; conv-relu's two distinct crossbars make such a copy small there
// (2.2 MB), so its bound catches only lost sharing.
func TestBuildFootprint(t *testing.T) {
	for _, tc := range []struct {
		model, arch           string
		maxResident, maxAlloc float64 // MB
	}{
		{"conv-relu", "isaac-baseline", 2.3, 8},
		{"lenet5", "puma", 1.1, 3.5},
		{"mlp", "puma", 2.3, 8},
		{"conv-gate", "puma", 1.05, 3.5},
	} {
		c, g, w := buildCell(t, tc.model, tc.arch)
		p, resident, alloc := measureBuild(t, c, g, w)
		crossbars, distinct := programmed(p)
		t.Logf("%s on %s: %.1f MB resident, %.1f MB allocated, %d crossbars programmed with %d distinct contents",
			tc.model, tc.arch, resident, alloc, crossbars, distinct)
		if resident > tc.maxResident || alloc > tc.maxAlloc {
			t.Errorf("Build of %s on %s left %.1f MB resident (limit %.1f) and allocated %.1f MB (limit %.1f)",
				tc.model, tc.arch, resident, tc.maxResident, alloc, tc.maxAlloc)
		}
	}
}

// TestCompileFootprint bounds what one Compile allocates and what its Result
// keeps. A placement is its extents — a few words per CIM node — so neither
// follows the crossbars the schedule occupies: vgg16 on toy-table2 places
// 135 200 tiles, and a Compile that materializes them allocates two orders of
// magnitude over these bounds and pins 18 MB in every cached Result.
func TestCompileFootprint(t *testing.T) {
	for _, tc := range []struct {
		model, arch           string
		maxResident, maxAlloc float64 // MB
	}{
		{"vgg16", "toy-table2", 1, 2},
		{"vit-base", "isaac-baseline", 1, 10},
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
		var res *Result
		resident, alloc := measureHeap(func() {
			var err error
			if res, err = c.Compile(context.Background(), g); err != nil {
				t.Fatal(err)
			}
		})
		runtime.KeepAlive(res)
		t.Logf("%s on %s: Result keeps %.2f MB, Compile allocated %.2f MB", tc.model, tc.arch, resident, alloc)
		if resident > tc.maxResident || alloc > tc.maxAlloc {
			t.Errorf("Compile of %s on %s: Result keeps %.2f MB (limit %.0f), %.2f MB allocated (limit %.0f)",
				tc.model, tc.arch, resident, tc.maxResident, alloc, tc.maxAlloc)
		}
	}
}

// TestCompileHugeGrid: a core budget far beyond what any model can use costs
// the duplication search nothing. The table's width is capped where its rows
// stop changing, so lenet5 on a 2^20 × 2^20 grid compiles in well under a
// megabyte; a table as wide as the budget would be ops × (2^40 + 1) words, an
// out-of-memory crash no recover can catch.
func TestCompileHugeGrid(t *testing.T) {
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	a = a.Clone()
	a.Name = "isaac-huge"
	a.Chip.CoreRows, a.Chip.CoreCols = 1<<20, 1<<20
	c, err := New(a, WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	resident, alloc := measureHeap(func() {
		var err error
		if res, err = c.Compile(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(res)
	t.Logf("lenet5 on %d cores: Result keeps %.3f MB, Compile allocated %.3f MB", a.Chip.CoreCount(), resident, alloc)
	if resident > 1 || alloc > 1 {
		t.Errorf("Compile on a 2^20 × 2^20 grid kept %.3f MB and allocated %.3f MB, want ≤ 1 each", resident, alloc)
	}
}

// TestBuildHugeGrid: what Build keeps per crossbar — the image's baseline
// records and arrays, the flow verifier's records — is sized by the crossbars
// the placement uses, not by the chip. On TestCompileHugeGrid's 2^20 × 2^20
// isaac grid (2^44 crossbars) lenet5 takes a few hundred, so its Build stays
// within a few megabytes and runs like the same Build on the stock chip; a
// table per chip crossbar would be an out-of-memory crash.
func TestBuildHugeGrid(t *testing.T) {
	g, err := Model("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	stock, err := Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	a := stock.Clone()
	a.Name = "isaac-huge"
	a.Chip.CoreRows, a.Chip.CoreCols = 1<<20, 1<<20
	c, err := New(a, WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 1)
	p, resident, alloc := measureBuild(t, c, g, w)
	runtime.KeepAlive(p)
	t.Logf("lenet5 on %d crossbars: Program keeps %.3f MB, Build allocated %.3f MB", a.TotalCrossbars(), resident, alloc)
	if resident > 8 || alloc > 64 {
		t.Errorf("Build on a 2^20 × 2^20 grid kept %.3f MB and allocated %.3f MB, want ≤ 8 and ≤ 64", resident, alloc)
	}
	sc, err := New(stock, WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sc.Build(context.Background(), g, w, CodegenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := mixedTestInput(g, 2)
	got, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for id, tw := range want {
		if !slices.Equal(got[id].Data(), tw.Data()) {
			t.Errorf("output %d differs from the stock chip's", id)
		}
	}
}

// BenchmarkBuild is Compiler.Build on the benchmark's six exec-* cells: with
// -benchmem it reports the bytes and allocations of one Build, resident_MB is
// what the Program keeps afterwards, and xbs / distinct_xbs are the crossbars
// it programs and the distinct contents among them — the repetition the
// footprint depends on.
func BenchmarkBuild(b *testing.B) {
	for _, cell := range [][2]string{
		{"conv-relu", "isaac-baseline"},
		{"lenet5", "puma"},
		{"lenet5", "jia-isscc21"},
		{"mlp", "puma"},
		{"lenet5", "toy-table2"},
		{"conv-gate", "puma"},
	} {
		b.Run(cell[0]+"."+cell[1], func(b *testing.B) {
			c, g, w := buildCell(b, cell[0], cell[1])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Build(context.Background(), g, w, CodegenOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			p, resident, _ := measureBuild(b, c, g, w)
			crossbars, distinct := programmed(p)
			b.ReportMetric(resident, "resident_MB")
			b.ReportMetric(float64(crossbars), "xbs")
			b.ReportMetric(float64(distinct), "distinct_xbs")
		})
	}
}

// TestBuildReadsTheCompiledGraphs: each graph's shapes are inferred once, by
// whoever makes it — the compile its private copy of the caller's graph, the
// partitioner each subgraph — and every layer after that reads those graphs.
// A monolithic Build's plan and stage image hold the Result's schedule graph;
// a staged Build's CIM images and host programs hold their subgraphs' graphs.
// The caller's graph, its non-input shapes left uninferred so an inference
// into it would show, encodes to the same bytes after Compile, Lower,
// Analyze, Build and Verify.
func TestBuildReadsTheCompiledGraphs(t *testing.T) {
	ctx := context.Background()
	for _, cell := range [][2]string{{"lenet5", "puma"}, {"conv-gate", "puma"}} {
		name := cell[0] + "." + cell[1]
		a, err := Preset(cell[1])
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(a, WithHostFallback())
		if err != nil {
			t.Fatal(err)
		}
		g, err := Model(cell[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			if n.Op != graph.OpInput {
				n.OutShape = nil
			}
		}
		before, err := EncodeGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Compile(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partition == nil {
			if _, err := c.Lower(ctx, g, res, CodegenOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Analyze(ctx, g, res, CodegenOptions{}); err != nil {
			t.Fatal(err)
		}
		p, err := c.Build(ctx, g, RandomWeights(g, 1), CodegenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(ctx, seededRequest(p, 1), 0.5); err != nil {
			t.Fatal(err)
		}

		if info := res.Partition; info == nil {
			want := res.Schedule.Graph
			if st := p.stages[0]; p.g != want || st.sub.G != want || st.img.Graph() != want {
				t.Errorf("%s: the program's graph, its stage's and its image's are not the Result's schedule graph", name)
			}
		} else {
			if p.g != info.Plan.Graph {
				t.Errorf("%s: the program's graph is not the plan's", name)
			}
			for i, st := range p.stages {
				sub := info.Plan.Subs[i]
				switch {
				case st.sub != sub:
					t.Errorf("%s stage %d: not the plan's subgraph %d", name, i, i)
				case st.img != nil && (st.img.Graph() != sub.G || info.Subs[i].Res.Schedule.Graph != sub.G):
					t.Errorf("%s stage %d: the image or the schedule holds another graph than the subgraph's", name, i)
				// hostexec.Program keeps its graph unexported; reading a
				// pointer field through reflect is allowed.
				case st.host != nil && reflect.ValueOf(st.host).Elem().FieldByName("g").Pointer() != uintptr(unsafe.Pointer(sub.G)):
					t.Errorf("%s stage %d: the host program holds another graph than the subgraph's", name, i)
				}
			}
		}
		after, err := EncodeGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: the caller's graph changed", name)
		}
	}
}
