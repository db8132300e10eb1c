package codegen_test

import (
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/core"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
)

func compileAndGenerate(t *testing.T, g *graph.Graph, a *arch.Arch, opt codegen.Options) *codegen.Result {
	t.Helper()
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Flow.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

func toyInMode(m arch.Mode) *arch.Arch {
	a := arch.ToyExample()
	a.Mode = m
	return a
}

// Figure 16(c): the CM flow is a parallel pair of cim.readcore operators
// splitting the feature map, followed by the Relu DCOM.
func TestCMFlowMatchesFigure16c(t *testing.T) {
	g := models.ConvReLU()
	out := compileAndGenerate(t, g, toyInMode(arch.CM), codegen.Options{})
	text := out.Flow.Print()
	if !strings.Contains(text, "cim.readcore") {
		t.Fatalf("CM flow missing readcore:\n%s", text)
	}
	if !strings.Contains(text, "parallel {") {
		t.Fatalf("CM flow missing parallel block:\n%s", text)
	}
	if !strings.Contains(text, "relu(") {
		t.Fatalf("CM flow missing relu:\n%s", text)
	}
	// Two copies → two readcores, splitting 1024 windows into 512+512.
	var cores []mop.ReadCore
	for _, op := range out.Flow.Body {
		if p, ok := op.(mop.Parallel); ok {
			for _, inner := range p.Body {
				if rc, ok := inner.(mop.ReadCore); ok {
					cores = append(cores, rc)
				}
			}
		}
	}
	if len(cores) != 2 {
		t.Fatalf("readcores = %d, want 2", len(cores))
	}
	if cores[0].WinCount != 512 || cores[1].WinCount != 512 {
		t.Fatalf("window split %d/%d, want 512/512", cores[0].WinCount, cores[1].WinCount)
	}
	if cores[0].Core == cores[1].Core {
		t.Fatal("both copies assigned the same core")
	}
	if len(out.Flow.Init) != 0 {
		t.Fatal("CM flows must not program crossbars explicitly")
	}
}

// Figure 16(d): the XBM flow programs crossbars in the init section and
// activates them with cim.readxb per window.
func TestXBMFlowMatchesFigure16d(t *testing.T) {
	g := models.ConvReLU()
	out := compileAndGenerate(t, g, toyInMode(arch.XBM), codegen.Options{})
	st := out.Flow.Stats()
	// MVM duplication is 4 (§3.4): four crossbars programmed at init.
	writes := 0
	for _, op := range out.Flow.Init {
		if _, ok := op.(mop.WriteXB); ok {
			writes++
		}
	}
	if writes != 4 {
		t.Fatalf("init writexb = %d, want 4", writes)
	}
	// 1024 windows, one readxb each (single-tile copies).
	if st.DMOVOps < 1024 {
		t.Fatalf("DMOV ops = %d, want ≥1024 window gathers", st.DMOVOps)
	}
	text := out.Flow.Print()
	if !strings.Contains(text, "cim.readxb") || !strings.Contains(text, "cim.writexb") {
		t.Fatal("XBM flow missing crossbar meta-operators")
	}
	if strings.Contains(text, "cim.readrow") {
		t.Fatal("XBM flow must not use wordline meta-operators")
	}
}

// Figure 16(e): the WLM flow uses cim.writerow / cim.readrow and activates
// at most parallel_row wordlines per operator.
func TestWLMFlowMatchesFigure16e(t *testing.T) {
	g := models.ConvReLU()
	out := compileAndGenerate(t, g, toyInMode(arch.WLM), codegen.Options{})
	text := out.Flow.Print()
	if !strings.Contains(text, "cim.readrow") || !strings.Contains(text, "cim.writerow") {
		t.Fatalf("WLM flow missing wordline meta-operators:\n%s", text[:min(len(text), 2000)])
	}
	a := toyInMode(arch.WLM)
	var walk func(ops []mop.Op)
	walk = func(ops []mop.Op) {
		for _, op := range ops {
			switch o := op.(type) {
			case mop.Parallel:
				walk(o.Body)
			case mop.ReadRow:
				if o.NumRows > a.XB.ParallelRow {
					t.Fatalf("readrow activates %d rows > parallel_row %d", o.NumRows, a.XB.ParallelRow)
				}
			}
		}
	}
	walk(out.Flow.Body)
}

func TestLayoutDisjointRegions(t *testing.T) {
	g := models.LeNet5()
	out := compileAndGenerate(t, g, toyInMode(arch.XBM), codegen.Options{MaxWindowsPerOp: 2})
	lay := out.Layout
	spans := lay.Region
	for i := range spans {
		for j := range spans {
			if i == j {
				continue
			}
			a, b := spans[i], spans[j]
			if a.Base < b.End() && b.Base < a.End() {
				t.Fatalf("overlapping regions %+v and %+v", a, b)
			}
		}
	}
	if lay.Total <= 0 {
		t.Fatal("empty layout")
	}
}

func TestTruncationFlag(t *testing.T) {
	g := models.ConvReLU()
	full := compileAndGenerate(t, g, toyInMode(arch.XBM), codegen.Options{})
	capped := compileAndGenerate(t, g, toyInMode(arch.XBM), codegen.Options{MaxWindowsPerOp: 4})
	if full.Truncated {
		t.Fatal("full emission marked truncated")
	}
	if !capped.Truncated {
		t.Fatal("capped emission not marked truncated")
	}
	if capped.Flow.Stats().TotalLeaf >= full.Flow.Stats().TotalLeaf {
		t.Fatal("cap did not reduce the flow")
	}
}

func TestFlowRoundTripsThroughParser(t *testing.T) {
	g := models.ConvReLU()
	out := compileAndGenerate(t, g, toyInMode(arch.WLM), codegen.Options{MaxWindowsPerOp: 3})
	text := out.Flow.Print()
	back, err := mop.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Print() != text {
		t.Fatal("generated flow does not round-trip")
	}
}

func TestDigitalLowerings(t *testing.T) {
	// A graph touching every digital op must lower without error.
	b := graph.NewBuilder("alltypes", 4, 8, 8)
	b.Conv(4, 3, 1, 1).ReLU().MaxPool(2, 2).Conv(8, 3, 1, 1)
	conv2 := b.Last
	b.AddFrom(conv2) // trivially valid add (x+x)
	b.Last = b.G.AddNode("avgpool", graph.OpAvgPool, []int{b.Last}, graph.Attr{KernelH: 2, KernelW: 2, Stride: 2}, nil)
	b.GlobalAvgPool()
	g := b.MustFinish()
	a := arch.ISAACBaseline()
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, codegen.Options{MaxWindowsPerOp: 1})
	if err != nil {
		t.Fatal(err)
	}
	text := out.Flow.Print()
	for _, fn := range []string{"relu(", "maxpool(", "add(", "avgpool(", "gap("} {
		if !strings.Contains(text, fn) {
			t.Errorf("missing digital lowering %q", fn)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
