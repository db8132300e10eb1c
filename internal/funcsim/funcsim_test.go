package funcsim

import (
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/core"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// endToEnd compiles g onto a, generates the full flow, executes it on an
// image calibrated on the input (init section included), and verifies
// bit-exactness against the quantized reference plus closeness to the float
// reference.
func endToEnd(t *testing.T, g *graph.Graph, a *arch.Arch, input *tensor.Tensor, tol float64) {
	t.Helper()
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.RandomWeights(g, 11)
	inputs := map[int]*tensor.Tensor{g.InputIDs()[0]: input}
	img, err := NewImage(g, a, gen.Layout, w, inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := img.Reference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.ProgramInit(gen.Flow.Init); err != nil {
		t.Fatal(err)
	}
	m := img.Exec(img.NewState())
	if err := m.LoadInputs(inputs); err != nil {
		t.Fatal(err)
	}
	if err := m.RunBody(gen.Flow); err != nil {
		t.Fatal(err)
	}
	m.SettleAll()
	ref, err := graph.Execute(g, w, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckOutputs(g, m.TensorsOf(nodeIDs(g)), want, ref, tol); err != nil {
		t.Fatal(err)
	}
}

// nodeIDs lists every node of g, in node order.
func nodeIDs(g *graph.Graph) []int {
	ids := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		ids[i] = n.ID
	}
	return ids
}

func toyInMode(m arch.Mode) *arch.Arch {
	a := arch.ToyExample()
	a.Mode = m
	return a
}

func TestConvReluCMFlowExact(t *testing.T) {
	in := tensor.New(3, 32, 32)
	in.Rand(21, 1)
	endToEnd(t, models.ConvReLU(), toyInMode(arch.CM), in, 0.05)
}

func TestConvReluXBMFlowExact(t *testing.T) {
	in := tensor.New(3, 32, 32)
	in.Rand(22, 1)
	endToEnd(t, models.ConvReLU(), toyInMode(arch.XBM), in, 0.05)
}

func TestConvReluWLMFlowExact(t *testing.T) {
	in := tensor.New(3, 32, 32)
	in.Rand(23, 1)
	endToEnd(t, models.ConvReLU(), toyInMode(arch.WLM), in, 0.05)
}

func TestMLPFlowExact(t *testing.T) {
	// The MLP exercises vector Dense layers and multi-round placement on
	// the tiny toy machine (784×256 weights vastly exceed 4 crossbars).
	in := tensor.New(784)
	in.Rand(24, 1)
	endToEnd(t, models.MLP(), toyInMode(arch.XBM), in, 0.08)
}

func TestLeNetXBMFlowExact(t *testing.T) {
	in := tensor.New(1, 28, 28)
	in.Rand(25, 1)
	a := arch.ISAACBaseline()
	a.Mode = arch.XBM
	endToEnd(t, models.LeNet5(), a, in, 0.15)
}

func TestLeNetWLMFlowExact(t *testing.T) {
	in := tensor.New(1, 28, 28)
	in.Rand(26, 1)
	endToEnd(t, models.LeNet5(), arch.ISAACBaseline(), in, 0.15)
}

func TestResidualGraphFlowExact(t *testing.T) {
	// Residual adds with a projection shortcut exercise multi-consumer
	// regions and the Add DCOM.
	b := graph.NewBuilder("mini-res", 4, 8, 8)
	b.Conv(4, 3, 1, 1).ReLU()
	from := b.Last
	b.Conv(4, 3, 1, 1).ReLU().Conv(4, 3, 1, 1)
	b.AddFrom(from)
	b.ReLU().GlobalAvgPool().Dense(10)
	g := b.MustFinish()
	in := tensor.New(4, 8, 8)
	in.Rand(27, 1)
	endToEnd(t, g, arch.ISAACBaseline(), in, 0.12)
}

func TestOneBitCellArchitecture(t *testing.T) {
	// Jain-style 1-bit SRAM cells: 8 slices per weight.
	in := tensor.New(3, 32, 32)
	in.Rand(28, 1)
	a := arch.JainAccelerator()
	endToEnd(t, models.ConvReLU(), a, in, 0.05)
}

func TestCMWholeModel(t *testing.T) {
	in := tensor.New(1, 28, 28)
	in.Rand(29, 1)
	a := arch.JiaAccelerator() // CM mode, big SRAM macros
	endToEnd(t, models.LeNet5(), a, in, 0.15)
}

func TestQuantReferenceCloseToFloat(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.RandomWeights(g, 31)
	in := tensor.New(3, 32, 32)
	in.Rand(32, 1)
	inputs := map[int]*tensor.Tensor{0: in}
	img, err := NewImage(g, a, gen.Layout, w, inputs)
	if err != nil {
		t.Fatal(err)
	}
	qref, err := img.Reference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.Execute(g, w, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		scale := maxAbs(ref[id])
		d, _ := tensor.MaxAbsDiff(qref[id], ref[id])
		if d > 0.05*scale {
			t.Fatalf("node %d: quantized reference off by %g (max %g)", id, d, scale)
		}
	}
}

func TestMachineRejectsBadOps(t *testing.T) {
	g := models.ConvReLU()
	a := toyInMode(arch.XBM)
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.RandomWeights(g, 34)
	in := tensor.New(3, 32, 32)
	img, err := NewImage(g, a, gen.Layout, w, map[int]*tensor.Tensor{0: in})
	if err != nil {
		t.Fatal(err)
	}
	m := img.Exec(img.NewState())
	// Reading an unprogrammed crossbar must fail.
	unprogrammed := &mop.Flow{
		Mode: "WLM", Graph: g.Name, Arch: a.Name,
		Body: []mop.Op{mop.ReadRow{XB: 3, Row: 0, NumRows: 1, Src: 0, Dst: 0, DstStride: 1}},
	}
	if err := m.RunBody(unprogrammed); err == nil {
		t.Fatal("read of unprogrammed crossbar accepted")
	}
	// Activating more rows than parallel_row must fail.
	wide := &mop.Flow{
		Mode: "WLM", Graph: g.Name, Arch: a.Name,
		Body: []mop.Op{mop.ReadRow{XB: 0, Row: 0, NumRows: a.XB.ParallelRow + 1, Src: 0, Dst: 0, DstStride: 1}},
	}
	if err := m.RunBody(wide); err == nil {
		t.Fatal("over-wide readrow accepted")
	}
	// A mov_window on a non-conv node must fail.
	badWin := &mop.Flow{
		Mode: "WLM", Graph: g.Name, Arch: a.Name,
		Body: []mop.Op{mop.MovWindow{Node: 2, Window: 0, SrcBase: 0, Dst: 0}},
	}
	if err := m.RunBody(badWin); err == nil {
		t.Fatal("mov_window on relu accepted")
	}
}
