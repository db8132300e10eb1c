package funcsim

import (
	"fmt"
	"strings"
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
	if err := checkOutputs(g, m.TensorsOf(nodeIDs(g)), want, ref, tol); err != nil {
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

// TestNewImageRejectsStrayWeights: a weight keyed by no node of the graph —
// past its last node or negative — is refused, naming the lowest such key,
// and so is one on a node without a weight matrix.
func TestNewImageRejectsStrayWeights(t *testing.T) {
	g := models.MLP()
	a := arch.PUMAAccelerator()
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(g.MustNode(g.InputIDs()[0]).OutShape...)
	in.Rand(5, 1)
	calib := map[int]*tensor.Tensor{g.InputIDs()[0]: in}
	relu := g.MustNode(2)
	if relu.Op != graph.OpReLU {
		t.Fatalf("node 2 is %s, want the ReLU", relu.Op)
	}
	for _, tc := range []struct {
		stray []int
		want  string
	}{
		{[]int{len(g.Nodes) + 5, len(g.Nodes) + 7, len(g.Nodes)}, fmt.Sprintf("weights for node %d, which graph", len(g.Nodes))},
		{[]int{len(g.Nodes), -3}, "weights for node -3, which graph"},
		{[]int{relu.ID}, "has no weight matrix"},
	} {
		w := graph.RandomWeights(g, 3)
		for _, id := range tc.stray {
			w[id] = tensor.New(4)
		}
		if _, err := NewImage(g, a, gen.Layout, w, calib); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("stray weights %v: %v, want %q", tc.stray, err, tc.want)
		}
	}
}

// checkOutputs verifies per-node flow outputs: got must match the quantized
// reference want bit-exactly (CheckExact) and stay within floatTol of the
// float reference ref, relative to each node output's max magnitude.
func checkOutputs(g *graph.Graph, got, want, ref map[int]*tensor.Tensor, floatTol float64) error {
	if err := CheckExact(g, got, want); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		scale := maxAbs(ref[n.ID])
		if scale == 0 {
			scale = 1
		}
		d, err := tensor.MaxAbsDiff(got[n.ID], ref[n.ID])
		if err != nil {
			return fmt.Errorf("funcsim: node %d: %w", n.ID, err)
		}
		if d > floatTol*scale {
			return fmt.Errorf("funcsim: node %d (%s %s): quantization error %g exceeds %g of max magnitude %g", n.ID, n.Name, n.Op, d, floatTol, scale)
		}
	}
	return nil
}

func maxAbs(t *tensor.Tensor) float64 {
	m := 0.0
	for _, v := range t.Data() {
		a := float64(v)
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}
