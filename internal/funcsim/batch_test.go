package funcsim

import (
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

// laneCell is one (model, arch) point of the lane tests: the calibrated image
// (weights programmed unless oneShot), the compiled kernels, and seeded
// requests with their QuantReferenceCalib answers.
type laneCell struct {
	g    *graph.Graph
	img  *Image
	flow *mop.Flow
	cf   *CompiledFlow
	ins  []map[int]*tensor.Tensor
	want []map[int]*tensor.Tensor
}

// seededInputs builds n deterministic requests for g's input nodes. Odd
// requests carry their data flattened to one dimension: a lane is addressed
// by element count, so differently shaped tensors of one size may share a
// micro-batch.
func seededInputs(g *graph.Graph, n int, seed uint64) []map[int]*tensor.Tensor {
	ins := make([]map[int]*tensor.Tensor, n)
	for l := range ins {
		in := map[int]*tensor.Tensor{}
		for _, id := range g.InputIDs() {
			shape := g.MustNode(id).OutShape
			if l%2 == 1 {
				shape = []int{int(graph.NumElements(shape))}
			}
			t := tensor.New(shape...)
			t.Rand(seed+uint64(31*l+id), 1)
			in[id] = t
		}
		ins[l] = in
	}
	return ins
}

// How a lane cell divides weight programming between the image and the body.
const (
	programmed = iota // the flow as generated: init into the image
	oneShot           // nothing at baseline: init and body compile into one section
	splitTile         // the first init writerow's lower half moves into the body
)

// splitFirstWriteRow halves the first multi-row writerow of init and returns
// init with only its upper rows plus the lower rows as a body prefix: the
// body then extends a tile that still aliases the image (copy-on-write).
func splitFirstWriteRow(t *testing.T, init []mop.Op) (newInit []mop.Op, bodyPrefix mop.Op) {
	t.Helper()
	for i, op := range init {
		w, ok := op.(mop.WriteRow)
		if !ok || w.NumRows < 2 {
			continue
		}
		top, low := w, w
		top.NumRows = w.NumRows / 2
		low.Row, low.CellRowOff, low.NumRows = w.Row+top.NumRows, w.CellRowOff+top.NumRows, w.NumRows-top.NumRows
		newInit = append(append(append([]mop.Op(nil), init[:i]...), top), init[i+1:]...)
		return newInit, low
	}
	t.Fatal("init section has no multi-row writerow to split")
	return nil, nil
}

// newLaneCell compiles g onto a, calibrates on request 0 of nreq seeded
// requests and answers each with the quantized reference.
func newLaneCell(t *testing.T, g *graph.Graph, a *arch.Arch, seed uint64, nreq int, programming int) *laneCell {
	t.Helper()
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.RandomWeights(g, seed)
	c := &laneCell{g: g, flow: gen.Flow, ins: seededInputs(g, nreq, seed*1000)}
	calib := c.ins[0]
	if c.img, err = NewImage(g, a, gen.Layout, w, calib); err != nil {
		t.Fatal(err)
	}
	init, section := gen.Flow.Init, gen.Flow.Body
	switch programming {
	case oneShot:
		init, section = nil, append(append([]mop.Op(nil), init...), section...)
	case splitTile:
		var low mop.Op
		init, low = splitFirstWriteRow(t, init)
		section = append([]mop.Op{low}, section...)
	}
	if err := c.img.ProgramInit(init); err != nil {
		t.Fatal(err)
	}
	if c.cf, err = c.img.CompileBody(section); err != nil {
		t.Fatal(err)
	}
	for _, in := range c.ins {
		want, err := QuantReferenceCalib(g, a, w, calib, in)
		if err != nil {
			t.Fatal(err)
		}
		c.want = append(c.want, want)
	}
	return c
}

// run pushes the first n requests through the compiled kernels as one
// micro-batch on st and requires every lane's every node to equal the
// quantized reference bit for bit.
func (c *laneCell) run(t *testing.T, st *BatchState, n int) {
	t.Helper()
	c.img.ResetBatch(st, n)
	bm := c.img.ExecBatch(st)
	for l := 0; l < n; l++ {
		if err := bm.LoadInputs(l, c.ins[l]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bm.RunBody(c.cf); err != nil {
		t.Fatal(err)
	}
	bm.SettleAll()
	for l := 0; l < n; l++ {
		for _, node := range c.g.Nodes {
			got := bm.regionTensor(l, node.ID)
			if !tensor.AllClose(got, c.want[l][node.ID], 0) {
				d, _ := tensor.MaxAbsDiff(got, c.want[l][node.ID])
				t.Fatalf("%d lanes, lane %d node %d (%s): diverges from quantized reference by %g", n, l, node.ID, node.Op, d)
			}
		}
	}
}

// bodyWrites counts the weight-programming operators in a flow's compute
// section (multi-round flows reprogram crossbars per request).
func bodyWrites(ops []mop.Op) int {
	n := 0
	for _, op := range ops {
		switch o := op.(type) {
		case mop.Parallel:
			n += bodyWrites(o.Body)
		case mop.WriteXB, mop.WriteRow:
			n++
		}
	}
	return n
}

// TestLanesMatchQuantReference is the engine's lane-count invariance check:
// each cell runs as micro-batches of 1, 2, 3, 5 and 8 lanes — covering the
// 4-wide, 2-wide and single-lane blocks of the MVM kernels and their
// combinations — on one recycled state, and every lane must reproduce the
// independent quantized reference exactly. The cells sit on both sides of the
// read selection: stationary weights (transposed tiles cut from the image),
// body reprogramming (private row-major weights), a body write extending an
// image tile (copy-on-write), and nothing programmed at baseline. Requests
// mix tensor shapes of one size.
func TestLanesMatchQuantReference(t *testing.T) {
	cells := []struct {
		name        string
		g           *graph.Graph
		a           *arch.Arch
		programming int
		bodyWrites  bool
	}{
		{name: "conv-relu.xbm", g: models.ConvReLU(), a: toyInMode(arch.XBM)},
		{name: "conv-relu.wlm", g: models.ConvReLU(), a: toyInMode(arch.WLM)},
		{name: "conv-relu.cm", g: models.ConvReLU(), a: toyInMode(arch.CM)},
		{name: "mlp.xbm-reprogrammed", g: models.MLP(), a: toyInMode(arch.XBM), bodyWrites: true},
		{name: "lenet5.toy-table2-reprogrammed", g: models.LeNet5(), a: arch.ToyExample(), bodyWrites: true},
		{name: "lenet5.isaac", g: models.LeNet5(), a: arch.ISAACBaseline()},
		{name: "conv-relu.wlm-one-shot", g: models.ConvReLU(), a: toyInMode(arch.WLM), programming: oneShot},
		{name: "conv-relu.wlm-split-tile", g: models.ConvReLU(), a: toyInMode(arch.WLM), programming: splitTile},
	}
	for i, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneCell(t, tc.g, tc.a, uint64(41+i), 8, tc.programming)
			if got := bodyWrites(c.flow.Body) > 0; got != tc.bodyWrites {
				t.Fatalf("flow body reprograms crossbars: %v, cell expects %v", got, tc.bodyWrites)
			}
			st := c.img.NewBatchState(1)
			for _, n := range []int{1, 2, 3, 5, 8} {
				c.run(t, st, n)
			}
		})
	}
}

func TestBatchStateReuseAcrossLaneCounts(t *testing.T) {
	// A pooled BatchState must produce identical results when reset to a
	// smaller and then a larger lane count: ResetBatch has to clear stale
	// activation words and re-point the crossbar view at the image, and a
	// reprogramming body must not see the previous micro-batch's private
	// crossbar arrays.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		a    *arch.Arch
	}{
		{"stationary", models.ConvReLU(), toyInMode(arch.XBM)},
		{"reprogrammed", models.LeNet5(), arch.ToyExample()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneCell(t, tc.g, tc.a, 44, 5, programmed)
			st := c.img.NewBatchState(3)
			for _, n := range []int{3, 2, 5, 1} {
				c.run(t, st, n)
			}
		})
	}
}

func TestCompileBodyRejectsBadOps(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), toyInMode(arch.XBM), 45, 1, programmed)
	a := c.img.a
	for _, op := range []mop.Op{
		// A mov_window on a non-conv node must be rejected at compile time,
		// not at execution time.
		mop.MovWindow{Node: 2, Window: 0, SrcBase: 0, Dst: 0},
		mop.ReadRow{XB: 0, Row: 0, NumRows: a.XB.ParallelRow + 1, Src: 0, Dst: 0, DstStride: 1},
		mop.ReadXB{XB: a.TotalCrossbars(), Src: 0, Dst: 0, DstStride: 1},
		// Write tiles are sliced at compile time, so their geometry is too.
		mop.WriteXB{XB: 0, Node: 1, Rows: a.XB.Rows + 1, Cols: a.CellsPerWeight()},
		mop.WriteXB{XB: 0, Node: 1, Rows: 1, Cols: a.CellsPerWeight() + 1},
		mop.WriteXB{XB: 0, Node: 1, CellRowOff: 1 << 20, Rows: 1, Cols: a.CellsPerWeight()},
		mop.WriteXB{XB: 0, Node: 2, Rows: 1, Cols: a.CellsPerWeight()},
	} {
		if _, err := c.img.CompileBody([]mop.Op{op}); err == nil {
			t.Errorf("CompileBody accepted %s", op)
		}
	}
	// Running a CompiledFlow built from a different image must be refused.
	c2 := newLaneCell(t, models.ConvReLU(), toyInMode(arch.XBM), 46, 1, programmed)
	if err := c.img.ExecBatch(c.img.NewBatchState(1)).RunBody(c2.cf); err == nil {
		t.Fatal("RunBody accepted kernels compiled for a different image")
	}
}

// TestLoadInputsRejectsMalformedRequests pins the one load path's request
// check: every graph input exactly once, non-nil, of the region's size.
func TestLoadInputsRejectsMalformedRequests(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), toyInMode(arch.XBM), 47, 1, programmed)
	good := c.ins[0][0]
	bm := c.img.ExecBatch(c.img.NewBatchState(1))
	for name, tc := range map[string]struct {
		req  map[int]*tensor.Tensor
		want string
	}{
		"missing":     {map[int]*tensor.Tensor{}, "no input tensor provided for node 0"},
		"nil":         {map[int]*tensor.Tensor{0: nil}, "input tensor for node 0 is nil"},
		"unknown":     {map[int]*tensor.Tensor{0: good, 99: good}, "unknown node 99"},
		"not-input":   {map[int]*tensor.Tensor{0: good, 2: good}, "unknown node 2"},
		"wrong-count": {map[int]*tensor.Tensor{0: tensor.New(2, 2)}, "node 0 has 4 elements"},
	} {
		err := bm.LoadInputs(0, tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
	if err := bm.LoadInputs(1, c.ins[0]); err == nil {
		t.Error("LoadInputs accepted a lane beyond the batch")
	}
}
