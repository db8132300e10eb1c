package funcsim

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/core"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
	"cimmlc/internal/partition"
	"cimmlc/internal/tensor"
)

// laneCell is one (model, arch) point of the lane tests: the calibrated image
// (weights programmed unless oneShot), the compiled kernels, and seeded
// requests with their quantized reference (Image.Reference) answers.
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
		want, err := c.img.Reference(in)
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

// toyBits is the toy machine in mode m with the given weight and activation
// precisions; its 32 × 128 crossbars of 2-bit cells hold 128 / ceil(w/2)
// weight columns.
func toyBits(m arch.Mode, weightBits, actBits int) *arch.Arch {
	a := toyInMode(m)
	a.WeightBits, a.ActBits = weightBits, actBits
	return a
}

// TestLanesMatchQuantReference is the engine's lane-count invariance check:
// each cell runs as micro-batches of 1, 2, 3, 5 and 8 lanes — covering the
// four-lane block of the MVM kernel, the lone-lane loop and their
// combinations — on one recycled state, and every lane must reproduce the
// independent quantized reference exactly. The cells cover every way a read
// finds its weights — stationary (the image's arrays), body reprogramming (the
// state's private arrays), a body write extending an image tile
// (copy-on-write), nothing programmed at baseline — and all three word
// formats of the weight arrays, which each cell names per node with weights:
// 8-bit × 8-bit puts a small node's three columns to the word (conv-relu's
// conv, lenet5's conv1) and a larger one's two, 16-bit × 16-bit fails the
// packing bound (one column per word), 12-bit weights put 21 columns in a
// crossbar (a half-filled last word), 8-bit × 16-bit packs two with
// activations near the bound. Requests mix tensor shapes of one size.
func TestLanesMatchQuantReference(t *testing.T) {
	lenet5 := []int{3, 2, 2, 2, 2}
	cells := []struct {
		name        string
		g           *graph.Graph
		a           *arch.Arch
		programming int
		bodyWrites  bool
		per         []int // word format of each node with weights, in node order
	}{
		{name: "conv-relu.xbm", g: models.ConvReLU(), a: toyInMode(arch.XBM), per: []int{3}},
		{name: "conv-relu.wlm", g: models.ConvReLU(), a: toyInMode(arch.WLM), per: []int{3}},
		{name: "conv-relu.cm", g: models.ConvReLU(), a: toyInMode(arch.CM), per: []int{3}},
		{name: "mlp.xbm-reprogrammed", g: models.MLP(), a: toyInMode(arch.XBM), bodyWrites: true, per: []int{2, 2, 2}},
		{name: "lenet5.toy-table2-reprogrammed", g: models.LeNet5(), a: arch.ToyExample(), bodyWrites: true, per: lenet5},
		{name: "lenet5.isaac", g: models.LeNet5(), a: arch.ISAACBaseline(), per: lenet5},
		{name: "conv-relu.wlm-one-shot", g: models.ConvReLU(), a: toyInMode(arch.WLM), programming: oneShot, per: []int{3}},
		{name: "conv-relu.wlm-split-tile", g: models.ConvReLU(), a: toyInMode(arch.WLM), programming: splitTile, per: []int{3}},
		{name: "conv-relu.xbm-w16a16", g: models.ConvReLU(), a: toyBits(arch.XBM, 16, 16), per: []int{1}},
		{name: "conv-relu.wlm-w16a16", g: models.ConvReLU(), a: toyBits(arch.WLM, 16, 16), per: []int{1}},
		{name: "conv-relu.cm-w16a16", g: models.ConvReLU(), a: toyBits(arch.CM, 16, 16), per: []int{1}},
		{name: "conv-relu.xbm-w12a8", g: models.ConvReLU(), a: toyBits(arch.XBM, 12, 8), per: []int{2}},
		{name: "conv-relu.wlm-w12a8", g: models.ConvReLU(), a: toyBits(arch.WLM, 12, 8), per: []int{2}},
		{name: "conv-relu.cm-w12a8", g: models.ConvReLU(), a: toyBits(arch.CM, 12, 8), per: []int{2}},
		{name: "conv-relu.wlm-w12a8-split-tile", g: models.ConvReLU(), a: toyBits(arch.WLM, 12, 8), programming: splitTile, per: []int{2}},
		{name: "lenet5.wlm-w12a8-reprogrammed", g: models.LeNet5(), a: toyBits(arch.WLM, 12, 8), bodyWrites: true, per: []int{2, 2, 2, 2, 2}},
		{name: "conv-relu.xbm-w8a16", g: models.ConvReLU(), a: toyBits(arch.XBM, 8, 16), per: []int{2}},
		{name: "conv-relu.wlm-w8a16", g: models.ConvReLU(), a: toyBits(arch.WLM, 8, 16), per: []int{2}},
		{name: "conv-relu.cm-w8a16", g: models.ConvReLU(), a: toyBits(arch.CM, 8, 16), per: []int{2}},
	}
	for i, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneCell(t, tc.g, tc.a, uint64(41+i), 8, tc.programming)
			if got := bodyWrites(c.flow.Body) > 0; got != tc.bodyWrites {
				t.Fatalf("flow body reprograms crossbars: %v, cell expects %v", got, tc.bodyWrites)
			}
			if got := wordFormats(c.img); !slices.Equal(got, tc.per) {
				t.Fatalf("weight columns to the word, per node with weights: %v, cell expects %v", got, tc.per)
			}
			st := c.img.NewBatchState(1)
			for _, n := range []int{1, 2, 3, 5, 8} {
				c.run(t, st, n)
			}
		})
	}
}

// wordFormats lists the word format of every node with weights, in node order.
func wordFormats(img *Image) []int {
	var per []int
	for _, nq := range img.nodes {
		if nq.qw != nil {
			per = append(per, nq.per)
		}
	}
	return per
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
		// Addresses outside a lane: a kernel would index past its memory.
		mop.ReadXB{XB: 0, Src: 1 << 40, Dst: 0, DstStride: 1},
		mop.ReadXB{XB: 0, Src: 0, Dst: 1 << 40, DstStride: 1},
		mop.ReadXB{XB: 0, Src: 0, Dst: 0, DstStride: 1 << 40},
		mop.Mov{Src: 0, Dst: 1 << 40, Len: 4},
		mop.MovWindow{Node: 1, Window: 1 << 30, SrcBase: 0, Dst: 0},
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

// windowOps returns the operators of the w-th window of a flattened body:
// from its w-th mov_window up to the next one, or to the first operator that is
// neither a mov_window nor a crossbar read.
func windowOps(t *testing.T, ops []mop.Op, w int) []mop.Op {
	t.Helper()
	start := -1
	for i, op := range ops {
		switch op.(type) {
		case mop.MovWindow:
			if start >= 0 {
				return ops[start:i]
			}
			if w--; w < 0 {
				start = i
			}
		case mop.ReadXB, mop.ReadRow:
		default:
			if start >= 0 {
				return ops[start:i]
			}
		}
	}
	if start < 0 {
		t.Fatal("the body has no such window")
	}
	return ops[start:]
}

// TestReadsCheckCrossbarStateBeforeWriting: what a read can only know from
// the crossbar it finds — which node's region its columns must land in, how
// many wordlines it may activate — is checked by the kernel, and a failure is
// an error naming the operator, for a read inside a sweep the read's own, with
// nothing written: not by the windows ahead of it either.
func TestReadsCheckCrossbarStateBeforeWriting(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), toyInMode(arch.WLM), 48, 1, programmed)
	img := c.img
	rows := int(img.baseProg[0].Rows)
	// Six windows of the generated body, the last read of the fourth reaching
	// past what its crossbar holds.
	var sweep []mop.Op
	for w := 0; w < 6; w++ {
		sweep = append(sweep, windowOps(t, c.cf.ops, w)...)
	}
	k := 4*len(sweep)/6 - 1
	bad := sweep[k].(mop.ReadRow)
	bad.Row, bad.NumRows = rows-1, 2
	sweep[k] = bad
	for name, tc := range map[string]struct {
		body []mop.Op
		want string
	}{
		"columns-past-the-node's-region": {
			[]mop.Op{mop.ReadRow{XB: 0, Row: 0, NumRows: 1, Src: 0, Dst: img.lay.Region[1].End() - 1, DstStride: 1}},
			"op 0 (cim.readrow(xb=0, row=0",
		},
		"chain-member-past-the-programmed-rows": {
			[]mop.Op{
				mop.ReadRow{XB: 0, Row: 0, NumRows: 8, Src: 0, Dst: img.lay.Region[1].Base, DstStride: 1},
				mop.ReadRow{XB: 1, Row: rows - 1, NumRows: 2, Src: 8, Dst: img.lay.Region[1].Base, DstStride: 1, Acc: true},
			},
			fmt.Sprintf("op 1 (cim.readrow(xb=1, row=%d", rows-1),
		},
		"read-in-the-fourth-window-of-a-sweep": {sweep, fmt.Sprintf("op %d (%s)", k, bad)},
	} {
		cf, err := img.CompileBody(tc.body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cf.kernels) != 1 {
			t.Fatalf("%s: %d kernels, want the one sweep", name, len(cf.kernels))
		}
		// Every run starts from the baseline view, and every one fails alike:
		// a failed resolution publishes no plan.
		first := ""
		for run := 0; run < 3; run++ {
			st := img.NewBatchState(2)
			for w := range st.mem {
				st.mem[w] = int64(w%251) - 125
			}
			before := slices.Clone(st.mem)
			err = img.ExecBatch(st).RunBody(cf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, run %d: err = %v, want one containing %q", name, run, err, tc.want)
				break
			}
			if run == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s, run %d: err = %v, the first run's was %s", name, run, err, first)
			}
			if !slices.Equal(st.mem, before) {
				t.Errorf("%s, run %d: the failed kernel wrote to lane memory", name, run)
			}
		}
		if n := planCount(cf); n != 0 {
			t.Errorf("%s: a failed sweep published %d plans", name, n)
		}
	}
}

// kernelSizes counts cf's kernels by the number of operators each executes.
func kernelSizes(cf *CompiledFlow) map[int]int {
	n := map[int]int{}
	for i, first := range cf.first {
		end := len(cf.ops)
		if i+1 < len(cf.first) {
			end = cf.first[i+1]
		}
		n[end-first]++
	}
	return n
}

// everyLaneCount covers the four-stream pass, the lone stream and their
// combinations.
var everyLaneCount = []int{1, 2, 3, 5, 8}

// sweptMatchesApart runs whole and the same operators compiled one per flow —
// the no-knob oracle: a one-operator body cannot form a sweep — as micro-batches
// of the given lane counts and requires equal lane memory (scratch included)
// and equal quantization bookkeeping. prepare, when set, edits each state after
// the inputs are loaded.
func sweptMatchesApart(t *testing.T, c *laneCell, whole *CompiledFlow, prepare func(st *BatchState), laneCounts []int) {
	t.Helper()
	img := c.img
	apart := make([]*CompiledFlow, len(whole.ops))
	for i, op := range whole.ops {
		var err error
		if apart[i], err = img.CompileBody([]mop.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := img.NewBatchState(1), img.NewBatchState(1)
	for _, lanes := range laneCounts {
		img.ResetBatch(a, lanes)
		img.ResetBatch(b, lanes)
		ma, mb := img.ExecBatch(a), img.ExecBatch(b)
		for l := 0; l < lanes; l++ {
			if err := errors.Join(ma.LoadInputs(l, c.ins[l]), mb.LoadInputs(l, c.ins[l])); err != nil {
				t.Fatal(err)
			}
		}
		if prepare != nil {
			prepare(a)
			prepare(b)
		}
		if err := ma.RunBody(whole); err != nil {
			t.Fatal(err)
		}
		for _, cf := range apart {
			if err := mb.RunBody(cf); err != nil {
				t.Fatal(err)
			}
		}
		requireSameState(t, fmt.Sprintf("%d lanes: the body compiled whole and operator by operator", lanes), a, b)
	}
}

// requireSameState requires two states to hold equal lane memory, scratch
// included, and equal quantization bookkeeping; what names the two runs.
func requireSameState(t *testing.T, what string, a, b *BatchState) {
	t.Helper()
	if !slices.Equal(a.mem, b.mem) || !slices.Equal(a.regionScale, b.regionScale) || !slices.Equal(a.regionRaw, b.regionRaw) {
		for w := range min(len(a.mem), len(b.mem)) {
			if a.mem[w] != b.mem[w] {
				t.Fatalf("%s leave different states: lane %d word %d is %d, then %d",
					what, int64(w)/a.stride, int64(w)%a.stride, a.mem[w], b.mem[w])
			}
		}
		t.Fatalf("%s leave different region bookkeeping or lane counts", what)
	}
}

// stridedConv is a convolution whose windows step by two over a non-square
// input, so that its border windows, its window count (not a multiple of
// four) and its row pitch all differ from the zoo's.
func stridedConv(name string, h, w, pad int) *graph.Graph {
	return graph.NewBuilder(name, 2, h, w).Conv(5, 3, 2, pad).ReLU().MustFinish()
}

// cimStage returns the idx-th CIM subgraph of g as the partitioner cuts it for
// a: what a host-partitioned program runs on the accelerator.
func cimStage(t *testing.T, g *graph.Graph, idx int) *graph.Graph {
	t.Helper()
	plan, err := partition.Partition(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range plan.Subs {
		if sub.Target == graph.TargetCIM {
			if idx == 0 {
				return sub.G
			}
			idx--
		}
	}
	t.Fatalf("%s has no such CIM stage", g.Name)
	return nil
}

// TestChainsMatchOperatorByOperator: a body compiled whole — its runs of
// mov_windows and reads swept by one kernel each, windows four to a pass — leaves
// exactly the lane memory and quantization bookkeeping the same body leaves
// compiled one operator per flow (every operator a sweep of one; how the
// benchmark's traced replay runs it). The cells: the benchmark's six exec-*
// cells (conv-gate.puma as its two CIM stages), the serve-http pairs
// conv-relu.toy-table2 and mlp.isaac-baseline (whose dense windows interleave
// their column tiles' reads, eight wordlines at a time), windows over
// image-shared crossbars, over crossbars the body wrote, over scratch every
// window reuses,
// readcore windows, strided and padded convolutions whose window count is no
// multiple of four, and a hand-written pair whose second read streams in what
// the first produced and so must be a sweep of its own.
func TestChainsMatchOperatorByOperator(t *testing.T) {
	wlm := toyInMode(arch.WLM)
	for _, tc := range []struct {
		name    string
		g       func(t *testing.T) *graph.Graph
		a       *arch.Arch
		body    func(c *laneCell) []mop.Op // nil: the generated body
		kernels map[int]int                // kernels by operator count
	}{
		{name: "conv-relu.isaac-baseline", g: zoo(models.ConvReLU), a: arch.ISAACBaseline(), kernels: map[int]int{1: 1, 5120: 1}},
		{name: "lenet5.puma", g: zoo(models.LeNet5), a: arch.PUMAAccelerator(), kernels: map[int]int{1: 11, 3: 1, 16: 1, 300: 1, 1568: 1}},
		{name: "lenet5.toy-table2", g: zoo(models.LeNet5), a: arch.ToyExample(), kernels: map[int]int{1: 82, 4: 1, 6: 1, 8: 15, 300: 1, 900: 1, 2352: 1}},
		{name: "lenet5.jia-isscc21", g: zoo(models.LeNet5), a: arch.JiaAccelerator(), kernels: map[int]int{1: 10, 2: 1, 6: 1}},
		{name: "mlp.puma", g: zoo(models.MLP), a: arch.PUMAAccelerator(), kernels: map[int]int{1: 6, 8: 1, 56: 1}},
		{name: "conv-gate.puma.stage0", g: func(t *testing.T) *graph.Graph { return cimStage(t, models.ConvGate(), 0) }, a: arch.PUMAAccelerator(), kernels: map[int]int{1: 1, 512: 1}},
		{name: "conv-gate.puma.stage1", g: func(t *testing.T) *graph.Graph { return cimStage(t, models.ConvGate(), 1) }, a: arch.PUMAAccelerator(), kernels: map[int]int{1: 2, 32: 1}},
		{name: "conv-relu.toy-table2", g: zoo(models.ConvReLU), a: arch.ToyExample(), kernels: map[int]int{1: 1, 3072: 1}},
		{name: "mlp.isaac-baseline", g: zoo(models.MLP), a: arch.ISAACBaseline(), kernels: map[int]int{1: 5, 16: 1, 128: 1, 800: 1}},
		{name: "conv-s2p0.isaac-baseline", g: zoo(func() *graph.Graph { return stridedConv("conv-s2p0", 11, 13, 0) }), a: arch.ISAACBaseline()},
		{name: "conv-s2p2.isaac-baseline", g: zoo(func() *graph.Graph { return stridedConv("conv-s2p2", 11, 15, 2) }), a: arch.ISAACBaseline()},
		{name: "conv-s2p0.puma", g: zoo(func() *graph.Graph { return stridedConv("conv-s2p0", 11, 13, 0) }), a: arch.PUMAAccelerator()},
		{name: "conv-s2p2.toy-table2", g: zoo(func() *graph.Graph { return stridedConv("conv-s2p2", 11, 15, 2) }), a: arch.ToyExample()},
		{name: "conv-s2p2.jia-isscc21", g: zoo(func() *graph.Graph { return stridedConv("conv-s2p2", 11, 15, 2) }), a: arch.JiaAccelerator()},
		{name: "overlapping-pair", g: zoo(models.ConvReLU), a: wlm, kernels: map[int]int{1: 2}, body: func(c *laneCell) []mop.Op {
			d := c.img.lay.Region[1].Base // the conv's region: what both crossbars' columns may write
			return []mop.Op{
				mop.ReadRow{XB: 0, Row: 0, NumRows: 8, Src: 0, Dst: d, DstStride: 1},
				mop.ReadRow{XB: 0, Row: 8, NumRows: 8, Src: d, Dst: d, DstStride: 1, Acc: true},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneCell(t, tc.g(t), tc.a, 49, 8, programmed)
			whole := c.cf
			if tc.body != nil {
				var err error
				if whole, err = c.img.CompileBody(tc.body(c)); err != nil {
					t.Fatal(err)
				}
			}
			got := kernelSizes(whole)
			t.Logf("%d operators in %d kernels, by operator count: %v", len(whole.ops), len(whole.kernels), got)
			if tc.kernels != nil && !maps.Equal(got, tc.kernels) {
				t.Fatalf("kernels by operator count: %v, want %v", got, tc.kernels)
			}
			if tc.kernels == nil && len(whole.kernels) == len(whole.ops) {
				t.Fatal("no two operators share a kernel: nothing tested")
			}
			sweptMatchesApart(t, c, whole, nil, everyLaneCount)
		})
	}
}

// zoo adapts a model constructor to the cells' graph source.
func zoo(mk func() *graph.Graph) func(*testing.T) *graph.Graph {
	return func(*testing.T) *graph.Graph { return mk() }
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

// TestMaxPoolMatchesGenericPipeline holds the integer MaxPool kernel to the
// pipeline it specializes — dequantize the region, tensor.MaxPool2D, Quantize —
// level for level: windows of ties, all-negative windows, the quantizer's
// extremes and words beyond them, under the default and a foreign input scale,
// through the tabulated requantization (8-bit activations, 144 outputs) and the
// direct one (16-bit activations; a pool too small to pay for a table; 3 × 3
// windows that overlap) — and the one pool loop on every shape: odd heights and
// widths a 2 × 2 stride-2 pool floors, 3 × 3 windows at stride 1, non-square
// inputs.
func TestMaxPoolMatchesGenericPipeline(t *testing.T) {
	for _, tc := range []struct {
		name      string
		k, stride int
		a         *arch.Arch
		table     bool
		h, w      int // the pooled input's height and width (0: 12)
	}{
		{name: "tabulated", k: 2, stride: 2, a: toyBits(arch.XBM, 8, 8), table: true},
		{name: "direct-16-bit", k: 2, stride: 2, a: toyBits(arch.XBM, 8, 16)},
		{name: "direct-overlapping", k: 3, stride: 2, a: toyBits(arch.XBM, 8, 8)},
		{name: "odd-sizes-floor", k: 2, stride: 2, a: toyBits(arch.XBM, 8, 8), table: true, h: 13, w: 15},
		{name: "3x3-stride-1", k: 3, stride: 1, a: toyBits(arch.XBM, 8, 8), table: true, h: 9, w: 12},
		{name: "non-square-overlapping", k: 3, stride: 2, a: toyBits(arch.XBM, 8, 8), table: true, h: 11, w: 16},
		{name: "non-square-tall", k: 2, stride: 2, a: toyBits(arch.XBM, 8, 8), h: 14, w: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, w := cmp.Or(tc.h, 12), cmp.Or(tc.w, 12)
			g := graph.NewBuilder("pool", 2, h, w).Conv(4, 3, 1, 1).MaxPool(tc.k, tc.stride).MustFinish()
			c := newLaneCell(t, g, tc.a, 53, 3, programmed)
			img := c.img
			var pool mop.Dcom
			for _, op := range c.cf.ops {
				if d, ok := op.(mop.Dcom); ok && c.g.MustNode(d.Node).Op == graph.OpMaxPool {
					pool = d
				}
			}
			in, q := c.g.MustNode(pool.Node).Inputs[0], img.nodes[pool.Node].act
			maxIn := int64(img.nodes[in].act.MaxQ())
			if got := maxIn <= 1<<12 && pool.Len >= maxIn; got != tc.table {
				t.Fatalf("requantization tabulated: %v, the case expects %v", got, tc.table)
			}
			cf, err := img.CompileBody([]mop.Op{pool})
			if err != nil {
				t.Fatal(err)
			}
			levels := []int64{0, -1, 1, -maxIn, maxIn, -maxIn - 1, maxIn + 5, -3, -3, 7, 7, -100, 64}
			for _, scale := range []float64{0, 0.0371} { // 0: the input's calibrated scale
				st := img.NewBatchState(3)
				for l := 0; l < 3; l++ {
					region := st.lane(l)[img.lay.Region[in].Base:img.lay.Region[in].End()]
					for i := range region {
						switch l {
						case 0: // runs of equal levels: every window ties
							region[i] = levels[i/24%len(levels)]
						case 1: // all negative
							region[i] = -1 - int64(i*7%int(maxIn))
						default:
							region[i] = levels[(i*5+i/12)%len(levels)]
						}
					}
				}
				st.regionScale[in] = scale
				bm := img.ExecBatch(st)
				want := make([][]int32, 3)
				for l := range want {
					out, err := tensor.MaxPool2D(bm.regionTensor(l, in), tc.k, tc.stride)
					if err != nil {
						t.Fatal(err)
					}
					if want[l], err = tensor.Quantize(out, q); err != nil {
						t.Fatal(err)
					}
				}
				if err := bm.RunBody(cf); err != nil {
					t.Fatal(err)
				}
				for l := range want {
					for i, w := range want[l] {
						if got := st.lane(l)[pool.Dst+int64(i)]; got != int64(w) {
							t.Fatalf("input scale %v, lane %d, output %d: level %d, the generic pipeline's %d", scale, l, i, got, w)
						}
					}
				}
				if st.regionScale[pool.Node] != float64(q.Scale) || st.regionRaw[pool.Node] {
					t.Fatalf("the pool's region is left at scale %v, raw %v", st.regionScale[pool.Node], st.regionRaw[pool.Node])
				}
			}
		})
	}
}

// TestReLUSettlesRawInputInItsPass holds a ReLU over a raw accumulator region —
// which settles its input in its own pass — to settleNode followed by the
// generic compileDcom pipeline (dequantize, the graph's ReLU, Quantize): the
// ReLU's levels, the settled input it writes back, and both regions'
// bookkeeping. Settling itself is held to the documented rule, written out
// here: round half to even of accumulator × raw scale ÷ activation scale,
// clamped to ±MaxQ. The input's activation scale is a power of two, so the raw
// scales 1/2 and 3/2 of it put every odd accumulator on a .5 tie; the
// accumulators reach both clamps and far past them. 8-bit activations take the
// tabulated requantization, 16-bit ones the direct.
func TestReLUSettlesRawInputInItsPass(t *testing.T) {
	for _, a := range []*arch.Arch{toyBits(arch.XBM, 8, 8), toyBits(arch.XBM, 8, 16)} {
		t.Run(fmt.Sprintf("a%d", a.ActBits), func(t *testing.T) {
			g := graph.NewBuilder("relu", 2, 12, 12).Conv(4, 3, 1, 1).ReLU().MustFinish()
			c := newLaneCell(t, g, a, 58, 3, programmed)
			img := c.img
			var relu mop.Dcom
			for _, op := range c.cf.ops {
				if d, ok := op.(mop.Dcom); ok && c.g.MustNode(d.Node).Op == graph.OpReLU {
					relu = d
				}
			}
			n := c.g.MustNode(relu.Node)
			in := n.Inputs[0]
			qin := img.nodes[in].act
			qin.Scale = 0.25
			img.nodes[in].act = qin
			maxQ := int64(qin.MaxQ())
			cf, err := img.CompileBody([]mop.Op{relu})
			if err != nil {
				t.Fatal(err)
			}
			accs := []int64{0, 1, -1, 3, -3, 5, -5, 7, -7, 2*maxQ - 1, 2 * maxQ, 2*maxQ + 1, -2*maxQ + 1, -2 * maxQ, -2*maxQ - 1,
				3 * maxQ, -3 * maxQ, 1 << 40, -1 << 40, 12, -12}
			settle := func(v int64, raw float64) int64 {
				return max(min(int64(math.RoundToEven(float64(v)*raw/0.25)), maxQ), -maxQ)
			}
			for _, raw := range []float64{0.125, 0.375, 0.0371} {
				fused, apart := img.NewBatchState(3), img.NewBatchState(3)
				for _, st := range []*BatchState{fused, apart} {
					for l := 0; l < 3; l++ {
						region := st.lane(l)[img.lay.Region[in].Base:img.lay.Region[in].End()]
						for i := range region {
							region[i] = accs[(i*(l+1)+l)%len(accs)]
						}
					}
					st.regionScale[in], st.regionRaw[in] = raw, true
				}
				raws := slices.Clone(fused.mem)
				if err := img.ExecBatch(fused).RunBody(cf); err != nil {
					t.Fatal(err)
				}
				bm := img.ExecBatch(apart)
				bm.settleNode(in)
				for l := 0; l < 3; l++ {
					lane, settled := apart.lane(l), raws[int64(l)*apart.stride:]
					for i := img.lay.Region[in].Base; i < img.lay.Region[in].End(); i++ {
						if want := settle(settled[i], raw); lane[i] != want {
							t.Fatalf("raw scale %v, lane %d: settleNode leaves %d for accumulator %d, the rule %d", raw, l, lane[i], settled[i], want)
						}
					}
					out, err := n.Kernel([]*tensor.Tensor{bm.regionTensor(l, in)}, nil)
					if err != nil {
						t.Fatal(err)
					}
					qv, err := tensor.Quantize(out, img.nodes[relu.Node].act)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range qv {
						lane[relu.Dst+int64(i)] = int64(v)
					}
				}
				apart.regionScale[relu.Node], apart.regionRaw[relu.Node] = float64(img.nodes[relu.Node].act.Scale), false
				requireSameState(t, fmt.Sprintf("raw scale %v: the fused ReLU and settleNode + the generic pipeline", raw), fused, apart)
			}
		})
	}
}

// TestSettlerSaturatesPastInt64 holds settling to its clamp where the level
// leaves int64's range: saturation happens in float, so a level past ±2⁶³
// settles to the clamp of its own sign, not to whatever the platform's
// out-of-range conversion yields (MinInt64 on amd64, hence −MaxQ for both).
func TestSettlerSaturatesPastInt64(t *testing.T) {
	s := settler{raw: 1e-6, scale: float64(math.SmallestNonzeroFloat32), maxQ: 127}
	for _, tc := range []struct{ v, want int64 }{
		{1 << 20, 127},
		{-1 << 20, -127},
		{math.MaxInt64, 127},
		{math.MinInt64, -127},
		{0, 0},
	} {
		if got := s.level(tc.v); got != tc.want {
			t.Errorf("level(%d) at raw %g / scale %g = %d, want %d", tc.v, s.raw, s.scale, got, tc.want)
		}
	}
	in := settler{raw: 0.375, scale: 0.25, maxQ: 127}
	for v, want := range map[int64]int64{1: 2, 3: 4, -3: -4, 84: 126, 85: 127, 86: 127, -85: -127, -1 << 40: -127} {
		if got := in.level(v); got != want {
			t.Errorf("level(%d) at raw 0.375 / scale 0.25 = %d, want %d", v, got, want)
		}
	}
}
