package funcsim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// This file is the execution engine, the only place meta-operator arithmetic
// lives. An Image compiles a flow section into kernel closures (CompileBody)
// and a BatchState carries a micro-batch of n >= 1 requests through them: its
// buffer memory has a leading lane dimension, one lane per request. A
// kernel streams every lane — and, in a window sweep (sweep.go), every window
// that multiplies the same weight words — through one pass over those
// weights, the amortization stationary weights exist for: per-MOP dispatch,
// address→node resolution and window gather geometry are paid when the flow
// is compiled; crossbar resolution once per compiled flow for the runs that
// start from the image's baseline view (every request: a reset restores it),
// and once per micro-batch for any other; requantization tables and
// quantization-domain bookkeeping once per micro-batch. A single request is
// the one-lane micro-batch.
//
// The bookkeeping that can be shared is shared because it is lane-invariant:
// every lane runs the same flow against the same image, so region scales,
// raw/settled flags and the crossbar view (weights are a function of the
// image, never of activations) evolve identically across lanes. Only the
// activation words differ per lane, and lane arithmetic does not depend on
// the lane count (same quantizers, same clamping, same float32 rounding; only
// the exact integer accumulation order inside one MVM may differ), so a
// request's output is bit-identical whichever micro-batch carries it.

// CompiledFlow is a flow section compiled against one Image: the flattened
// operator list as specialized kernel closures, with static operands
// (addresses, shapes, node regions, dispatch, window geometry) resolved at
// compile time. A write, a mov and a dcom are a kernel each; a run of
// mov_windows and crossbar reads executes as one, the window sweep
// (sweep.go). A CompiledFlow is immutable but for its sweeps' published plans
// — each written once, atomically, and the same whichever run writes it — and
// safe for concurrent use; each execution supplies its own BatchState.
type CompiledFlow struct {
	img     *Image
	kernels []kernel
	first   []int    // kernels[i] executes ops from first[i] up to the next kernel's
	ops     []mop.Op // flattened, parallel groups inlined; for error text

	// wins, chains and members back every sweep's windows, their accumulation
	// chains and the chains' reads.
	wins    []sweepWin
	chains  []sweepChain
	members []xbRead
	// writeTiles interns the tiles write ops program, so the copies and rounds
	// a body rewrites share one: its quantized weights in the layout reads
	// consume (mvm.go), column-major in its node's word format, Rows words per
	// run.
	writeTiles map[codegen.Tile][]int64
	// geos and matrices hold, by node ID, the window gather geometry and — for
	// a node a readcore names — the weight matrix in the layout reads consume,
	// each built on first use.
	geos     []*winGeometry
	matrices []*nodeMatrix
	// plans holds, per sweep, its resolution against the view a run that
	// starts from the image's baseline finds there, once a run has published
	// it (sweep.resolution).
	sweeps int
	plans  []atomic.Pointer[resolution]
}

type kernel func(bm *BatchMachine) error

// Size reports how many leaf operators the section holds, how many kernels
// execute them, and how many windows its sweeps walk per request.
func (cf *CompiledFlow) Size() (operators, kernels, windows int) {
	return len(cf.ops), len(cf.kernels), len(cf.wins)
}

// opError is a failure of a kernel that executes several operators,
// attributed to the one off places after the kernel's first.
type opError struct {
	off int
	err error
}

func (e opError) Error() string { return e.err.Error() }
func (e opError) Unwrap() error { return e.err }

// BatchState is the mutable residue of one micro-batch: per-lane activation
// memory (lane-major: lane l owns words [l·stride, (l+1)·stride)), plus the
// lane-invariant crossbar view and quantization-domain bookkeeping shared by
// every lane. A BatchState is owned by one execution at a time and is
// recycled with Image.ResetBatch.
type BatchState struct {
	img    *Image // the image the crossbar view was built from
	lanes  int
	stride int64
	mem    []int64 // lanes × stride, lane-major

	// Crossbar view, shared across lanes (weights never depend on lane
	// data), indexed by chip-global crossbar ID: the weight array reads
	// multiply (Image.baseWeights' layout) and what the crossbar holds. A
	// weight array aliases the image's (shared) until a write kernel copies it
	// into the state's own, so reprogramming in multi-round flows never writes
	// through to the image; a read takes whichever array the view points at.
	// dirty lists the crossbars made private since the last reset — all a
	// reset against the same image has to restore.
	weights    [][]int64
	shared     []bool
	prog       []xbProg
	dirty      []int
	ownWeights [][]int64 // private arrays, allocated on first write and kept across resets

	// Scale of the ints currently in each node's region, and whether they
	// are raw CIM accumulators awaiting requantization (index = node ID;
	// scale 0 means "default activation scale"). Lane-invariant.
	regionScale []float64
	regionRaw   []bool

	// atBase: the view is the image's baseline — the state was reset and no
	// body has run since. fromBase: the body running started there, so its
	// sweeps' plans apply (sweep.resolution).
	atBase, fromBase bool

	// Reusable scratch, grown on demand.
	res    resolution // a sweep resolved against the view
	hit    resolution // a sweep's plan: its runs on this view's arrays, its other lists the plan's
	gather []int64    // the activation vectors of the streams in flight
	table  []int64    // requantization lookup table
}

func (st *BatchState) lane(l int) []int64 {
	off := int64(l) * st.stride
	return st.mem[off : off+st.stride : off+st.stride]
}

func (st *BatchState) gatherBuf(n int) []int64 {
	if cap(st.gather) < n {
		st.gather = make([]int64, n)
	}
	return st.gather[:n]
}

func (st *BatchState) tableBuf(n int64) []int64 {
	if int64(cap(st.table)) < n {
		st.table = make([]int64, n)
	}
	return st.table[:n]
}

// NewBatchState allocates a micro-batch execution state with the given
// number of lanes, reset against the image.
func (img *Image) NewBatchState(lanes int) *BatchState {
	st := &BatchState{}
	img.ResetBatch(st, lanes)
	return st
}

// ResetBatch recycles st for a new micro-batch of `lanes` requests: lane
// memory is zeroed (grown when the batch is wider than any before),
// bookkeeping cleared, and the crossbar view re-pointed at the image's
// programmed weights. A state recycled against the image it last ran on
// restores only the crossbars its body wrote, so a request pays for what it
// reprogrammed, not for the size of the chip; on first use, or against
// another image, the whole view is built.
func (img *Image) ResetBatch(st *BatchState, lanes int) {
	st.stride = img.lay.Total
	st.lanes = lanes
	st.atBase = true
	need := int64(lanes) * st.stride
	if int64(cap(st.mem)) < need {
		st.mem = make([]int64, need)
	} else {
		st.mem = st.mem[:need]
		clear(st.mem)
	}
	if st.img != img {
		nXB := len(img.baseProg)
		st.img = img
		st.weights = slices.Clone(img.baseWeights)
		st.prog = slices.Clone(img.baseProg)
		st.shared = make([]bool, nXB)
		for xb, w := range img.baseWeights {
			st.shared[xb] = w != nil
		}
		st.dirty = st.dirty[:0]
		st.ownWeights = make([][]int64, nXB)
		st.regionScale = make([]float64, len(img.g.Nodes))
		st.regionRaw = make([]bool, len(img.g.Nodes))
		return
	}
	clear(st.regionScale)
	clear(st.regionRaw)
	for _, xb := range st.dirty {
		st.prog[xb], st.weights[xb] = img.baseProg[xb], img.baseWeights[xb]
		st.shared[xb] = img.baseWeights[xb] != nil
	}
	st.dirty = st.dirty[:0]
}

// BatchMachine binds an Image to one BatchState for a micro-batch execution.
type BatchMachine struct {
	img *Image
	st  *BatchState
}

// ExecBatch binds st to the image for one micro-batch execution. The caller
// must not use st with two machines at once.
func (img *Image) ExecBatch(st *BatchState) *BatchMachine {
	return &BatchMachine{img: img, st: st}
}

// CheckInputs validates one request against g's input nodes (g must be
// shape-inferred): every key must be a graph input, and every graph input
// must come with a non-nil tensor of the node's element count. Monolithic
// and partitioned programs share it, so a malformed request draws the same
// error from either.
func CheckInputs(g *graph.Graph, inputs map[int]*tensor.Tensor) error {
	return checkInputs(g, g.InputIDs(), inputs)
}

func checkInputs(g *graph.Graph, ids []int, inputs map[int]*tensor.Tensor) error {
	present := 0
	for _, id := range ids {
		if _, ok := inputs[id]; ok {
			present++
		}
	}
	if present != len(inputs) {
		id, _ := lowestKey(inputs, func(id int) bool { return !slices.Contains(ids, id) })
		return fmt.Errorf("funcsim: input for unknown node %d (not a graph input)", id)
	}
	for _, id := range ids {
		t, ok := inputs[id]
		if !ok {
			return fmt.Errorf("funcsim: no input tensor provided for node %d", id)
		}
		if t == nil {
			return fmt.Errorf("funcsim: input tensor for node %d is nil", id)
		}
		if want := graph.NumElements(g.MustNode(id).OutShape); int64(t.Len()) != want {
			return fmt.Errorf("funcsim: input for node %d has %d elements, region holds %d", id, t.Len(), want)
		}
	}
	return nil
}

// LoadInputs checks one request (CheckInputs), quantizes its tensors with the
// image's calibrated scales and writes them into the given lane.
func (bm *BatchMachine) LoadInputs(lane int, inputs map[int]*tensor.Tensor) error {
	img, st := bm.img, bm.st
	if lane < 0 || lane >= st.lanes {
		return fmt.Errorf("funcsim: lane %d out of range (%d lanes)", lane, st.lanes)
	}
	if err := checkInputs(img.g, img.inputs, inputs); err != nil {
		return err
	}
	lm := st.lane(lane)
	for _, id := range img.inputs {
		q := img.nodes[id].act
		qv, err := tensor.Quantize(inputs[id], q)
		if err != nil {
			return err
		}
		base := img.lay.Region[id].Base
		for i, v := range qv {
			lm[base+int64(i)] = int64(v)
		}
		// Lane-invariant: every lane loads the same node set under the same
		// calibrated quantizer.
		st.regionScale[id] = float64(q.Scale)
		st.regionRaw[id] = false
	}
	return nil
}

// RunBody executes the compiled flow over every lane of the batch. The state
// must have been reset against the machine's image: its crossbar view is what
// the flow's reads resolve against.
func (bm *BatchMachine) RunBody(cf *CompiledFlow) error {
	st := bm.st
	if cf.img != bm.img {
		return fmt.Errorf("funcsim: compiled flow belongs to a different image")
	}
	if st.img != bm.img {
		return fmt.Errorf("funcsim: execution state was last reset against a different image")
	}
	st.fromBase, st.atBase = st.atBase, false
	for i, k := range cf.kernels {
		if err := k(bm); err != nil {
			op := cf.first[i]
			var oe opError
			if errors.As(err, &oe) {
				op, err = op+oe.off, oe.err
			}
			return fmt.Errorf("funcsim: op %d (%s): %w", op, cf.ops[op], err)
		}
	}
	return nil
}

// SettleAll requantizes every raw region across all lanes (used before
// extracting outputs).
func (bm *BatchMachine) SettleAll() {
	for _, n := range bm.img.g.Nodes {
		bm.settleNode(n.ID)
	}
}

// TensorsOf returns one lane's dequantized float tensors for the given node
// IDs — serving extracts just the graph's outputs instead of dequantizing
// every region.
func (bm *BatchMachine) TensorsOf(lane int, ids []int) map[int]*tensor.Tensor {
	out := make(map[int]*tensor.Tensor, len(ids))
	for _, id := range ids {
		out[id] = bm.regionTensor(lane, id)
	}
	return out
}

// settleNode requantizes one raw CIM accumulator region into the node's
// activation domain across every lane (the shift-add + requantization
// periphery), lazily on first consumption. The scale transition is recorded
// once — it is lane-invariant.
func (bm *BatchMachine) settleNode(node int) {
	img, st := bm.img, bm.st
	if node < 0 || !st.regionRaw[node] {
		return
	}
	s := bm.settlerOf(node)
	reg := img.lay.Region[node]
	for l := 0; l < st.lanes; l++ {
		region := st.lane(l)[reg.Base:reg.End()]
		for i, v := range region {
			region[i] = s.level(v)
		}
	}
	st.regionScale[node], st.regionRaw[node] = s.scale, false
}

// settler is the requantization of a raw CIM accumulator into its node's
// activation domain, one word at a time: settleNode runs it over a region, and
// a consumer that settles its raw input in its own pass (compileDcomLevels)
// runs it word by word, so both leave the same level.
type settler struct {
	raw, scale float64 // the accumulators' unit value; the node's activation scale
	maxQ       int64
}

// settlerOf returns the settler of node's region, raw at its current scale.
func (bm *BatchMachine) settlerOf(node int) settler {
	q := bm.img.nodes[node].act
	return settler{raw: bm.st.regionScale[node], scale: float64(q.Scale), maxQ: int64(q.MaxQ())}
}

// level saturates in float before it converts: Go leaves the conversion of
// an out-of-range float implementation-defined, so a level past 2⁶³ must
// never reach int64.
func (s settler) level(v int64) int64 {
	r := math.RoundToEven(float64(v) * s.raw / s.scale)
	if m := float64(s.maxQ); r > m {
		return s.maxQ
	} else if r < -m {
		return -s.maxQ
	}
	return int64(r)
}

// markCIMOutput records that node's region now holds raw accumulators whose
// unit value is wScale·inScale.
func (bm *BatchMachine) markCIMOutput(node int) {
	img, st := bm.img, bm.st
	if st.regionRaw[node] {
		// Already marked by an earlier window of the same operator; the
		// input's scale is fixed once its region has settled, so the raw
		// scale cannot have changed.
		return
	}
	n := img.g.MustNode(node)
	in := n.Inputs[0]
	inScale := st.regionScale[in]
	if inScale == 0 {
		inScale = float64(img.nodes[in].act.Scale)
	}
	st.regionScale[node] = float64(img.nodes[node].w.Scale) * inScale
	st.regionRaw[node] = true
}

// regionTensor dequantizes one lane's (settled) region into a float tensor.
func (bm *BatchMachine) regionTensor(lane, node int) *tensor.Tensor {
	img, st := bm.img, bm.st
	n := img.g.MustNode(node)
	reg := img.lay.Region[node]
	t := tensor.New(n.OutShape...)
	scale := st.regionScale[node]
	if scale == 0 {
		scale = float64(img.nodes[node].act.Scale)
	}
	data := t.Data()
	for i, v := range st.lane(lane)[reg.Base:reg.End()] {
		data[i] = float32(float64(v) * scale)
	}
	return t
}

// CompileBody compiles a flow section into kernel closures specialized on
// op, shape and precision: parallel groups are flattened, every operator is
// resolved by the image's codegen.Resolver — the operand calculus the dataflow
// analysis checks flows with, so a kernel addresses exactly the words the
// verifier saw and an operand the verifier would reject fails here with the
// same diagnosis, verifier on or off — window-gather geometry is resolved per
// node, write tiles are bit-sliced, and every run of mov_windows and crossbar
// reads becomes one sweep kernel, so the hot loop carries no dispatch or
// resolution work and no operator can address outside its regions. What a
// crossbar holds is run-time state (a body may reprogram it), so a read is
// completed against it (XBRecord.Activate) by its sweep, before the sweep
// writes — once per flow for the runs that start from the baseline view,
// whose sweeps take the plan the first of them published.
func (img *Image) CompileBody(body []mop.Op) (*CompiledFlow, error) {
	// Sized once from a count of the leaves: flows run to millions of them.
	var leaves, reads, chains, windows int
	// Where the leaf before accumulates, when it is a read: a read into other
	// words, or one that stores, starts a chain.
	into := int64(-1)
	_ = eachLeaf(body, func(op mop.Op) error { // the visitor never fails
		acc, dst := false, int64(-1)
		switch o := op.(type) {
		case mop.ReadXB:
			acc, dst = o.Acc, o.Dst
		case mop.ReadRow:
			acc, dst = o.Acc, o.Dst
		case mop.MovWindow:
			windows++
		case mop.ReadCore:
			// Bounded by the node's windows, as the resolver bounds the read:
			// a count past them must fail to resolve, not to allocate.
			if n, err := img.g.Node(o.Node); err == nil {
				k := int(min(max(o.WinCount, 0), n.MVMCount()))
				windows, chains = windows+k, chains+k
			}
		}
		if dst >= 0 {
			reads++
			if !acc || dst != into {
				chains++
			}
		}
		into = dst
		leaves++
		return nil
	})
	cf := &CompiledFlow{
		img: img, ops: make([]mop.Op, 0, leaves),
		wins: make([]sweepWin, 0, windows), chains: make([]sweepChain, 0, chains), members: make([]xbRead, 0, reads),
		geos: make([]*winGeometry, len(img.g.Nodes)), matrices: make([]*nodeMatrix, len(img.g.Nodes)),
	}
	_ = eachLeaf(body, func(op mop.Op) error { cf.ops = append(cf.ops, op); return nil })
	for at := 0; at < leaves; {
		k, n, err := img.compileSweep(cf, at) // n == 0: not a sweep's operator
		if n == 0 && err == nil {
			k, err = img.compileOp(cf, cf.ops[at])
			n = 1
		}
		if err != nil {
			return nil, fmt.Errorf("funcsim: compile %s: %w", cf.ops[at], err)
		}
		cf.kernels, cf.first = append(cf.kernels, k), append(cf.first, at)
		at += n
	}
	cf.plans = make([]atomic.Pointer[resolution], cf.sweeps)
	return cf, nil
}

// eachLeaf visits the operators of a flow section in program order, parallel
// groups inlined: a group's members execute in program order.
func eachLeaf(ops []mop.Op, visit func(mop.Op) error) error {
	for _, op := range ops {
		var err error
		if par, ok := op.(mop.Parallel); ok {
			err = eachLeaf(par.Body, visit)
		} else {
			err = visit(op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// compileOp compiles every operator that is a kernel of its own: all but a
// sweep's (compileSweep).
func (img *Image) compileOp(cf *CompiledFlow, op mop.Op) (kernel, error) {
	if w, ok, err := img.res.ResolveWrite(op); ok {
		if err != nil {
			return nil, err
		}
		return img.compileWrite(cf, w), nil
	}
	ops, err := img.res.Resolve(op)
	if err != nil {
		return nil, err
	}
	switch o := op.(type) {
	case mop.Mov:
		return img.compileMov(o, ops), nil
	case mop.Dcom:
		return img.compileDcom(o)
	}
	return nil, fmt.Errorf("unknown op type %T", op)
}

// compileWrite compiles one resolved tile write. The tile's content — its
// quantized weights, each spanning CellsPerWeight cell columns — is static,
// so it is laid out here, once per distinct tile of the flow; the kernel
// copies it into the state's crossbar view. Weight programming is
// lane-invariant: one copy per micro-batch amortizes reprogramming
// (multi-round flows) across its lanes.
func (img *Image) compileWrite(cf *CompiledFlow, w codegen.TileWrite) kernel {
	a := img.a
	xb, rowStart, rows := w.XB, w.Row, w.Rows
	qw, qcols := img.nodes[w.Node].qw, img.nodes[w.Node].cols
	s := a.CellsPerWeight()
	wColOff, nW := w.CellColOff/s, w.Cols/s
	per, xbRows := img.nodes[w.Node].per, a.XB.Rows
	tile, ok := cf.writeTiles[w.Tile]
	if !ok {
		tile = make([]int64, wordsFor(nW, per)*rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < nW; j++ {
				placeWeight(tile, rows, i, j, int64(qw[(w.CellRowOff+i)*qcols+wColOff+j]), per)
			}
		}
		if cf.writeTiles == nil {
			cf.writeTiles = make(map[codegen.Tile][]int64)
		}
		cf.writeTiles[w.Tile] = tile
	}
	whole := nW / per // the tile's column words that it fills entirely
	// The fields of a partial last word the tile owns: the low ones.
	own := uint(nW % per * fieldBits(per))
	return func(bm *BatchMachine) error {
		st := bm.st
		// Reprogramming with a new tile: the array starts cleared.
		fresh := bm.img.res.Program(&st.prog[xb].XBRecord, w)
		weights := st.privateXB(bm.img, xb, fresh)
		for c := 0; c < whole; c++ {
			copy(weights[c*xbRows+rowStart:], tile[c*rows:(c+1)*rows])
		}
		if whole < len(tile)/rows {
			// The fields above are columns beyond the tile and stay as the write
			// found them.
			run := weights[whole*xbRows+rowStart:][:rows]
			for i, v := range tile[whole*rows:] {
				run[i] = mergeLow(run[i], v, own)
			}
		}
		return nil
	}
}

// privateXB returns crossbar xb's weight array for writing, owned by the
// state and sized in the word format of the node the write (already recorded
// in st.prog[xb]) programs: cleared when the write starts a new tile (or the
// crossbar is empty), copied from the image when it extends a tile that still
// aliases the image's array (copy-on-write), as it is when already private.
// The image may share one array among crossbars programmed alike; the copy is
// what keeps a write to one of them from its siblings.
func (st *BatchState) privateXB(img *Image, xb int, fresh bool) []int64 {
	a := img.a
	p := &st.prog[xb]
	size := a.XB.Rows * wordsFor(a.XB.Cols/a.CellsPerWeight(), img.nodes[p.Node].per)
	if cap(st.ownWeights[xb]) < size {
		st.ownWeights[xb] = make([]int64, size)
	}
	weights := st.ownWeights[xb][:size]
	if st.shared[xb] || st.weights[xb] == nil {
		st.dirty = append(st.dirty, xb)
	}
	switch {
	case fresh || st.weights[xb] == nil:
		clear(weights)
	case st.shared[xb]:
		// The image's array is cut to the wordlines it programs (ProgramInit);
		// the state's has room for every wordline.
		clear(weights)
		for c, from := 0, st.weights[xb]; c*p.stride < len(from); c++ {
			copy(weights[c*a.XB.Rows:], from[c*p.stride:(c+1)*p.stride])
		}
	}
	p.stride = a.XB.Rows
	st.weights[xb], st.shared[xb] = weights, false
	return weights
}

func (img *Image) compileMov(o mop.Mov, ops codegen.Operands) kernel {
	srcNode, dstNode := img.res.Owner(ops.ReadRegion), img.res.Owner(ops.WriteRegion)
	// Whole-region copies propagate the source's numeric domain (Flatten,
	// Identity) — resolved statically.
	propagate := dstNode >= 0 && srcNode >= 0 &&
		img.lay.Region[dstNode] == codegen.Area{Base: o.Dst, Size: o.Len}
	return func(bm *BatchMachine) error {
		st := bm.st
		bm.settleNode(srcNode)
		for l := 0; l < st.lanes; l++ {
			lm := st.lane(l)
			copy(lm[o.Dst:o.Dst+o.Len], lm[o.Src:o.Src+o.Len])
		}
		if propagate {
			st.regionScale[dstNode] = st.regionScale[srcNode]
			st.regionRaw[dstNode] = false
		}
		return nil
	}
}

// compileDcom compiles a digital-compute operator (resolved: it writes the
// node's whole region from its graph inputs'): dequantize the inputs, run the
// float reference kernel, requantize into the node's activation domain.
func (img *Image) compileDcom(o mop.Dcom) (kernel, error) {
	n := img.g.MustNode(o.Node)
	if k, err := img.compileDcomLevels(o, n); k != nil || err != nil {
		return k, err
	}
	q := img.nodes[o.Node].act
	inputs := append([]int(nil), n.Inputs...)
	return func(bm *BatchMachine) error {
		st := bm.st
		for _, in := range inputs {
			bm.settleNode(in)
		}
		ins := make([]*tensor.Tensor, len(inputs))
		for l := 0; l < st.lanes; l++ {
			for i, in := range inputs {
				ins[i] = bm.regionTensor(l, in)
			}
			out, err := n.Kernel(ins, nil)
			if err != nil {
				return err
			}
			qv, err := tensor.Quantize(out, q)
			if err != nil {
				return err
			}
			if int64(len(qv)) != o.Len {
				return fmt.Errorf("dcom %s output length %d does not match len %d", o.Fn, len(qv), o.Len)
			}
			lm := st.lane(l)
			for i, v := range qv {
				lm[o.Dst+int64(i)] = int64(v)
			}
		}
		st.regionScale[o.Node] = float64(q.Scale)
		st.regionRaw[o.Node] = false
		return nil
	}, nil
}

// requant is compileDcom's pipeline for one element of an operator whose
// output element is one input element's: dequantize the input level, floor it
// at zero for a ReLU, then Quantize — its float32 division, rounding and clamp
// included — so the level it returns is bit for bit the generic kernel's.
type requant struct {
	inScale float64
	scale   float32
	maxQ    int32
	relu    bool
}

func (r requant) level(v int64) int64 {
	f := float32(float64(v) * r.inScale)
	if r.relu && f < 0 {
		f = 0
	}
	return int64(tensor.Level(f, r.scale, r.maxQ))
}

// compileDcomLevels specializes ReLU and MaxPool, which pick one input level
// per output element — MaxPool the window's largest: dequantization
// float32(v·scale) is monotone in v for a positive scale, so the largest float
// of a window is the float of its largest level, ties and all-negative
// windows included. The kernel stays in integers and replicates the generic
// pipeline on the level it picked (requant), bit-identical to compileDcom's
// without its three tensor allocations per lane. It returns no kernel for
// every other operator, and for a MaxPool whose shapes it does not recognize.
func (img *Image) compileDcomLevels(o mop.Dcom, n *graph.Node) (kernel, error) {
	if n.Op != graph.OpReLU && n.Op != graph.OpMaxPool {
		return nil, nil
	}
	in := n.Inputs[0]
	reg := img.lay.Region[in]
	// An elementwise operator is a 1 × 1 pool over a single row.
	relu, k, stride, h, w, outH, outW := true, 1, 1, 1, int(reg.Size), 1, int(reg.Size)
	if n.Op == graph.OpMaxPool {
		shape := img.g.MustNode(in).OutShape
		relu, k, stride = false, n.Attr.KernelH, n.Attr.Stride
		if len(shape) != 3 || k <= 0 || stride <= 0 || shape[1] < k || shape[2] < k {
			return nil, nil
		}
		h, w = shape[1], shape[2]
		outH, outW = (h-k)/stride+1, (w-k)/stride+1
		if int64(shape[0]*outH*outW) != o.Len {
			return nil, nil
		}
	}
	q := img.nodes[o.Node].act
	if err := q.Validate(); err != nil {
		return nil, err
	}
	maxIn := int64(img.nodes[in].act.MaxQ())
	return func(bm *BatchMachine) error {
		st := bm.st
		// An elementwise kernel settles a raw input in its own pass, writing back
		// the level settleNode would leave; a pool has it settled first. A raw
		// region is final only where it is consumed — until then a later chain
		// or sweep may still add to it — so this is the first place to settle.
		fuse := relu && st.regionRaw[in]
		var s settler
		if fuse {
			s = bm.settlerOf(in)
			st.regionScale[in], st.regionRaw[in] = s.scale, false // by the pass below
		} else {
			bm.settleNode(in)
		}
		r := requant{inScale: st.regionScale[in], scale: q.Scale, maxQ: q.MaxQ(), relu: relu}
		if r.inScale == 0 {
			r.inScale = float64(img.nodes[in].act.Scale)
		}
		if !relu && (!(r.inScale > 0) || math.IsInf(r.inScale, 1)) {
			return fmt.Errorf("dcom %s: input scale %v is not positive and finite", o.Fn, r.inScale)
		}
		// Settled activations are clamped to the input's quantized range, so
		// for the usual low-precision activations (8-bit in every preset)
		// the requantization of every representable value is tabulated once
		// per micro-batch and the per-element division becomes a lookup.
		// High-precision configurations would make the table larger than the
		// work it saves, so they take the direct computation.
		var table []int64
		if maxIn <= 1<<12 && o.Len >= maxIn {
			table = st.tableBuf(2*maxIn + 1)
			for v := -maxIn; v <= maxIn; v++ {
				table[v+maxIn] = r.level(v)
			}
		}
		level := func(v int64) int64 {
			if u := uint64(v + maxIn); u < uint64(len(table)) {
				return table[u]
			}
			return r.level(v)
		}
		for l := 0; l < st.lanes; l++ {
			lm := st.lane(l)
			src, dst := lm[reg.Base:reg.End()], lm[o.Dst:o.Dst+o.Len]
			switch {
			case fuse:
				for i, v := range src {
					v = s.level(v)
					src[i], dst[i] = v, level(v)
				}
			case relu:
				for i, v := range src {
					dst[i] = level(v)
				}
			default:
				// Output row (c, oy) covers k input rows, sliced once; each
				// (ky, kx) of the window is one pass over the row's outputs,
				// which hold the largest level so far.
				for i, c := 0, 0; i < len(dst); c++ {
					for oy := 0; oy < outH; oy, i = oy+1, i+outW {
						rows, out := src[(c*h+oy*stride)*w:][:k*w], dst[i:i+outW]
						for ox := range out {
							out[ox] = rows[ox*stride]
						}
						for kk := 1; kk < k*k; kk++ {
							at := rows[kk/k*w+kk%k:]
							for ox, v := range out {
								out[ox] = max(v, at[ox*stride])
							}
						}
						for ox, v := range out {
							out[ox] = level(v)
						}
					}
				}
			}
		}
		st.regionScale[o.Node] = float64(q.Scale)
		st.regionRaw[o.Node] = false
		return nil
	}, nil
}
