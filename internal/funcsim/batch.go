package funcsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// This file is the execution engine, the only place meta-operator arithmetic
// lives. An Image compiles a flow section into kernel closures (CompileBody)
// and a BatchState carries a micro-batch of n >= 1 requests through them: its
// buffer memory has a leading lane dimension, one lane per request. Each
// kernel makes ONE pass over a crossbar's weights and streams every lane
// through it, the amortization stationary weights exist for: per-MOP
// dispatch, address→node resolution, window gather geometry, requantization
// tables and quantization-domain bookkeeping are paid once per micro-batch.
// A single request is the one-lane micro-batch.
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
// (addresses, shapes, node regions, dispatch) resolved at compile time. Most
// kernels execute one operator; a run of reads accumulating into the same
// words executes as one (readChain). A CompiledFlow is immutable and safe for
// concurrent use; each execution supplies its own BatchState.
type CompiledFlow struct {
	img     *Image
	kernels []kernel
	first   []int    // kernels[i] executes ops from first[i] up to the next kernel's
	ops     []mop.Op // flattened, parallel groups inlined; for error text

	// members backs every readChain's member list.
	members []xbRead
	// writeTiles interns the tiles write ops program, so the copies and rounds
	// a body rewrites share one bit-sliced tile.
	writeTiles map[writeTile]slicedTile
	// matrices holds, per node a readcore names, the node's weight matrix in
	// the layout reads consume.
	matrices map[int]nodeMatrix
}

type kernel func(bm *BatchMachine) error

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
	// data), indexed by chip-global crossbar ID: the cell array, the weight
	// array reads multiply (Image.baseWeights' layout), and what the crossbar
	// holds. cells and weights alias the image's arrays (cellShared) until a
	// write kernel copies them into the state's own, so reprogramming in
	// multi-round flows never writes through to the image; a read takes
	// whichever array the view points at. dirty lists the crossbars made
	// private since the last reset — all a reset against the same image has
	// to restore.
	cells      [][]uint8
	weights    [][]int64
	cellShared []bool
	prog       []xbProg
	dirty      []int
	ownCells   [][]uint8 // private arrays, allocated on first write and
	ownWeights [][]int64 // kept across resets

	// Scale of the ints currently in each node's region, and whether they
	// are raw CIM accumulators awaiting requantization (index = node ID;
	// scale 0 means "default activation scale"). Lane-invariant.
	regionScale []float64
	regionRaw   []bool

	// Reusable scratch, grown on demand.
	runs   []mvmRun // an accumulation chain's members, resolved against the view
	gather []int64  // readcore's gathered windows, lanes × rows
	plan   []int64  // window-gather index plan (-1 = zero padding)
	table  []int64  // requantization lookup table
}

func (st *BatchState) lane(l int) []int64 {
	off := int64(l) * st.stride
	return st.mem[off : off+st.stride : off+st.stride]
}

// runsBuf returns an empty run list with room for n.
func (st *BatchState) runsBuf(n int) []mvmRun {
	if cap(st.runs) < n {
		st.runs = make([]mvmRun, n)
	}
	return st.runs[:0]
}

func (st *BatchState) gatherBuf(n int) []int64 {
	if cap(st.gather) < n {
		st.gather = make([]int64, n)
	}
	return st.gather[:n]
}

func (st *BatchState) planBuf(n int) []int64 {
	if cap(st.plan) < n {
		st.plan = make([]int64, n)
	}
	return st.plan[:n]
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
// programmed cells and weights. A state recycled against the image it last
// ran on restores only the crossbars its body wrote, so a request pays for
// what it reprogrammed, not for the size of the chip; on first use, or
// against another image, the whole view is built.
func (img *Image) ResetBatch(st *BatchState, lanes int) {
	st.stride = img.lay.Total
	st.lanes = lanes
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
		st.cells = slices.Clone(img.baseCells)
		st.weights = slices.Clone(img.baseWeights)
		st.prog = slices.Clone(img.baseProg)
		st.cellShared = make([]bool, nXB)
		for xb, c := range img.baseCells {
			st.cellShared[xb] = c != nil
		}
		st.dirty = st.dirty[:0]
		st.ownCells = make([][]uint8, nXB)
		st.ownWeights = make([][]int64, nXB)
		st.regionScale = make([]float64, len(img.g.Nodes))
		st.regionRaw = make([]bool, len(img.g.Nodes))
		return
	}
	clear(st.regionScale)
	clear(st.regionRaw)
	for _, xb := range st.dirty {
		st.prog[xb], st.cells[xb], st.weights[xb] = img.baseProg[xb], img.baseCells[xb], img.baseWeights[xb]
		st.cellShared[xb] = img.baseCells[xb] != nil
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
		for _, id := range sortedTensorKeys(inputs) {
			if !slices.Contains(ids, id) {
				return fmt.Errorf("funcsim: input for unknown node %d (not a graph input)", id)
			}
		}
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
		q := img.actScale[id]
		qv, err := tensor.Quantize(inputs[id], q)
		if err != nil {
			return err
		}
		base := img.base[id]
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

// RunBody executes the compiled flow over every lane of the batch.
func (bm *BatchMachine) RunBody(cf *CompiledFlow) error {
	if cf.img != bm.img {
		return fmt.Errorf("funcsim: compiled flow belongs to a different image")
	}
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
	raw := st.regionScale[node]
	q := img.actScale[node]
	base, size := img.base[node], img.size[node]
	maxQ := int64(q.MaxQ())
	scale := float64(q.Scale)
	for l := 0; l < st.lanes; l++ {
		lm := st.lane(l)
		for i := base; i < base+size; i++ {
			f := float64(lm[i]) * raw
			v := int64(math.RoundToEven(f / scale))
			if v > maxQ {
				v = maxQ
			}
			if v < -maxQ {
				v = -maxQ
			}
			lm[i] = v
		}
	}
	st.regionScale[node] = scale
	st.regionRaw[node] = false
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
		inScale = float64(img.actScale[in].Scale)
	}
	st.regionScale[node] = float64(img.wScale[node].Scale) * inScale
	st.regionRaw[node] = true
}

// regionTensor dequantizes one lane's (settled) region into a float tensor.
func (bm *BatchMachine) regionTensor(lane, node int) *tensor.Tensor {
	img, st := bm.img, bm.st
	n := img.g.MustNode(node)
	base, size := img.base[node], img.size[node]
	t := tensor.New(n.OutShape...)
	scale := st.regionScale[node]
	if scale == 0 {
		scale = float64(img.actScale[node].Scale)
	}
	data := t.Data()
	for i, v := range st.lane(lane)[base : base+size] {
		data[i] = float32(float64(v) * scale)
	}
	return t
}

// CompileBody compiles a flow section into kernel closures specialized on
// op, shape and precision: parallel groups are flattened, buffer addresses are
// resolved to node regions, window-gather geometry generators and destination
// strides are fixed, write tiles are bit-sliced, consecutive reads that
// accumulate into the same words are fused into one kernel, and every operand
// that can be checked statically is — so the hot loop carries no dispatch or
// resolution work and no operator can address outside a lane. What a crossbar
// holds is run-time state (a body may reprogram it), so what depends on it is
// checked by the kernel before it writes.
func (img *Image) CompileBody(body []mop.Op) (*CompiledFlow, error) {
	// Sized once from a count of the leaves: flows run to millions of them.
	leaves, reads := 0, 0
	_ = eachLeaf(body, func(op mop.Op) error { // the visitor never fails
		if _, _, ok := readOperands(op); ok {
			reads++
		}
		leaves++
		return nil
	})
	cf := &CompiledFlow{img: img, ops: make([]mop.Op, 0, leaves), members: make([]xbRead, 0, reads)}
	_ = eachLeaf(body, func(op mop.Op) error { cf.ops = append(cf.ops, op); return nil })
	cf.kernels, cf.first = make([]kernel, 0, leaves), make([]int, 0, leaves)
	for at := 0; at < leaves; {
		k, n, err := img.compileReads(cf, at) // n == 0: not a crossbar read
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

// compileOp compiles every operator that is a kernel of its own: all but the
// crossbar reads (compileReads).
func (img *Image) compileOp(cf *CompiledFlow, op mop.Op) (kernel, error) {
	if xb, w, ok := writeOperands(op); ok {
		return img.compileWrite(cf, xb, w)
	}
	switch o := op.(type) {
	case mop.ReadCore:
		return img.compileReadCore(cf, o)
	case mop.Mov:
		return img.compileMov(o)
	case mop.MovWindow:
		return img.compileMovWindow(o)
	case mop.Dcom:
		return img.compileDcom(o)
	}
	return nil, fmt.Errorf("unknown op type %T", op)
}

// inLane reports whether the n words at addr lie inside a lane's memory.
func (img *Image) inLane(addr, n int64) bool {
	return addr >= 0 && n >= 0 && addr <= img.lay.Total-n
}

// tileWrite is every operand of a writexb or writerow but the crossbar: the
// first wordline written and the tile of the node's cell matrix put there.
// What a crossbar holds is a function of the tileWrites addressed to it, in
// order — never of its ID.
type tileWrite struct {
	row int
	writeTile
}

// writeTile names a rows × cols tile of a node's cell matrix.
type writeTile struct{ node, cellRowOff, cellColOff, rows, cols int }

// slicedTile is a writeTile's content: the cell bytes (Figure 7's B→XBC bit
// slicing) and the weights those cells reconstruct to, in the layout reads
// consume (mvm.go) — the cell bytes themselves are never read back.
type slicedTile struct {
	cells   []uint8 // rows × cols, row-major
	weights []int64 // column-major in the image's word format, rows words per run
}

// writeOperands splits a weight-programming operator into the crossbar it
// addresses and what it writes there; ok is false for every other operator.
func writeOperands(op mop.Op) (xb int, w tileWrite, ok bool) {
	switch o := op.(type) {
	case mop.WriteXB:
		return o.XB, tileWrite{0, writeTile{o.Node, o.CellRowOff, o.CellColOff, o.Rows, o.Cols}}, true
	case mop.WriteRow:
		return o.XB, tileWrite{o.Row, writeTile{o.Node, o.CellRowOff, o.CellColOff, o.NumRows, o.Cols}}, true
	}
	return 0, tileWrite{}, false
}

// compileWrite compiles one tile write. The tile's content is static, so it
// is sliced here, once per distinct tile of the flow; the kernel copies it
// into the state's crossbar view. Weight programming is lane-invariant: one
// copy per micro-batch amortizes reprogramming (multi-round flows) across its
// lanes.
func (img *Image) compileWrite(cf *CompiledFlow, xb int, w tileWrite) (kernel, error) {
	a := img.a
	rowStart, node, cellRowOff, cellColOff, rows, cols := w.row, w.node, w.cellRowOff, w.cellColOff, w.rows, w.cols
	if xb < 0 || xb >= len(img.baseCells) {
		return nil, fmt.Errorf("crossbar %d out of range", xb)
	}
	if rowStart < 0 || rows <= 0 || cols <= 0 || cellRowOff < 0 || cellColOff < 0 {
		return nil, fmt.Errorf("negative or empty tile operands")
	}
	if rowStart+rows > a.XB.Rows || cols > a.XB.Cols {
		return nil, fmt.Errorf("tile %dx%d at row %d exceeds crossbar %dx%d", rows, cols, rowStart, a.XB.Rows, a.XB.Cols)
	}
	qw, ok := img.qweights[node]
	if !ok {
		return nil, fmt.Errorf("no quantized weights for node %d", node)
	}
	dims := img.wDims[node]
	s := a.CellsPerWeight()
	if cellColOff%s != 0 || cols%s != 0 {
		return nil, fmt.Errorf("cell columns [%d,%d) not aligned to %d cells per weight", cellColOff, cellColOff+cols, s)
	}
	if cellRowOff+rows > dims[0] {
		return nil, fmt.Errorf("cell row %d exceeds weight matrix rows %d", cellRowOff+rows-1, dims[0])
	}
	wColOff, nW := cellColOff/s, cols/s
	if wColOff+nW > dims[1] {
		return nil, fmt.Errorf("cell column %d exceeds weight matrix cols %d", cellColOff+cols-1, dims[1])
	}
	packed, xbRows := img.packed, a.XB.Rows
	tile, ok := cf.writeTiles[w.writeTile]
	if !ok {
		tile = slicedTile{cells: make([]uint8, rows*cols), weights: make([]int64, wordsFor(nW, packed)*rows)}
		sl := make([]uint32, s)
		for i := 0; i < rows; i++ {
			for j := 0; j < nW; j++ {
				sl = tensor.BitSliceInto(sl, qw[(cellRowOff+i)*dims[1]+wColOff+j], a.WeightBits, a.XB.CellBits)
				for k, v := range sl {
					tile.cells[i*cols+j*s+k] = uint8(v)
				}
				placeWeight(tile.weights, rows, i, j, int64(tensor.FromBitSlices(sl, a.WeightBits, a.XB.CellBits)), packed)
			}
		}
		if cf.writeTiles == nil {
			cf.writeTiles = make(map[writeTile]slicedTile)
		}
		cf.writeTiles[w.writeTile] = tile
	}
	xbCols := a.XB.Cols
	whole := nW // the tile's column words that it fills entirely
	if packed {
		whole = nW / 2
	}
	return func(bm *BatchMachine) error {
		st := bm.st
		p := &st.prog[xb]
		fresh := p.node != node || p.rowDelta != cellRowOff-rowStart || p.cellColOff != cellColOff
		if fresh {
			// Reprogramming with a new tile: the array starts cleared.
			*p = xbProg{node: node, rowDelta: cellRowOff - rowStart, cellColOff: cellColOff}
		}
		p.rows = max(p.rows, rowStart+rows)
		p.wcols = max(p.wcols, nW)
		cells, weights := st.privateXB(bm.img, xb, fresh)
		for i := 0; i < rows; i++ {
			copy(cells[(rowStart+i)*xbCols:], tile.cells[i*cols:(i+1)*cols])
		}
		for c := 0; c < whole; c++ {
			copy(weights[c*xbRows+rowStart:], tile.weights[c*rows:(c+1)*rows])
		}
		if whole < len(tile.weights)/rows {
			// An odd last column is the low half of its words; the high half is
			// a column beyond the tile and stays as the write found it.
			run := weights[whole*xbRows+rowStart:][:rows]
			for i, v := range tile.weights[whole*rows:] {
				run[i] += v - int64(int32(run[i]))
			}
		}
		return nil
	}, nil
}

// privateXB returns crossbar xb's cell and weight arrays for writing, owned
// by the state: cleared when the write starts a new tile (or the crossbar is
// empty), copied from the image when it extends a tile that still aliases the
// image's arrays (copy-on-write), as they are when already private. The image
// may share those arrays among crossbars programmed alike; the copy is what
// keeps a write to one of them from its siblings.
func (st *BatchState) privateXB(img *Image, xb int, fresh bool) ([]uint8, []int64) {
	if st.ownCells[xb] == nil {
		a := img.a
		st.ownCells[xb] = make([]uint8, a.XB.Rows*a.XB.Cols)
		st.ownWeights[xb] = make([]int64, a.XB.Rows*wordsFor(a.XB.Cols/a.CellsPerWeight(), img.packed))
	}
	cells, weights := st.ownCells[xb], st.ownWeights[xb]
	if st.cellShared[xb] || st.cells[xb] == nil {
		st.dirty = append(st.dirty, xb)
	}
	p := &st.prog[xb]
	switch {
	case fresh || st.cells[xb] == nil:
		clear(cells)
		clear(weights)
	case st.cellShared[xb]:
		copy(cells, st.cells[xb])
		// The image's weight array is cut to the wordlines it programs
		// (ProgramInit); the state's has room for every wordline.
		clear(weights)
		for c, from := 0, st.weights[xb]; c*p.stride < len(from); c++ {
			copy(weights[c*img.a.XB.Rows:], from[c*p.stride:(c+1)*p.stride])
		}
	}
	p.stride = img.a.XB.Rows
	st.cells[xb], st.weights[xb], st.cellShared[xb] = cells, weights, false
	return cells, weights
}

// xbRead is one readxb or readrow as a member of an accumulation chain: the
// wordlines it activates and the activations it streams into them.
type xbRead struct {
	xb, row int
	nrows   int // < 0: every programmed row (readxb)
	src     int64
	srcNode int
	// run is the chain's dot-product run the member belongs to: a readrow that
	// continues an earlier member's wordlines and source run — parallel_row
	// cuts one tile's rows into several reads — lengthens that member's run
	// instead of starting its own.
	run int
}

// accWords names the words a crossbar read produces: weight column j's sum at
// dst + j·stride, stored or, with acc, added to what is there.
type accWords struct {
	dst, stride int64
	acc         bool
}

// readOperands splits a crossbar read into the chain member it makes and the
// words it produces; ok is false for every other operator.
func readOperands(op mop.Op) (r xbRead, out accWords, ok bool) {
	switch o := op.(type) {
	case mop.ReadXB:
		return xbRead{xb: o.XB, nrows: -1, src: o.Src}, accWords{o.Dst, o.DstStride, o.Acc}, true
	case mop.ReadRow:
		return xbRead{xb: o.XB, row: o.Row, nrows: max(o.NumRows, 0), src: o.Src}, accWords{o.Dst, o.DstStride, o.Acc}, true
	}
	return xbRead{}, accWords{}, false
}

// readChain is the kernel of a maximal run of consecutive reads that
// accumulate into the same words: every member after the first has acc set
// and the first's dst and stride. Integer addition is associative and
// commutative, so summing the members' dot products in registers and storing
// each output once leaves what running them one after another leaves —
// provided no member reads what the chain writes (compileReads). A read with
// no such neighbour is a chain of one: there is no other read path.
type readChain struct {
	members  []xbRead
	accWords // the first member's
	dstNode  int
	limit    int64 // word format and guard bound for sums over all members' rows (mvm.go)
}

// compileReads compiles the accumulation chain that starts at cf.ops[at] and
// reports how many operators it takes in; none when cf.ops[at] is no crossbar
// read.
func (img *Image) compileReads(cf *CompiledFlow, at int) (kernel, int, error) {
	a := img.a
	_, head, ok := readOperands(cf.ops[at])
	if !ok {
		return nil, 0, nil
	}
	if !img.inLane(head.dst, 1) || head.stride < 1 || head.stride > img.lay.Total {
		return nil, 0, fmt.Errorf("destination %d with stride %d outside the lane's %d words", head.dst, head.stride, img.lay.Total)
	}
	ch := &readChain{accWords: head, dstNode: img.nodeAt(head.dst)}
	maxCols := a.XB.Cols / a.CellsPerWeight()
	rows, start := 0, len(cf.members)
	var endsBuf [8]xbRead
	ends := endsBuf[:0] // per run, the member that would lengthen it
	for j := at; j < len(cf.ops); j++ {
		r, out, ok := readOperands(cf.ops[j])
		if !ok || j > at && (!out.acc || out.dst != ch.dst || out.stride != ch.stride) {
			break
		}
		n := r.nrows
		if n < 0 {
			n = a.XB.Rows // what a readxb activates is the crossbar's to say
		}
		err := img.checkRead(r, n)
		if err != nil && j == at {
			return nil, 0, err
		}
		// A member must not read what the chain writes: its source run, for
		// the sums' sake, nor its source node's region, which it settles
		// before the chain runs instead of after the members ahead of it.
		r.srcNode = img.nodeAt(r.src)
		lo, hi := r.src, r.src+int64(n)
		if r.srcNode >= 0 {
			lo, hi = min(lo, img.base[r.srcNode]), max(hi, img.base[r.srcNode]+img.size[r.srcNode])
		}
		alone := strideTouches(ch.dst, ch.stride, maxCols, lo, hi)
		// Nor may the chain's rows outgrow what a packed half can sum; a lone
		// read's never do, or the image would not be packed.
		limit := int64(-1)
		if img.packed {
			limit = wordLimit(rows+n, a.WeightBits, a.ActBits)
		}
		if j > at && (err != nil || alone || img.packed && limit < 0) {
			break // it heads the next chain, which is where its error is reported
		}
		// A readrow that starts where an earlier member's wordlines and source
		// run end lengthens that member's run; a readxb's run ends nowhere
		// known before the crossbar is looked at.
		r.run = slices.IndexFunc(ends, func(e xbRead) bool { return e.xb == r.xb && e.row == r.row && e.src == r.src })
		if r.run < 0 {
			r.run, ends = len(ends), append(ends, xbRead{})
		}
		ends[r.run] = xbRead{xb: -1}
		if r.nrows >= 0 {
			ends[r.run] = xbRead{xb: r.xb, row: r.row + n, src: r.src + int64(n)}
		}
		cf.members = append(cf.members, r)
		rows, ch.limit = rows+n, limit
		if alone {
			break
		}
	}
	ch.members = cf.members[start:len(cf.members):len(cf.members)]
	return ch.run, len(ch.members), nil
}

// checkRead validates what is static of one crossbar read activating up to n
// wordlines.
func (img *Image) checkRead(r xbRead, n int) error {
	a := img.a
	switch {
	case r.xb < 0 || r.xb >= len(img.baseCells):
		return fmt.Errorf("crossbar %d out of range", r.xb)
	case r.nrows > a.XB.ParallelRow:
		return fmt.Errorf("readrow activates %d rows but parallel_row is %d", r.nrows, a.XB.ParallelRow)
	case r.row < 0 || r.nrows == 0 || r.row+n > a.XB.Rows:
		return fmt.Errorf("wordlines [%d,%d) outside the crossbar's %d", r.row, r.row+r.nrows, a.XB.Rows)
	case !img.inLane(r.src, int64(max(r.nrows, 1))):
		return fmt.Errorf("source run at %d outside the lane's %d words", r.src, img.lay.Total)
	}
	return nil
}

// strideTouches reports whether any of the n words dst, dst+stride, … lies in
// [lo, hi).
func strideTouches(dst, stride int64, n int, lo, hi int64) bool {
	j := int64(0)
	if dst < lo {
		j = (lo - dst + stride - 1) / stride
	}
	return j < int64(n) && dst+j*stride < hi
}

// run is the chain's kernel. Everything that depends on what the crossbars
// hold now — programmed at all, the rows read, equal column counts, the
// columns' destination words — is checked for every member before anything is
// written; members that turn out to hold different column counts run as
// chains of one.
func (ch *readChain) run(bm *BatchMachine) error {
	st := bm.st
	runs := st.runsBuf(len(ch.members))
	cols, uniform := 0, true
	for i := range ch.members {
		m := &ch.members[i]
		w, p := st.weights[m.xb], &st.prog[m.xb]
		n := m.nrows
		if n < 0 {
			n = p.rows
		}
		var err error
		switch {
		case w == nil:
			err = fmt.Errorf("crossbar %d not programmed", m.xb)
		case m.row+n > p.rows:
			err = fmt.Errorf("read rows [%d,%d) exceed programmed rows %d", m.row, m.row+n, p.rows)
		case m.src+int64(n) > st.stride:
			err = fmt.Errorf("source run [%d,%d) exceeds the lane's %d words", m.src, m.src+int64(n), st.stride)
		case ch.dst+int64(p.wcols-1)*ch.stride >= st.stride:
			err = fmt.Errorf("%d columns from %d with stride %d exceed the lane's %d words", p.wcols, ch.dst, ch.stride, st.stride)
		}
		if err != nil {
			return opError{i, err}
		}
		if m.run < len(runs) {
			runs[m.run].n += n
		} else {
			runs = append(runs, mvmRun{w: w[m.row:], stride: p.stride, n: n, src: m.src})
		}
		if i == 0 {
			cols = p.wcols
		}
		uniform = uniform && p.wcols == cols
	}
	for i := range ch.members {
		bm.settleNode(ch.members[i].srcNode)
		if i == 0 && ch.dstNode >= 0 {
			// Where running the members apart would mark it: after the first.
			bm.markCIMOutput(ch.dstNode)
		}
	}
	k := mvmCall{
		act: st.mem, actStride: st.stride, out: st.mem, outStride: st.stride, lanes: st.lanes,
		runs: runs, cols: cols, limit: ch.limit,
		dst: ch.dst, stride: ch.stride, acc: ch.acc,
	}
	if uniform {
		k.run()
		return nil
	}
	next := 0
	for i := range ch.members {
		if m := &ch.members[i]; m.run == next { // the member that starts run next
			k.runs, k.cols = runs[next:next+1], st.prog[m.xb].wcols
			k.run()
			k.acc, next = true, next+1
		}
	}
	return nil
}

// gatherPlan computes the index plan of window w of node n's input: for each
// weight-matrix row — (ic, ky, kx) order for convolutions over an NCHW
// region, a contiguous token row for matrix Dense, the whole vector for vector
// Dense — the lane-relative source address, or -1 for zero padding. The plan
// depends only on geometry, so one plan serves every lane.
func (img *Image) gatherPlan(n *graph.Node, w, srcBase int64, plan []int64) error {
	switch n.Op {
	case graph.OpConv:
		in := img.g.MustNode(n.Inputs[0]).OutShape
		inC, h, wd := in[0], in[1], in[2]
		outW := n.OutShape[2]
		oy := int(w) / outW
		ox := int(w) % outW
		kH, kW := n.Attr.KernelH, n.Attr.KernelW
		st, pad := n.Attr.Stride, n.Attr.Padding
		y0, x0 := oy*st-pad, ox*st-pad
		idx := 0
		for ic := 0; ic < inC; ic++ {
			for ky := 0; ky < kH; ky++ {
				iy := y0 + ky
				rowBase := srcBase + int64((ic*h+iy)*wd)
				for kx := 0; kx < kW; kx++ {
					ix := x0 + kx
					if iy < 0 || iy >= h || ix < 0 || ix >= wd {
						plan[idx] = -1
					} else {
						plan[idx] = rowBase + int64(ix)
					}
					idx++
				}
			}
		}
		return nil
	case graph.OpDense:
		rows := int64(len(plan))
		base := srcBase
		if len(n.OutShape) == 2 {
			base += w * rows
		}
		for i := int64(0); i < rows; i++ {
			plan[i] = base + i
		}
		return nil
	}
	return fmt.Errorf("gather for unsupported op %s", n.Op)
}

// nodeMatrix is a CIM node's quantized weight matrix in the layout reads
// consume (mvm.go), for readcore — a core computes a node's MVMs without the
// flow naming crossbars. Its word format and guard bound follow from its own
// row count.
type nodeMatrix struct {
	w     []int64
	limit int64
}

// matrixOf lays node's weight matrix out for readcore, once per flow.
func (cf *CompiledFlow) matrixOf(node int) nodeMatrix {
	if m, ok := cf.matrices[node]; ok {
		return m
	}
	img := cf.img
	qw, rows, cols := img.qweights[node], img.wDims[node][0], img.wDims[node][1]
	m := nodeMatrix{limit: wordLimit(rows, img.a.WeightBits, img.a.ActBits)}
	m.w = make([]int64, wordsFor(cols, m.limit >= 0)*rows)
	for i := 0; i < rows; i++ {
		for j, v := range qw[i*cols : (i+1)*cols] {
			placeWeight(m.w, rows, i, j, int64(v), m.limit >= 0)
		}
	}
	if cf.matrices == nil {
		cf.matrices = make(map[int]nodeMatrix)
	}
	cf.matrices[node] = m
	return m
}

// gather copies the words plan names out of one lane into dst, zero where the
// plan says padding.
func gather(dst, lm, plan []int64) {
	for i, idx := range plan {
		if idx < 0 {
			dst[i] = 0
		} else {
			dst[i] = lm[idx]
		}
	}
}

// compileReadCore compiles a whole operator window range on a core (MOP_CM):
// the core's internal crossbars perform the same quantized arithmetic, so the
// kernel gathers each window of every lane and runs the MVM microkernel over
// the node's weight matrix.
func (img *Image) compileReadCore(cf *CompiledFlow, o mop.ReadCore) (kernel, error) {
	n, err := img.g.Node(o.Node)
	if err != nil {
		return nil, err
	}
	if _, ok := img.qweights[o.Node]; !ok {
		return nil, fmt.Errorf("no quantized weights for node %d", o.Node)
	}
	if o.WinStart < 0 || o.WinCount < 0 || o.WinStart > n.MVMCount()-o.WinCount {
		return nil, fmt.Errorf("windows [%d,%d) outside the node's %d", o.WinStart, o.WinStart+o.WinCount, n.MVMCount())
	}
	if in := img.g.MustNode(n.Inputs[0]).OutShape; !img.inLane(o.Src, graph.NumElements(in)) || !img.inLane(o.Dst, graph.NumElements(n.OutShape)) {
		return nil, fmt.Errorf("input at %d or output at %d outside the lane's %d words", o.Src, o.Dst, img.lay.Total)
	}
	rows, cols := img.wDims[o.Node][0], img.wDims[o.Node][1]
	mat := cf.matrixOf(o.Node)
	srcNode := img.nodeAt(o.Src)
	// Output column j of window w lands at Dst + j·cj + w·cw: channel-major
	// for conv (NCHW), token-major for matrix Dense, a plain vector otherwise.
	var cj, cw int64
	switch {
	case n.Op == graph.OpConv:
		cj, cw = int64(n.OutShape[1])*int64(n.OutShape[2]), 1
	case len(n.OutShape) == 2:
		cj, cw = 1, int64(n.OutShape[1])
	default:
		cj, cw = 1, 0
	}
	return func(bm *BatchMachine) error {
		st := bm.st
		bm.settleNode(srcNode)
		plan := st.planBuf(rows)
		k := mvmCall{
			act: st.gatherBuf(st.lanes * rows), actStride: int64(rows), out: st.mem, outStride: st.stride, lanes: st.lanes,
			runs: []mvmRun{{w: mat.w, stride: rows, n: rows}}, cols: cols, limit: mat.limit, stride: cj,
		}
		for w := o.WinStart; w < o.WinStart+o.WinCount; w++ {
			if err := bm.img.gatherPlan(n, w, o.Src, plan); err != nil {
				return err
			}
			for l := 0; l < st.lanes; l++ {
				gather(k.act[l*rows:(l+1)*rows], st.lane(l), plan)
			}
			k.dst = o.Dst + w*cw
			k.run()
		}
		bm.markCIMOutput(o.Node)
		return nil
	}, nil
}

func (img *Image) compileMov(o mop.Mov) (kernel, error) {
	if !img.inLane(o.Src, o.Len) || !img.inLane(o.Dst, o.Len) {
		return nil, fmt.Errorf("source or destination run outside the lane's %d words", img.lay.Total)
	}
	srcNode := img.nodeAt(o.Src)
	dstNode := img.nodeAt(o.Dst)
	// Whole-region copies propagate the source's numeric domain (Flatten,
	// Identity) — resolved statically.
	propagate := dstNode >= 0 && srcNode >= 0 &&
		o.Dst == img.base[dstNode] && o.Len == img.size[dstNode]
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
	}, nil
}

func (img *Image) compileMovWindow(o mop.MovWindow) (kernel, error) {
	n, err := img.g.Node(o.Node)
	if err != nil {
		return nil, err
	}
	if n.Op != graph.OpConv {
		return nil, fmt.Errorf("mov_window on non-conv node %d", o.Node)
	}
	rows := n.WeightShape[1] * n.WeightShape[2] * n.WeightShape[3]
	if o.Window < 0 || o.Window >= n.MVMCount() {
		return nil, fmt.Errorf("window %d outside the node's %d", o.Window, n.MVMCount())
	}
	if in := img.g.MustNode(n.Inputs[0]).OutShape; !img.inLane(o.SrcBase, graph.NumElements(in)) || !img.inLane(o.Dst, int64(rows)) {
		return nil, fmt.Errorf("input at %d or gathered window at %d outside the lane's %d words", o.SrcBase, o.Dst, img.lay.Total)
	}
	srcNode := img.nodeAt(o.SrcBase)
	return func(bm *BatchMachine) error {
		st := bm.st
		bm.settleNode(srcNode)
		plan := st.planBuf(rows)
		if err := bm.img.gatherPlan(n, o.Window, o.SrcBase, plan); err != nil {
			return err
		}
		for l := 0; l < st.lanes; l++ {
			lm := st.lane(l)
			gather(lm[o.Dst:o.Dst+int64(rows)], lm, plan)
		}
		return nil
	}, nil
}

// compileDcom compiles a digital-compute operator: dequantize the inputs, run
// the float reference kernel, requantize into the node's activation domain.
func (img *Image) compileDcom(o mop.Dcom) (kernel, error) {
	n, err := img.g.Node(o.Node)
	if err != nil {
		return nil, err
	}
	if !img.inLane(o.Dst, o.Len) {
		return nil, fmt.Errorf("destination run outside the lane's %d words", img.lay.Total)
	}
	if n.Op == graph.OpReLU {
		return img.compileDcomReLU(o, n)
	}
	q := img.actScale[o.Node]
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

// compileDcomReLU specializes the allocation-free ReLU: it replicates the
// generic dequantize → float kernel → requantize pipeline element by element
// (including the float32 division Quantize performs), so outputs stay
// bit-identical to compileDcom's while skipping three tensor allocations per
// lane.
func (img *Image) compileDcomReLU(o mop.Dcom, n *graph.Node) (kernel, error) {
	in := n.Inputs[0]
	base, size := img.base[in], img.size[in]
	if size != o.Len {
		return nil, fmt.Errorf("dcom %s output length %d does not match len %d", o.Fn, size, o.Len)
	}
	q := img.actScale[o.Node]
	if err := q.Validate(); err != nil {
		return nil, err
	}
	maxQ, scale := q.MaxQ(), q.Scale
	maxIn := int64(img.actScale[in].MaxQ())
	return func(bm *BatchMachine) error {
		st := bm.st
		bm.settleNode(in)
		inScale := st.regionScale[in]
		if inScale == 0 {
			inScale = float64(img.actScale[in].Scale)
		}
		reluQuant := func(v int64) int64 {
			f := float32(float64(v) * inScale)
			if f < 0 {
				f = 0
			}
			r := int32(math.RoundToEven(float64(f / scale)))
			if r > maxQ {
				r = maxQ
			}
			if r < -maxQ {
				r = -maxQ
			}
			return int64(r)
		}
		// Settled activations are clamped to the input's quantized range, so
		// for the usual low-precision activations (8-bit in every preset)
		// the requantization of every representable value is tabulated once
		// per micro-batch and the per-element division becomes a lookup.
		// High-precision configurations would make the table larger than the
		// work it saves, so they take the direct loop.
		if maxIn <= 1<<12 && size >= maxIn {
			table := st.tableBuf(2*maxIn + 1)
			for v := -maxIn; v <= maxIn; v++ {
				table[v+maxIn] = reluQuant(v)
			}
			for l := 0; l < st.lanes; l++ {
				lm := st.lane(l)
				for i := int64(0); i < size; i++ {
					v := lm[base+i]
					if v >= -maxIn && v <= maxIn {
						lm[o.Dst+i] = table[v+maxIn]
					} else {
						lm[o.Dst+i] = reluQuant(v)
					}
				}
			}
		} else {
			for l := 0; l < st.lanes; l++ {
				lm := st.lane(l)
				for i := int64(0); i < size; i++ {
					lm[o.Dst+i] = reluQuant(lm[base+i])
				}
			}
		}
		st.regionScale[o.Node] = float64(q.Scale)
		st.regionRaw[o.Node] = false
		return nil
	}, nil
}
