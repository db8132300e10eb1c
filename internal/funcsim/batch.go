package funcsim

import (
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
// (addresses, shapes, node regions, dispatch, weight tiles) resolved at
// compile time. A CompiledFlow is immutable and safe for concurrent use; each
// execution supplies its own BatchState.
type CompiledFlow struct {
	img     *Image
	kernels []kernel
	ops     []mop.Op // flattened, parallel groups inlined; for error text

	// tiles caches the transposed weight tiles built at compile time, so the
	// hundreds of readxb ops sweeping one crossbar — and the ops sweeping every
	// crossbar that aliases its baseline array (ProgramInit) — share one tile.
	tiles map[tileKey]readTile
	// writeTiles interns the tiles write ops program, so the copies and rounds
	// a body rewrites share one bit-sliced tile too.
	writeTiles map[writeTile]slicedTile
}

// tileKey identifies a read op's weight tile: the baseline weight array it is
// cut from (by its first word — crossbars programmed alike share the array)
// plus the row range.
type tileKey struct {
	base       *int64
	row, nrows int
}

// readTile is a read op's weight tile transposed to column-major (nWCols
// runs of nrows weights, contiguous per weight column). It is sliced from the
// image's frozen weights, so kernels may use it only while the crossbar still
// shares the image's cells (st.cellShared); once the body reprograms the
// crossbar, reads walk the state's row-major weights instead.
type readTile struct {
	wT     []int64
	nWCols int
}

// tile returns the transposed weight tile for rows [row, row+nrows) of
// crossbar xb, cut from the image's frozen weights on first use: wT[j·nrows+i]
// is weight column j's entry for activation row i, so the MVM inner loop walks
// one contiguous run per output column. A zero tile (wT == nil) means the tile
// cannot be precomputed — the crossbar is not programmed at image baseline —
// and the kernel reads the state's row-major weights.
func (cf *CompiledFlow) tile(xb, row, nrows int) readTile {
	img := cf.img
	wc := img.baseWeights[xb]
	p := img.baseProg[xb]
	if wc == nil || nrows <= 0 || row < 0 || row+nrows > p.rows {
		return readTile{}
	}
	key := tileKey{&wc[0], row, nrows}
	if t, ok := cf.tiles[key]; ok {
		return t
	}
	s := img.a.CellsPerWeight()
	nWCols := p.cols / s
	nWAll := img.a.XB.Cols / s
	wT := make([]int64, nWCols*nrows)
	for i := 0; i < nrows; i++ {
		off := (row + i) * nWAll
		for j := 0; j < nWCols; j++ {
			wT[j*nrows+i] = wc[off+j]
		}
	}
	t := readTile{wT: wT, nWCols: nWCols}
	if cf.tiles == nil {
		cf.tiles = make(map[tileKey]readTile)
	}
	cf.tiles[key] = t
	return t
}

type kernel func(bm *BatchMachine) error

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
	// data), indexed by chip-global crossbar ID: the cell array, the weights
	// a read reconstructs from it (row-major rows × cols/s), and what the
	// crossbar holds. cells and weights alias the image's arrays (cellShared)
	// until a write kernel copies them into the state's own, so reprogramming
	// in multi-round flows never writes through to the image. dirty lists the
	// crossbars made private since the last reset — all a reset against the
	// same image has to restore.
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
	colSums []int64 // per-weight-column accumulators
	plan    []int64 // window-gather index plan (-1 = zero padding)
	table   []int64 // requantization lookup table
}

func (st *BatchState) lane(l int) []int64 {
	off := int64(l) * st.stride
	return st.mem[off : off+st.stride : off+st.stride]
}

func (st *BatchState) colSumsBuf(n int) []int64 {
	if cap(st.colSums) < n {
		st.colSums = make([]int64, n)
	}
	return st.colSums[:n]
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
			return fmt.Errorf("funcsim: op %d (%s): %w", i, cf.ops[i], err)
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

// CompileBody compiles a flow section into per-operator kernel closures
// specialized on op, shape and precision: parallel groups are flattened,
// buffer addresses are resolved to node regions, window-gather geometry
// generators and destination strides are fixed, write tiles are bit-sliced,
// and all statically checkable operands are validated here so the hot loop
// carries no dispatch or resolution work. Read tiles are cut from the
// image's baseline, so compile a serving body after ProgramInit.
func (img *Image) CompileBody(body []mop.Op) (*CompiledFlow, error) {
	cf := &CompiledFlow{img: img}
	err := eachLeaf(body, func(op mop.Op) error {
		k, err := img.compileOp(op, cf)
		if err != nil {
			return fmt.Errorf("funcsim: compile %s: %w", op, err)
		}
		cf.kernels = append(cf.kernels, k)
		cf.ops = append(cf.ops, op)
		return nil
	})
	if err != nil {
		return nil, err
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

func (img *Image) compileOp(op mop.Op, cf *CompiledFlow) (kernel, error) {
	if xb, w, ok := writeOperands(op); ok {
		return img.compileWrite(cf, xb, w)
	}
	switch o := op.(type) {
	case mop.ReadXB:
		return img.compileRead(cf, o.XB, 0, -1, o.Src, o.Dst, o.DstStride, o.Acc)
	case mop.ReadRow:
		if o.NumRows > img.a.XB.ParallelRow {
			return nil, fmt.Errorf("readrow activates %d rows but parallel_row is %d", o.NumRows, img.a.XB.ParallelRow)
		}
		return img.compileRead(cf, o.XB, o.Row, o.NumRows, o.Src, o.Dst, o.DstStride, o.Acc)
	case mop.ReadCore:
		return img.compileReadCore(o)
	case mop.Mov:
		return img.compileMov(o)
	case mop.MovWindow:
		return img.compileMovWindow(o)
	case mop.Dcom:
		return img.compileDcom(o)
	}
	return nil, fmt.Errorf("unknown op type %T", op)
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
// slicing) and the weights a read reconstructs from them.
type slicedTile struct {
	cells   []uint8 // rows × cols
	weights []int64 // rows × cols/s
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
	tile, ok := cf.writeTiles[w.writeTile]
	if !ok {
		tile = slicedTile{cells: make([]uint8, rows*cols), weights: make([]int64, rows*nW)}
		sl := make([]uint32, s)
		for i := 0; i < rows; i++ {
			for j := 0; j < nW; j++ {
				sl = tensor.BitSliceInto(sl, qw[(cellRowOff+i)*dims[1]+wColOff+j], a.WeightBits, a.XB.CellBits)
				for k, v := range sl {
					tile.cells[i*cols+j*s+k] = uint8(v)
				}
				tile.weights[i*nW+j] = int64(tensor.FromBitSlices(sl, a.WeightBits, a.XB.CellBits))
			}
		}
		if cf.writeTiles == nil {
			cf.writeTiles = make(map[writeTile]slicedTile)
		}
		cf.writeTiles[w.writeTile] = tile
	}
	xbCols, nWAll := a.XB.Cols, a.XB.Cols/s
	return func(bm *BatchMachine) error {
		st := bm.st
		p := &st.prog[xb]
		fresh := p.node != node || p.rowDelta != cellRowOff-rowStart || p.cellColOff != cellColOff
		if fresh {
			// Reprogramming with a new tile: the array starts cleared.
			*p = xbProg{node: node, rowDelta: cellRowOff - rowStart, cellColOff: cellColOff}
		}
		p.rows = max(p.rows, rowStart+rows)
		p.cols = max(p.cols, cols)
		cells, weights := st.privateXB(bm.img, xb, fresh)
		for i := 0; i < rows; i++ {
			copy(cells[(rowStart+i)*xbCols:], tile.cells[i*cols:(i+1)*cols])
			copy(weights[(rowStart+i)*nWAll:], tile.weights[i*nW:(i+1)*nW])
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
		st.ownWeights[xb] = make([]int64, a.XB.Rows*(a.XB.Cols/a.CellsPerWeight()))
	}
	cells, weights := st.ownCells[xb], st.ownWeights[xb]
	if st.cellShared[xb] || st.cells[xb] == nil {
		st.dirty = append(st.dirty, xb)
	}
	switch {
	case fresh || st.cells[xb] == nil:
		clear(cells)
		clear(weights)
	case st.cellShared[xb]:
		copy(cells, st.cells[xb])
		copy(weights, st.weights[xb])
	}
	st.cells[xb], st.weights[xb], st.cellShared[xb] = cells, weights, false
	return cells, weights
}

// compileRead compiles a readxb (nrows < 0: every programmed row) or readrow.
// While the crossbar still aliases the image the kernel takes the transposed
// tile cut at compile time; once a body write has made it private — or when
// nothing was programmed at baseline — it reads the state's row-major weights.
func (img *Image) compileRead(cf *CompiledFlow, xb, row, nrows int, src, dst, stride int64, acc bool) (kernel, error) {
	if xb < 0 || xb >= len(img.baseCells) {
		return nil, fmt.Errorf("crossbar %d out of range", xb)
	}
	srcNode, dstNode := img.nodeAt(src), img.nodeAt(dst)
	tileRows := nrows
	if nrows < 0 {
		tileRows = img.baseProg[xb].rows
	}
	tile := cf.tile(xb, row, tileRows)
	return func(bm *BatchMachine) error {
		if tile.wT != nil && bm.st.cellShared[xb] {
			bm.readRowsT(tileRows, tile, src, dst, stride, acc, srcNode, dstNode)
			return nil
		}
		n := nrows
		if n < 0 {
			n = bm.st.prog[xb].rows
		}
		return bm.readRows(xb, row, n, src, dst, stride, acc, srcNode, dstNode)
	}, nil
}

// readRowsT is the analog MVM over a compile-time transposed weight tile:
// each output column is a register-accumulated, branchless dot product over
// one contiguous run of wT, so no per-column accumulator array travels through
// memory. Valid only while the crossbar still aliases the image's cells (the
// caller checks st.cellShared); integer partial sums reassociate exactly, so
// results are bit-identical to readRows.
func (bm *BatchMachine) readRowsT(nrows int, tile readTile, src, dst, stride int64, acc bool, srcNode, dstNode int) {
	st := bm.st
	bm.settleNode(srcNode)
	wT, nWCols := tile.wT, tile.nWCols
	// Lane-blocked: four lanes share each weight load, so the tile streams
	// through the cache once per block instead of once per lane, and the four
	// accumulator chains are independent. Per-lane sums still add rows in
	// ascending order whatever the block width.
	l := 0
	for ; l+3 < st.lanes; l += 4 {
		lm0, lm1, lm2, lm3 := st.lane(l), st.lane(l+1), st.lane(l+2), st.lane(l+3)
		end := src + int64(nrows)
		a0 := lm0[src:end:end]
		a1 := lm1[src:end:end]
		a2 := lm2[src:end:end]
		a3 := lm3[src:end:end]
		addr := dst
		for j := 0; j < nWCols; j++ {
			wrow := wT[j*nrows : (j+1)*nrows : (j+1)*nrows]
			var s0, s1, s2, s3 int64
			for i, w := range wrow {
				s0 += a0[i] * w
				s1 += a1[i] * w
				s2 += a2[i] * w
				s3 += a3[i] * w
			}
			if acc {
				lm0[addr] += s0
				lm1[addr] += s1
				lm2[addr] += s2
				lm3[addr] += s3
			} else {
				lm0[addr] = s0
				lm1[addr] = s1
				lm2[addr] = s2
				lm3[addr] = s3
			}
			addr += stride
		}
	}
	for ; l+1 < st.lanes; l += 2 {
		lm0, lm1 := st.lane(l), st.lane(l+1)
		end := src + int64(nrows)
		a0 := lm0[src:end:end]
		a1 := lm1[src:end:end]
		addr := dst
		for j := 0; j < nWCols; j++ {
			wrow := wT[j*nrows : (j+1)*nrows : (j+1)*nrows]
			var s0, s1 int64
			for i, w := range wrow {
				s0 += a0[i] * w
				s1 += a1[i] * w
			}
			if acc {
				lm0[addr] += s0
				lm1[addr] += s1
			} else {
				lm0[addr] = s0
				lm1[addr] = s1
			}
			addr += stride
		}
	}
	for ; l < st.lanes; l++ {
		lm := st.lane(l)
		avs := lm[src : src+int64(nrows) : src+int64(nrows)]
		addr := dst
		for j := 0; j < nWCols; j++ {
			wrow := wT[j*nrows : (j+1)*nrows : (j+1)*nrows]
			// Four partial sums: a lone lane (every single request) has no
			// neighbour lane to hide the multiply latency behind.
			var s0, s1, s2, s3 int64
			i := 0
			for ; i+4 <= len(wrow); i += 4 {
				a, w := avs[i:i+4:i+4], wrow[i:i+4:i+4]
				s0 += a[0] * w[0]
				s1 += a[1] * w[1]
				s2 += a[2] * w[2]
				s3 += a[3] * w[3]
			}
			for ; i < len(wrow); i++ {
				s0 += avs[i] * wrow[i]
			}
			sum := s0 + s1 + s2 + s3
			if acc {
				lm[addr] += sum
			} else {
				lm[addr] = sum
			}
			addr += stride
		}
	}
	if dstNode >= 0 {
		bm.markCIMOutput(dstNode)
	}
}

// readRows is the analog MVM over the crossbar view's row-major weights:
// inputs stream from src, zero activations skip their weight row, and
// per-weight-column sums are written (or accumulated) at dst with the given
// stride.
func (bm *BatchMachine) readRows(xb, row, nrows int, src, dst, stride int64, acc bool, srcNode, dstNode int) error {
	st := bm.st
	wc := st.weights[xb]
	if wc == nil {
		return fmt.Errorf("crossbar %d not programmed", xb)
	}
	p := &st.prog[xb]
	if row+nrows > p.rows {
		return fmt.Errorf("read rows [%d,%d) exceed programmed rows %d", row, row+nrows, p.rows)
	}
	bm.settleNode(srcNode)
	s := bm.img.a.CellsPerWeight()
	nWCols, nWAll := p.cols/s, bm.img.a.XB.Cols/s
	sums := st.colSumsBuf(nWCols)
	for l := 0; l < st.lanes; l++ {
		lm := st.lane(l)
		clear(sums)
		for i, av := range lm[src : src+int64(nrows)] {
			if av == 0 {
				continue
			}
			off := (row + i) * nWAll
			rowW := wc[off : off+nWCols : off+nWCols]
			j := 0
			for ; j+3 < len(rowW); j += 4 {
				s0 := sums[j] + av*rowW[j]
				s1 := sums[j+1] + av*rowW[j+1]
				s2 := sums[j+2] + av*rowW[j+2]
				s3 := sums[j+3] + av*rowW[j+3]
				sums[j], sums[j+1], sums[j+2], sums[j+3] = s0, s1, s2, s3
			}
			for ; j < len(rowW); j++ {
				sums[j] += av * rowW[j]
			}
		}
		addr := dst
		if acc {
			for j := 0; j < nWCols; j++ {
				lm[addr] += sums[j]
				addr += stride
			}
		} else {
			for j := 0; j < nWCols; j++ {
				lm[addr] = sums[j]
				addr += stride
			}
		}
	}
	if dstNode >= 0 {
		bm.markCIMOutput(dstNode)
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

// compileReadCore compiles a whole operator window range on a core (MOP_CM):
// the core's internal crossbars perform the same quantized arithmetic, so the
// kernel computes the integer MVMs directly from the node's quantized weight
// matrix.
func (img *Image) compileReadCore(o mop.ReadCore) (kernel, error) {
	n, err := img.g.Node(o.Node)
	if err != nil {
		return nil, err
	}
	qw, ok := img.qweights[o.Node]
	if !ok {
		return nil, fmt.Errorf("no quantized weights for node %d", o.Node)
	}
	dims := img.wDims[o.Node]
	rows, cols := dims[0], dims[1]
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
		sums := st.colSumsBuf(cols)
		for w := o.WinStart; w < o.WinStart+o.WinCount; w++ {
			if err := bm.img.gatherPlan(n, w, o.Src, plan); err != nil {
				return err
			}
			for l := 0; l < st.lanes; l++ {
				lm := st.lane(l)
				clear(sums)
				for i := 0; i < rows; i++ {
					idx := plan[i]
					if idx < 0 {
						continue
					}
					av := lm[idx]
					if av == 0 {
						continue
					}
					wr := qw[i*cols : (i+1)*cols : (i+1)*cols]
					j := 0
					for ; j+3 < len(wr); j += 4 {
						s0 := sums[j] + av*int64(wr[j])
						s1 := sums[j+1] + av*int64(wr[j+1])
						s2 := sums[j+2] + av*int64(wr[j+2])
						s3 := sums[j+3] + av*int64(wr[j+3])
						sums[j], sums[j+1], sums[j+2], sums[j+3] = s0, s1, s2, s3
					}
					for ; j < len(wr); j++ {
						sums[j] += av * int64(wr[j])
					}
				}
				base := o.Dst + w*cw
				for j := 0; j < cols; j++ {
					lm[base+int64(j)*cj] = sums[j]
				}
			}
		}
		bm.markCIMOutput(o.Node)
		return nil
	}, nil
}

func (img *Image) compileMov(o mop.Mov) (kernel, error) {
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
			for i, idx := range plan {
				if idx < 0 {
					lm[o.Dst+int64(i)] = 0
				} else {
					lm[o.Dst+int64(i)] = lm[idx]
				}
			}
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
