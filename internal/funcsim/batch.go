package funcsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cimmlc/internal/codegen"
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
	writeTiles map[codegen.Tile]slicedTile
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
// op, shape and precision: parallel groups are flattened, every operator is
// resolved by the image's codegen.Resolver — the operand calculus the dataflow
// analysis checks flows with, so a kernel addresses exactly the words the
// verifier saw and an operand the verifier would reject fails here with the
// same diagnosis, verifier on or off — window-gather geometry generators are
// fixed, write tiles are bit-sliced, and consecutive reads that accumulate
// into the same words are fused into one kernel, so the hot loop carries no
// dispatch or resolution work and no operator can address outside its
// regions. What a crossbar holds is run-time state (a body may reprogram it),
// so a read is completed against it (XBRecord.Activate) by the kernel, before
// it writes.
func (img *Image) CompileBody(body []mop.Op) (*CompiledFlow, error) {
	// Sized once from a count of the leaves: flows run to millions of them.
	leaves, reads := 0, 0
	_ = eachLeaf(body, func(op mop.Op) error { // the visitor never fails
		switch op.(type) {
		case mop.ReadXB, mop.ReadRow:
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
	case mop.ReadCore:
		return img.compileReadCore(cf, o, ops), nil
	case mop.Mov:
		return img.compileMov(o, ops), nil
	case mop.MovWindow:
		return img.compileMovWindow(o, ops), nil
	case mop.Dcom:
		return img.compileDcom(o)
	}
	return nil, fmt.Errorf("unknown op type %T", op)
}

// slicedTile is a codegen.Tile's content: the cell bytes (Figure 7's B→XBC bit
// slicing) and the weights those cells reconstruct to, in the layout reads
// consume (mvm.go) — the cell bytes themselves are never read back.
type slicedTile struct {
	cells   []uint8 // rows × cols, row-major
	weights []int64 // column-major in the image's word format, rows words per run
}

// compileWrite compiles one resolved tile write. The tile's content is
// static, so it is sliced here, once per distinct tile of the flow; the kernel
// copies it into the state's crossbar view. Weight programming is
// lane-invariant: one copy per micro-batch amortizes reprogramming
// (multi-round flows) across its lanes.
func (img *Image) compileWrite(cf *CompiledFlow, w codegen.TileWrite) kernel {
	a := img.a
	xb, rowStart, rows, cols := w.XB, w.Row, w.Rows, w.Cols
	qw, dims := img.qweights[w.Node], img.wDims[w.Node]
	s := a.CellsPerWeight()
	wColOff, nW := w.CellColOff/s, cols/s
	packed, xbRows := img.packed, a.XB.Rows
	tile, ok := cf.writeTiles[w.Tile]
	if !ok {
		tile = slicedTile{cells: make([]uint8, rows*cols), weights: make([]int64, wordsFor(nW, packed)*rows)}
		sl := make([]uint32, s)
		for i := 0; i < rows; i++ {
			for j := 0; j < nW; j++ {
				sl = tensor.BitSliceInto(sl, qw[(w.CellRowOff+i)*dims[1]+wColOff+j], a.WeightBits, a.XB.CellBits)
				for k, v := range sl {
					tile.cells[i*cols+j*s+k] = uint8(v)
				}
				placeWeight(tile.weights, rows, i, j, int64(tensor.FromBitSlices(sl, a.WeightBits, a.XB.CellBits)), packed)
			}
		}
		if cf.writeTiles == nil {
			cf.writeTiles = make(map[codegen.Tile]slicedTile)
		}
		cf.writeTiles[w.Tile] = tile
	}
	xbCols := a.XB.Cols
	whole := nW // the tile's column words that it fills entirely
	if packed {
		whole = nW / 2
	}
	return func(bm *BatchMachine) error {
		st := bm.st
		// Reprogramming with a new tile: the array starts cleared.
		fresh := bm.img.res.Program(&st.prog[xb].XBRecord, w)
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
	}
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
// resolved read, the node whose region it streams activations from (-1:
// scratch), and the chain's dot-product run the member belongs to — a readrow
// that continues an earlier member's wordlines and source run (parallel_row
// cuts one tile's rows into several reads) lengthens that member's run instead
// of starting its own.
type xbRead struct {
	codegen.XBRead
	srcNode, run int32
}

// readChain is the kernel of a maximal run of consecutive reads that
// accumulate into the same words: every member after the first has Acc set
// and the first's Dst and Stride. Integer addition is associative and
// commutative, so summing the members' dot products in registers and storing
// each output once leaves what running them one after another leaves —
// provided no member reads what the chain writes (compileReads). A read with
// no such neighbour is a chain of one: there is no other read path.
type readChain struct {
	members []xbRead
	limit   int64 // word format and guard bound for sums over all members' rows (mvm.go)
}

// compileReads compiles the accumulation chain that starts at cf.ops[at] and
// reports how many operators it takes in; none when cf.ops[at] is no crossbar
// read.
func (img *Image) compileReads(cf *CompiledFlow, at int) (kernel, int, error) {
	a := img.a
	ch := &readChain{}
	maxCols := a.XB.Cols / a.CellsPerWeight()
	rows, start := 0, len(cf.members)
	var head codegen.XBRead
	var endsBuf [8]xbRead
	ends := endsBuf[:0] // per run, the member that would lengthen it
	for j := at; j < len(cf.ops); j++ {
		rd, ok, err := img.res.ResolveRead(cf.ops[j])
		if j == at {
			if head = rd; !ok || err != nil {
				return nil, 0, err
			}
		} else if !ok || err != nil || !rd.Acc || rd.Dst != head.Dst || rd.Stride != head.Stride {
			break // a bad read heads the next chain, which is where its error is reported
		}
		r := xbRead{XBRead: rd, srcNode: int32(img.res.Owner(img.res.NodeRegionAt(rd.Src)))}
		n := int(r.Rows)
		if n < 0 {
			n = a.XB.Rows // what a readxb activates is the crossbar's to say
		}
		// A member must not read what the chain writes: its source run, for
		// the sums' sake, nor its source node's region, which it settles
		// before the chain runs instead of after the members ahead of it.
		lo, hi := r.Src, r.Src+int64(n)
		if r.srcNode >= 0 {
			lo, hi = min(lo, img.base[r.srcNode]), max(hi, img.base[r.srcNode]+img.size[r.srcNode])
		}
		alone := strideTouches(head.Dst, head.Stride, maxCols, lo, hi)
		// Nor may the chain's rows outgrow what a packed half can sum; a lone
		// read's never do, or the image would not be packed.
		limit := int64(-1)
		if img.packed {
			limit = wordLimit(rows+n, a.WeightBits, a.ActBits)
		}
		if j > at && (alone || img.packed && limit < 0) {
			break
		}
		// A readrow that starts where an earlier member's wordlines and source
		// run end lengthens that member's run; a readxb's run ends nowhere
		// known before the crossbar is looked at.
		r.run = int32(slices.IndexFunc(ends, func(e xbRead) bool { return e.XB == r.XB && e.Row == r.Row && e.Src == r.Src }))
		if r.run < 0 {
			r.run, ends = int32(len(ends)), append(ends, xbRead{})
		}
		ends[r.run].XB = -1
		if r.Rows >= 0 {
			ends[r.run].XBRead = codegen.XBRead{XB: r.XB, Row: r.Row + r.Rows, Src: r.Src + int64(n)}
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
// hold now — programmed at all, the rows read, the columns' destination words
// inside the programmed node's region (XBRecord.Activate), equal column
// counts — is settled for every member before anything is written; members
// that turn out to hold different column counts run as chains of one.
func (ch *readChain) run(bm *BatchMachine) error {
	st := bm.st
	runs := st.runsBuf(len(ch.members))
	node, cols, uniform := -1, 0, true
	for i := range ch.members {
		m := &ch.members[i]
		p := &st.prog[m.XB]
		n, err := p.Activate(&m.XBRead)
		if err != nil {
			return opError{i, err}
		}
		if int(m.run) < len(runs) {
			runs[m.run].n += n
		} else {
			runs = append(runs, mvmRun{w: st.weights[m.XB][m.Row:], stride: p.stride, n: n, src: m.Src})
		}
		if i == 0 {
			node, cols = int(p.Node), int(p.WCols)
		}
		uniform = uniform && int(p.WCols) == cols
	}
	for i := range ch.members {
		bm.settleNode(int(ch.members[i].srcNode))
		if i == 0 {
			// Where running the members apart would mark it: after the first.
			// Every member writes the head's words, which lie in one node's
			// region: the node every member's crossbar is programmed with.
			bm.markCIMOutput(node)
		}
	}
	head := &ch.members[0]
	k := mvmCall{
		act: st.mem, actStride: st.stride, out: st.mem, outStride: st.stride, lanes: st.lanes,
		runs: runs, cols: cols, limit: ch.limit,
		dst: head.Dst, stride: head.Stride, acc: head.Acc,
	}
	if uniform {
		k.run()
		return nil
	}
	next := 0
	for i := range ch.members {
		if m := &ch.members[i]; int(m.run) == next { // the member that starts run next
			k.runs, k.cols = runs[next:next+1], int(st.prog[m.XB].WCols)
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
func (img *Image) compileReadCore(cf *CompiledFlow, o mop.ReadCore, ops codegen.Operands) kernel {
	n := img.g.MustNode(o.Node)
	rows, cols := img.wDims[o.Node][0], img.wDims[o.Node][1]
	mat := cf.matrixOf(o.Node)
	srcNode := ops.RegionReads[0]
	// Output column j of window w lands at Dst + j·cj + w·cw.
	cj, cw := codegen.OutGeometry(n)
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
	}
}

func (img *Image) compileMov(o mop.Mov, ops codegen.Operands) kernel {
	srcNode, dstNode := img.res.Owner(ops.ReadRegion), img.res.Owner(ops.WriteRegion)
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
	}
}

func (img *Image) compileMovWindow(o mop.MovWindow, ops codegen.Operands) kernel {
	n := img.g.MustNode(o.Node)
	rows, srcNode := ops.Writes.Count, ops.RegionReads[0]
	return func(bm *BatchMachine) error {
		st := bm.st
		bm.settleNode(srcNode)
		plan := st.planBuf(int(rows))
		if err := bm.img.gatherPlan(n, o.Window, o.SrcBase, plan); err != nil {
			return err
		}
		for l := 0; l < st.lanes; l++ {
			lm := st.lane(l)
			gather(lm[o.Dst:o.Dst+rows], lm, plan)
		}
		return nil
	}
}

// compileDcom compiles a digital-compute operator (resolved: it writes the
// node's whole region from its graph inputs'): dequantize the inputs, run the
// float reference kernel, requantize into the node's activation domain.
func (img *Image) compileDcom(o mop.Dcom) (kernel, error) {
	n := img.g.MustNode(o.Node)
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
