// Package funcsim is the functional simulator of §4.1: it executes a
// compiled meta-operator flow against simulated crossbar state and verifies
// that the result matches the network's reference execution.
//
// The hardware model is faithful where it matters for compilation
// correctness: weights are quantized to the architecture's weight precision,
// and a write meta-operator places its tile's weights into the crossbar's
// weight array the way reads walk it — each weight spanning as many cell
// columns as Figure 7's B→XBC bit slicing gives it, whose cells reconstruct it
// exactly (tensor.BitSlice), so the weight is all a crossbar stores. A read
// meta-operator multiplies that array, taking its wordlines, columns and
// extent from what the crossbar holds when it runs, so any mis-programming,
// mis-placement or mis-gathering produces wrong numbers. Activations live in
// a flat buffer memory laid out by internal/codegen; CIM outputs are raw
// integer accumulators that the digital periphery requantizes to 8-bit
// activations when first consumed (standard post-training-quantization
// inference).
//
// State is split along the CIM stationary-weight boundary: an Image holds
// everything that survives across inferences (quantized weights, calibrated
// activation scales, the crossbar weights programmed by a flow's init section)
// and is immutable once built, so one Image serves any number of concurrent
// executions. Crossbars programmed alike — CG-level duplication replicates an
// operator's tiles so windows run in parallel — share one programmed array in
// the image, so it costs what the model's distinct tiles cost, not
// duplication × tiles. A BatchState holds the mutable residue of one
// micro-batch — one lane of activation memory per request, plus the
// lane-invariant region quantization domains and copy-on-write crossbar view —
// and is cheap to reset and reuse (a reset restores the crossbars the body
// wrote, not the chip): the compile-once / run-many execution model of the
// public Program API.
//
// There is one executor (batch.go): Image.CompileBody compiles a flow section
// into kernel closures and a BatchMachine runs them over a BatchState's
// lanes. A run of mov_windows and crossbar reads — an operator's window sweep —
// or of readcores is one kernel (sweep.go) that walks the windows itself, their
// gather geometry resolved when the flow is compiled, and streams (lane,
// window) pairs four at a time through the one MVM microkernel (mvm.go). A
// CompiledFlow is immutable except for its sweeps' published plans: what a
// sweep's reads resolve to against the view every run from the image's
// baseline finds, published by the first such run, atomically, and taken by
// every later one on any state. A single request is a one-lane micro-batch;
// weight programming (ProgramInit) and the quantized reference run the same
// kernels. State and Machine are a one-lane view of that engine, left for the
// benchmark's step-by-step replay and for tests; they hold no arithmetic of
// their own.
//
// What an operator touches is not decided here: every operator is resolved by
// internal/codegen's Resolver (operands.go) — the words and regions read and
// written, the crossbar programming record and its reprogram-reset rule, the
// CIM output geometry, every endpoint check — and the kernels are compiled
// from the resolved operands. internal/flowdata analyzes flows through the
// same resolver, so a kernel cannot address a word the verifier did not see,
// and a flow the verifier would reject for its operands fails ProgramInit,
// CompileBody or RunBody with the same rule whether or not it was verified.
//
// Image.Reference executes the same quantized semantics without crossbars,
// placement or generated flows — one operator per node, on the image's own
// scales, quantized weights and node regions — and a correct compiler +
// simulator pair must match it bit-exactly.
package funcsim

import (
	"fmt"
	"sort"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// Image is the immutable programmed accelerator state shared by every
// execution of one compiled flow: the shape-inferred graph, the buffer
// layout, quantized weights and calibrated quantization scales, plus the
// crossbar weight arrays written by the flow's init section (ProgramInit).
// Once built it is never written again, so it is safe for concurrent use
// from many goroutines, each driving its own BatchState — and from many
// Programs: a fleet's replicas are views of one Image.
type Image struct {
	g   *graph.Graph
	a   *arch.Arch
	lay *codegen.Layout
	// res resolves every operator the image compiles or programs: operand
	// geometry and endpoint checks are internal/codegen's, shared with the
	// dataflow analysis.
	res *codegen.Resolver

	// Quantization state, fixed at calibration time.
	wScale   map[int]tensor.QuantParams // CIM node → weight quantizer
	actScale map[int]tensor.QuantParams // node → output activation quantizer
	qweights map[int][]int32            // CIM node → quantized weight matrix (row-major rows×cols)
	wDims    map[int][2]int             // CIM node → (rows, cols)
	inputs   []int                      // the graph's input node IDs

	// Dense per-node layout (index = node ID), mirroring lay.Base/lay.Size
	// without map lookups on the hot path.
	base []int64
	size []int64

	// Baseline crossbar contents after the init section, indexed by
	// chip-global crossbar ID: the weight array (nil for a crossbar the init
	// section leaves unprogrammed) and what each crossbar holds. A weight
	// array is stored the way reads walk it (mvm.go): column-major, weight
	// column c's wordline r at word c·stride + r — or, packed per columns to
	// the word, columns per·c to per·c + per − 1 sharing that word, in the
	// format of the node the crossbar holds — with the stride in the
	// crossbar's xbProg. Crossbars the init section wrote alike share one
	// array (ProgramInit).
	// Arrays are shared into every state copy-on-write, so the body's
	// reprogramming operators (multi-round flows) never write through to the
	// image or to a sibling crossbar.
	baseWeights [][]int64
	baseProg    []xbProg
	// perWord is, by node ID, the word format of the node's crossbar arrays:
	// how many weight columns share a word (wordFormat, over the node's matrix
	// rows and the wordlines one read of a crossbar may sum). 1 for a node
	// without weights.
	perWord []int
}

// xbProg is what one crossbar holds — the record operand resolution keeps and
// reads are checked against — beside stride, the length of a column word's run
// in the crossbar's weight array: every wordline of the crossbar while a state
// is still writing the array, the wordlines programmed once ProgramInit has
// cut the image's to them.
type xbProg struct {
	codegen.XBRecord
	stride int
}

// NewImage calibrates and quantizes: weights are quantized to the
// architecture's weight precision, and per-node activation scales are
// calibrated by running the float reference on calib. The returned image
// has no crossbars programmed yet — ProgramInit executes a flow's init
// section into it.
func NewImage(g *graph.Graph, a *arch.Arch, lay *codegen.Layout, weights graph.Weights, calib map[int]*tensor.Tensor) (*Image, error) {
	if err := g.InferShapes(); err != nil {
		return nil, err
	}
	ref, err := graph.Execute(g, weights, calib)
	if err != nil {
		return nil, fmt.Errorf("funcsim: reference execution for calibration: %w", err)
	}
	// Every node has a region of its output's size inside the layout, or
	// kernels and LoadInputs would index past it.
	res, bad := codegen.NewResolver(g, a, lay)
	if len(bad) > 0 {
		return nil, fmt.Errorf("funcsim: layout: %w", bad[0])
	}
	img := &Image{
		g: g, a: a, lay: lay, res: res,
		wScale:      map[int]tensor.QuantParams{},
		actScale:    map[int]tensor.QuantParams{},
		qweights:    map[int][]int32{},
		wDims:       map[int][2]int{},
		inputs:      g.InputIDs(),
		baseWeights: make([][]int64, a.TotalCrossbars()),
		baseProg:    make([]xbProg, a.TotalCrossbars()),
		perWord:     make([]int, len(g.Nodes)),
	}
	for i := range img.perWord {
		img.perWord[i] = 1
	}
	for i := range img.baseProg {
		img.baseProg[i].Node = -1
	}
	for _, n := range g.Nodes {
		// An overflowed activation has no scale: NaN would calibrate like
		// zeros and ±Inf to a scale no quantizer accepts.
		if i := tensor.FirstNonFinite(ref[n.ID]); i >= 0 {
			return nil, fmt.Errorf("funcsim: calibration: node %d (%s) element %d is %v", n.ID, n.Name, i, ref[n.ID].Data()[i])
		}
		img.actScale[n.ID] = tensor.CalibrateQuant(ref[n.ID], a.ActBits)
	}
	// Sorted so that when several weights are invalid, the reported error is
	// always the lowest node ID's, not whichever the map yields first.
	for _, id := range sortedTensorKeys(weights) {
		w := weights[id]
		n := g.MustNode(id)
		mat, err := weightMatrix(n, w)
		if err != nil {
			return nil, err
		}
		// The resolver bounds tiles by the graph's matrix; they index this one.
		if rows, cols, _ := n.WeightMatrixDims(); mat.Dim(0) != rows || mat.Dim(1) != cols {
			return nil, fmt.Errorf("funcsim: node %d: weight matrix is %dx%d, the graph declares %dx%d", id, mat.Dim(0), mat.Dim(1), rows, cols)
		}
		q := tensor.CalibrateQuant(mat, a.WeightBits)
		qv, err := tensor.Quantize(mat, q)
		if err != nil {
			return nil, err
		}
		img.wScale[id] = q
		img.qweights[id] = qv
		img.wDims[id] = [2]int{mat.Dim(0), mat.Dim(1)}
		img.perWord[id] = wordFormat(mat.Dim(0), a.XB.Rows, a.WeightBits, a.ActBits)
	}
	img.base = make([]int64, len(g.Nodes))
	img.size = make([]int64, len(g.Nodes))
	for _, n := range g.Nodes {
		img.base[n.ID], img.size[n.ID] = lay.Base[n.ID], lay.Size[n.ID]
	}
	return img, nil
}

// Graph returns the image's shape-inferred graph (read-only).
func (img *Image) Graph() *graph.Graph { return img.g }

// MemWords returns the flow's addressed buffer size in words — one lane's
// memory footprint, used to budget micro-batch widths.
func (img *Image) MemWords() int64 { return img.lay.Total }

// ProgramInit programs the flow's weight-programming section into the
// image's baseline crossbar state. It must be called before any state is made
// from the image and before the image is shared across goroutines; afterwards
// every state starts from the programmed weights and executions run only the
// compute section.
//
// What a crossbar holds is a function of the writes addressed to it, in
// order, and never of its ID — CG-level duplication (§3.3.2) programs the
// same tiles onto crossbar after crossbar — so each distinct write sequence
// is programmed once: the first crossbar it is addressed to runs the write
// kernels, and every other one shares that crossbar's baseline arrays.
// Every write's operands are still resolved, and the sharing cannot be
// observed: the baseline is immutable and states write to copies.
func (img *Image) ProgramInit(init []mop.Op) error {
	if len(init) == 0 {
		return nil
	}
	// sigs is a trie of write sequences: (sequence so far, next write) → the
	// longer sequence, 0 being the empty one. sig is the sequence addressed to
	// each crossbar.
	type step struct {
		prefix, row int
		tile        codegen.Tile
	}
	sigs := map[step]int{}
	sig := make([]int, len(img.baseProg))
	var writes []mop.Op
	var xbs []int // writes[i]'s crossbar
	err := eachLeaf(init, func(op mop.Op) error {
		w, ok, err := img.res.ResolveWrite(op)
		switch {
		case !ok:
			return fmt.Errorf("funcsim: init section holds %s, which programs no crossbar", op)
		case err != nil:
			return fmt.Errorf("funcsim: compile %s: %w", op, err)
		case img.baseProg[w.XB].Node >= 0:
			return fmt.Errorf("funcsim: %s: crossbar %d is already programmed", op, w.XB)
		}
		next, ok := sigs[step{sig[w.XB], w.Row, w.Tile}]
		if !ok {
			next = len(sigs) + 1
			sigs[step{sig[w.XB], w.Row, w.Tile}] = next
		}
		sig[w.XB] = next
		writes, xbs = append(writes, op), append(xbs, w.XB)
		return nil
	})
	if err != nil {
		return err
	}
	// The first crossbar written with each sequence stands for all of them.
	rep := map[int]int{}
	kept := writes[:0]
	for i, op := range writes {
		xb := xbs[i]
		if _, ok := rep[sig[xb]]; !ok {
			rep[sig[xb]] = xb
		}
		if rep[sig[xb]] == xb {
			kept = append(kept, op)
		}
	}
	cf, err := img.CompileBody(kept)
	if err != nil {
		return err
	}
	st := img.NewBatchState(0) // programming is lane-invariant: no lane to carry
	if err := img.ExecBatch(st).RunBody(cf); err != nil {
		return err
	}
	// The baseline is final. Cut each distinct weight array to the wordlines it
	// programs, so that a column word's run is as long as reads can walk it:
	// reads of a few wordlines from many crossbars then touch dense memory
	// instead of the head of every XB.Rows-long run (a power-of-two stride that
	// lands them all in the same cache sets).
	for xb, s := range sig {
		if p, rows := &st.prog[xb], int(st.prog[xb].Rows); s != 0 && rep[s] == xb && rows < p.stride {
			full, cut := st.weights[xb], make([]int64, 0, len(st.weights[xb])/p.stride*rows)
			for c := 0; c < len(full); c += p.stride {
				cut = append(cut, full[c:c+rows]...)
			}
			st.weights[xb], p.stride = cut, rows
		}
	}
	for xb, s := range sig {
		if s != 0 {
			r := rep[s]
			img.baseWeights[xb], img.baseProg[xb] = st.weights[r], st.prog[r]
		}
	}
	return nil
}

// Programmed reports how many crossbars the image's baseline programs and how
// many distinct contents they hold between them: what ProgramInit's sharing
// saves is the gap between the two.
func (img *Image) Programmed() (crossbars, distinct int) {
	arrays := map[*int64]bool{}
	for _, w := range img.baseWeights {
		if w != nil {
			crossbars++
			arrays[&w[0]] = true
		}
	}
	return crossbars, len(arrays)
}

// State is a one-lane BatchState for callers that drive a single request
// through an uncompiled flow (the benchmark's step-by-step replay, tests). It
// is owned by exactly one execution at a time; Image.Reset recycles it.
type State struct {
	b *BatchState
	// flows holds the sections RunBody has compiled, by flow identity, so a
	// replay that runs the same flow per request compiles it once. A flow
	// must not be modified between runs against one State.
	flows map[*mop.Flow]*CompiledFlow
}

// Machine binds an Image to one State for execution. The zero Machine is
// not usable; obtain one from Image.Exec.
type Machine struct {
	bm *BatchMachine
	st *State
}

// NewState allocates a fresh one-lane execution state, ready for LoadInputs.
func (img *Image) NewState() *State {
	return &State{b: img.NewBatchState(1), flows: map[*mop.Flow]*CompiledFlow{}}
}

// Reset recycles st for a new inference against this image.
func (img *Image) Reset(st *State) { img.ResetBatch(st.b, 1) }

// Exec binds st to the image for one execution. The caller must not use st
// with two machines at once.
func (img *Image) Exec(st *State) *Machine {
	return &Machine{bm: img.ExecBatch(st.b), st: st}
}

// LoadInputs checks, quantizes and loads one request (BatchMachine.LoadInputs).
func (m *Machine) LoadInputs(inputs map[int]*tensor.Tensor) error {
	return m.bm.LoadInputs(0, inputs)
}

// RunBody executes only the flow's compute section, assuming weights were
// programmed into the machine's image (Image.ProgramInit). It skips
// validation: generated flows are validated once by codegen, not per request.
func (m *Machine) RunBody(flow *mop.Flow) error {
	cf, ok := m.st.flows[flow]
	if !ok {
		var err error
		if cf, err = m.bm.img.CompileBody(flow.Body); err != nil {
			return err
		}
		m.st.flows[flow] = cf
	}
	return m.bm.RunBody(cf)
}

// SettleAll requantizes every raw region (used before extracting outputs).
func (m *Machine) SettleAll() { m.bm.SettleAll() }

// TensorsOf returns the dequantized float tensors of the given node IDs.
func (m *Machine) TensorsOf(ids []int) map[int]*tensor.Tensor {
	return m.bm.TensorsOf(0, ids)
}

// weightMatrix lowers a node's weights to the crossbar matrix form: conv
// [outC,inC,kH,kW] → [inC·kH·kW, outC]; dense already [in,out].
func weightMatrix(n *graph.Node, w *tensor.Tensor) (*tensor.Tensor, error) {
	switch n.Op {
	case graph.OpConv:
		return tensor.WeightsAsMatrix(w)
	case graph.OpDense:
		return w, nil
	}
	return nil, fmt.Errorf("funcsim: node %d (%s) has no weight matrix", n.ID, n.Op)
}

// sortedTensorKeys returns the map's node IDs in ascending order so walks
// over user-supplied tensor maps behave identically run to run.
func sortedTensorKeys(m map[int]*tensor.Tensor) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
