// Package cost is the cycle-level cost model of the reproduction: the single
// source of truth for how many cycles a crossbar MVM, a digital ALU
// operator or a buffer stream takes, and how much power an active crossbar
// draws.
//
// Both the compile-time schedulers (internal/cg, internal/mvm, internal/vvm)
// and the performance simulator (internal/perfsim) consume these primitives,
// playing the role of the NeuroSim/PUMA-sim-derived latency model of §4.1
// (see DESIGN.md's substitution table). Absolute values are in abstract
// cycles and power units; every experiment reports ratios.
//
// A compilation prices every node many times over (the duplication search,
// the MVM and VVM refinements, the simulator), so New prices each node once,
// in the pass that computes its footprint, into Rows, a table indexed by node
// ID that is the one place a node's cost facts live: its OpCost at one copy
// and remap 1, the cores one copy charges the duplication search and its
// copy ceiling. Row.RunAt is the runtime at a copy count; CIMOp recomputes
// only what copies and remap decide. What is precomputed are operands, never
// partial products: every float expression keeps the order of its terms, so
// a cost is bit-identical to pricing the node from scratch.
//
// CIMOp prices only settings that placement accepts: mapping's packing
// rule alone decides which copies and remap a node may take.
//
// The model owns the one price of programming crossbars, Model.Program: the
// cycles to write a number of wordlines on the busiest core, since each core
// owns one write port (its crossbars program serially, wordline by wordline
// at the device write latency) while cores program in parallel. What is
// written comes from the placement calculus (mapping's wordlines.go), as
// codegen emits it: a segment's first round is programmed before the segment
// (the simulator charges it for every segment after the first, whose
// programming is not the flow's init section), and an operator larger than
// the chip reprograms itself for each of its later rounds (OpCost.Reload).
// The segmenter (internal/cg) weighs a cut against what programming the
// popped operator costs.
package cost

import (
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
)

// Model bundles the graph, architecture and footprints a cost query needs,
// and the node-indexed table of each node's cost facts.
type Model struct {
	Arch  *arch.Arch
	Graph *graph.Graph
	FPs   []mapping.Footprint // by node ID; the zero Footprint off CIM nodes
	Rows  []Row               // by node ID

	// phases and read are the operands of every CIM node's compute term: DAC
	// phases and the device read latency, as floats; write is the device
	// write latency, Program's operand.
	phases, read, write float64
}

// Row is one node's cost facts.
type Row struct {
	OpCost // at one copy and remap 1; an input's costs nothing
	// Cores is what one copy charges the duplication search's core budget:
	// the footprint's CoresPerCopy, or the whole chip for an oversized
	// operator (Rounds > 1), which sits alone in its segment. It is 0
	// exactly off CIM nodes: every CIM footprint holds a crossbar.
	Cores int
	// MaxDup is the most copies the search tries: as many as the chip's
	// crossbars hold, at most one per window, one for an oversized operator;
	// 0 off CIM nodes.
	MaxDup int
}

// RunAt returns the node's runtime with d copies (remap 1): OpCost.Run over
// ⌈Windows/d⌉ windows.
func (r *Row) RunAt(d int) float64 {
	c := r.OpCost
	c.Windows = ceilDiv64(c.Windows, int64(d))
	return c.Run()
}

// New builds a cost model: in one pass over g it computes the footprint of
// every CIM node from the shapes g holds and fills each node's row. It checks
// neither argument: g must be valid with its shapes inferred
// (graph.InferShapes) and a valid (arch.Validate), as the compiler has made
// them before it builds the one model of a compilation.
func New(g *graph.Graph, a *arch.Arch) (*Model, error) {
	m := &Model{
		Arch:   a,
		Graph:  g,
		FPs:    make([]mapping.Footprint, len(g.Nodes)),
		Rows:   make([]Row, len(g.Nodes)),
		phases: float64(a.DACPhases()),
		read:   a.XB.Device.Profile().ReadLatency,
		write:  a.XB.Device.Profile().WriteLatency,
	}
	for _, n := range g.Nodes {
		switch {
		case n.Op == graph.OpInput:
			m.Rows[n.ID].Rounds = 1
		case n.Op.CIMSupported():
			f, err := mapping.ComputeFootprint(n, a)
			if err != nil {
				return nil, err
			}
			m.FPs[n.ID] = f
			m.Rows[n.ID] = m.cimRow(n, &m.FPs[n.ID])
		default:
			m.Rows[n.ID].OpCost = m.digitalCost(n)
		}
	}
	return m, nil
}

// OpCost describes one operator's execution profile under given scheduling
// decisions. The operator processes Windows work units; each unit occupies a
// pipeline stage for PerWindow cycles. Run() is the end-to-end busy time.
type OpCost struct {
	Windows   int64   // work units per inference (MVMs or spatial positions)
	PerWindow float64 // stage cycles per unit after duplication
	Compute   float64 // compute component of PerWindow (before max with IO)
	IO        float64 // IO component of PerWindow
	Rounds    int     // sequential weight-loading rounds (oversized operators)
	Reload    float64 // cycles to program rounds 1 … Rounds−1; round 0 is its segment's
	// FirstFrac is the fraction of this operator's input that must exist
	// before it can emit its first output — the pipeline-overlap coupling
	// used by the latency estimator.
	FirstFrac float64
}

// Run returns the operator's total busy cycles executed alone: every round's
// windows and the reprogramming before each round after the first.
func (c OpCost) Run() float64 {
	perRound := float64(c.Windows) * c.PerWindow
	return float64(c.Rounds)*perRound + c.Reload
}

// Program returns the cycles to program crossbars when the busiest core
// writes the given wordlines: the one price of a weight write.
func (m *Model) Program(wordlines int) float64 {
	return float64(wordlines) * m.write
}

// CIMOp returns the cost of a CIM-supported node executed with `dup`
// spatially concurrent copies and WLM remap factor `remap` (both ≥1). It
// starts from the node's row and recomputes only what copies and remap
// decide, as given: a setting placement refuses (remap beyond the row
// groups, a divided oversized node) has no meaningful price.
func (m *Model) CIMOp(node, dup, remap int) (OpCost, error) {
	if uint(node) >= uint(len(m.Rows)) || m.Rows[node].Cores == 0 {
		return OpCost{}, fmt.Errorf("cost: node %d is not a CIM operator", node)
	}
	if dup < 1 || remap < 1 {
		return OpCost{}, fmt.Errorf("cost: node %d: dup %d / remap %d must be ≥1", node, dup, remap)
	}
	return m.scaled(&m.FPs[node], m.Rows[node].OpCost, dup, remap), nil
}

// scaled returns oc, CIM footprint f's cost, with the terms copies and remap
// decide priced at dup and remap.
func (m *Model) scaled(f *mapping.Footprint, oc OpCost, dup, remap int) OpCost {
	// Compute: DAC phases × sequential row groups × device read latency,
	// plus a shift-add merge tree over the row stripes and one ADC drain.
	groups := ceilDiv(f.RowGroups, remap)
	merge := log2Ceil(f.TilesR*remap) + 1 // +1 ADC pipeline drain
	oc.Compute = m.phases*float64(groups)*m.read + float64(merge)
	oc.PerWindow = max(oc.Compute, oc.IO) // the builtin keeps math.Max's NaN and ±0 rules
	oc.Windows = ceilDiv64(f.MVMs, int64(dup))
	return oc
}

// cimRow returns CIM node n's row. The terms copies and remap do not change
// are IO per window through the local buffer (the input vector in, the
// output vector out, both ActBits wide), the weight-loading rounds, the
// reprogramming of the rounds after the first, and the pipeline coupling.
// Only an oversized operator has later rounds; placement packs it undivided
// and its segment holds it alone, from core 0, so they are priced from the
// footprint, and it charges the search the whole chip for its one copy.
func (m *Model) cimRow(n *graph.Node, f *mapping.Footprint) Row {
	a := m.Arch
	inBits := int64(f.Rows) * int64(a.ActBits)
	outBits := int64(f.Cols) * int64(a.ActBits)
	r := Row{
		OpCost: OpCost{
			IO:        arch.BufferCycles(inBits, a.Core.L1BW) + arch.BufferCycles(outBits, a.Core.L1BW),
			Rounds:    f.Rounds,
			FirstFrac: m.firstFrac(n),
		},
		Cores:  f.CoresPerCopy,
		MaxDup: max(1, int(min(int64(a.TotalCrossbars()/f.XBsPerCopy), f.MVMs))),
	}
	if f.Rounds > 1 {
		_, later := f.Wordlines(a)
		r.Reload = m.Program(later)
		r.Cores, r.MaxDup = a.Chip.CoreCount(), 1
	}
	r.OpCost = m.scaled(f, r.OpCost, 1, 1)
	return r
}

// digitalCost prices digital node n.
func (m *Model) digitalCost(n *graph.Node) OpCost {
	windows, perWindowOps := digitalWork(m.Graph, n)
	// Digital operators shard across the chip ALU plus every core's ALU
	// (activations are already distributed across the cores holding the
	// producing operator's copies), so the aggregate capacity applies.
	alu := m.Arch.Chip.ALUOps + m.Arch.Core.ALUOps*float64(m.Arch.Chip.CoreCount())
	var per float64
	if alu > 0 {
		per = perWindowOps / alu
	}
	// Stream the produced elements through the global buffer.
	outBits := graph.NumElements(n.OutShape) * int64(m.Arch.ActBits)
	io := arch.BufferCycles(outBits, m.Arch.Chip.L0BW) / float64(max(windows, 1))
	if io > per {
		per = io
	}
	if per < 1.0/1024 {
		per = 1.0 / 1024 // a data-movement floor so zero-cost ops cannot vanish
	}
	return OpCost{
		Windows:   windows,
		PerWindow: per,
		Compute:   per,
		Rounds:    1,
		FirstFrac: m.firstFrac(n),
	}
}

// Op dispatches to CIMOp on a CIM node and otherwise returns the node's
// row: a digital node's cost on the ALUs, an input's nothing.
func (m *Model) Op(node, dup, remap int) (OpCost, error) {
	if m.Rows[node].Cores > 0 {
		return m.CIMOp(node, dup, remap)
	}
	return m.Rows[node].OpCost, nil
}

// digitalWork returns (windows, ALU ops per window) for a digital node.
func digitalWork(g *graph.Graph, n *graph.Node) (int64, float64) {
	out := n.OutShape
	switch n.Op {
	case graph.OpReLU, graph.OpAdd, graph.OpIdentity, graph.OpFlatten, graph.OpConcat, graph.OpTranspose:
		w, elems := spatialWindows(out)
		return w, float64(elems) / float64(w)
	case graph.OpGELU:
		w, elems := spatialWindows(out)
		return w, float64(elems) / float64(w) * 8 // tanh-series approximation
	case graph.OpMaxPool, graph.OpAvgPool:
		w, elems := spatialWindows(out)
		k := float64(n.Attr.KernelH * n.Attr.KernelW)
		return w, float64(elems) / float64(w) * k
	case graph.OpGlobalAvgPool:
		in := g.MustNode(n.Inputs[0]).OutShape
		return 1, float64(graph.NumElements(in))
	case graph.OpSoftmax, graph.OpLayerNorm:
		w, elems := spatialWindows(out)
		return w, float64(elems) / float64(w) * 4 // max/exp/sum/normalize passes
	case graph.OpMatMul:
		a := g.MustNode(n.Inputs[0]).OutShape
		rows := int64(out[0])
		macs := 2 * float64(a[1]) * float64(out[1]) // per output row
		return rows, macs
	}
	_, elems := spatialWindows(out)
	return 1, float64(elems)
}

// spatialWindows maps an output shape to (windows, total elements):
// [C,H,W] → H·W windows; [T,D] → T windows; [n] → 1 window.
func spatialWindows(shape []int) (int64, int64) {
	elems := graph.NumElements(shape)
	switch len(shape) {
	case 3:
		return int64(shape[1]) * int64(shape[2]), elems
	case 2:
		return int64(shape[0]), elems
	default:
		return 1, elems
	}
}

// firstFrac returns the fraction of a node's input that must be produced
// before the node can emit its first output, the pipelining coupling of
// adjacent operators: a 3×3 conv needs its first 3 input rows, an
// elementwise op only the first element, a Dense/GAP/MatMul everything.
func (m *Model) firstFrac(n *graph.Node) float64 {
	switch n.Op {
	case graph.OpConv, graph.OpMaxPool, graph.OpAvgPool:
		in := m.Graph.MustNode(n.Inputs[0]).OutShape
		if len(in) == 3 && in[1] > 0 {
			f := float64(n.Attr.KernelH) / float64(in[1])
			if f > 1 {
				f = 1
			}
			return f
		}
		return 1
	case graph.OpReLU, graph.OpGELU, graph.OpAdd, graph.OpIdentity, graph.OpConcat:
		return 0.01
	case graph.OpSoftmax, graph.OpLayerNorm:
		// Row-wise over token matrices: one token's features suffice.
		if len(n.OutShape) == 2 {
			return 1 / float64(n.OutShape[0])
		}
		return 1
	case graph.OpDense:
		// Token-matrix Dense consumes token rows independently; vector
		// Dense needs the whole input.
		if len(n.OutShape) == 2 {
			return 1 / float64(n.OutShape[0])
		}
		return 1
	default:
		return 1
	}
}

// ceilDiv rounds up; divisors come from arch fields already checked
// positive by arch.Validate.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}

func ceilDiv64(a, b int64) int64 {
	return (a + b - 1) / b
}

func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}
