// Package codegen lowers a scheduled, placed model into the meta-operator
// flow of §3.3 (the right-hand side of Figure 16): cim.readcore flows for CM
// targets, cim.writexb/readxb flows for XBM targets, and
// cim.writerow/readrow flows for WLM targets, interleaved with DCOM digital
// operators and DMOV data movement.
//
// Addresses reference a flat buffer space laid out by the Layout allocator:
// every node's output gets a region (feature maps in NCHW order), and in
// crossbar modes the CIM operators share one scratch arena above them for
// the gathered MVM inputs. The generated flows execute on internal/funcsim.
package codegen

import (
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/mop"
	"cimmlc/internal/sched"
)

// Options controls emission.
type Options struct {
	// MaxWindowsPerOp caps the emitted MVM window blocks per operator; 0
	// emits everything. Capped flows illustrate the code shape (the paper
	// prints "256 similar code segments") but are not executable.
	MaxWindowsPerOp int64
}

// Layout is the buffer address map of a generated flow: two tables indexed
// by node ID.
type Layout struct {
	// Region is each node's output region.
	Region []Area
	// Scratch is each CIM node's window-gather scratch area (dup consecutive
	// vectors of the weight-matrix row count each); a zero Size means none.
	// In XBM and WLM the areas share one arena at the end of the node
	// regions, each operator's window loop having it to itself because the
	// flow finishes one operator's windows before the next one's; only dense
	// operators reading one input stack their areas (buildLayout). CM flows
	// gather nothing (cim.readcore reads its input region): every Size is
	// zero.
	Scratch []Area
	// Total is the number of words the flow addresses.
	Total int64
	// XBs is one past the highest crossbar the placement gives a tile
	// (mapping.Placement.XBSpan): the crossbars the flow may program or read,
	// and so the crossbar records an executor keeps — on a chip far larger
	// than the model, far fewer than the chip holds.
	XBs int
}

// Area is a run of Size words from Base.
type Area struct{ Base, Size int64 }

// End returns one past the area's last word.
func (r Area) End() int64 { return r.Base + r.Size }

// Result bundles the generated flow with its layout.
type Result struct {
	Flow      *mop.Flow
	Layout    *Layout
	Truncated bool // true when MaxWindowsPerOp cut window loops short
}

// Generate lowers the compiled model. The schedule and placement must come
// from the same compilation (internal/core.Compile guarantees that).
func Generate(g *graph.Graph, a *arch.Arch, s *sched.Schedule, p *mapping.Placement, m *cost.Model, opt Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	lay := buildLayout(g, a, m, s)
	lay.XBs = p.XBSpan()
	e := &emitter{
		g: g, a: a, s: s, p: p, m: m, lay: lay,
		maxWin: opt.MaxWindowsPerOp,
	}
	flow := &mop.Flow{Mode: string(a.Mode), Graph: g.Name, Arch: a.Name}
	for segIdx, seg := range s.Segments {
		for _, id := range seg {
			if err := e.emitNode(flow, segIdx, id); err != nil {
				return nil, err
			}
		}
	}
	if err := flow.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: generated invalid flow: %w", err)
	}
	return &Result{Flow: flow, Layout: lay, Truncated: e.truncated}, nil
}

func buildLayout(g *graph.Graph, a *arch.Arch, m *cost.Model, s *sched.Schedule) *Layout {
	lay := &Layout{Region: make([]Area, len(g.Nodes)), Scratch: make([]Area, len(g.Nodes))}
	next := int64(0)
	for _, n := range g.Nodes {
		size := graph.NumElements(n.OutShape)
		lay.Region[n.ID] = Area{next, size}
		next += size
	}
	lay.Total = next
	if a.Mode == arch.CM {
		return lay
	}
	// A dense operator gathers with plain movs, which name no node: a second
	// one reading the same input would repeat the first one's gathers into
	// the words that still hold them. So a dense operator's area starts past
	// those of the dense operators before it on its input (denseEnd, by
	// input node); every other area starts at the arena's base.
	var arena int64
	denseEnd := make([]int64, len(g.Nodes))
	for _, seg := range s.Segments {
		for _, id := range seg {
			n := g.Nodes[id]
			if !n.Op.CIMSupported() {
				continue
			}
			size := int64(m.FPs[id].Rows) * int64(s.DupOf(id))
			var off int64
			if n.Op == graph.OpDense {
				off = denseEnd[n.Inputs[0]]
				denseEnd[n.Inputs[0]] = off + size
			}
			lay.Scratch[id] = Area{next + off, size}
			arena = max(arena, off+size)
		}
	}
	lay.Total += arena
	return lay
}

type emitter struct {
	g         *graph.Graph
	a         *arch.Arch
	s         *sched.Schedule
	p         *mapping.Placement
	m         *cost.Model
	lay       *Layout
	maxWin    int64
	truncated bool
}

func (e *emitter) emitNode(flow *mop.Flow, segIdx, id int) error {
	n := e.g.MustNode(id)
	switch {
	case n.Op == graph.OpInput:
		return nil
	case n.Op.CIMSupported():
		if e.a.Mode == arch.CM {
			return e.emitReadCore(flow, id)
		}
		return e.emitCrossbarOp(flow, segIdx, id)
	default:
		return e.emitDigital(flow, id)
	}
}

// emitReadCore produces the CM flow: one cim.readcore per copy, window
// ranges partitioned contiguously, grouped in a parallel block (Figure 16(c)).
func (e *emitter) emitReadCore(flow *mop.Flow, id int) error {
	n := e.g.MustNode(id)
	f := &e.m.FPs[id]
	dup := e.s.DupOf(id)
	tiles := e.p.TilesOf(id)
	coreOf := make([]int, dup)
	for c := range coreOf {
		coreOf[c] = -1
	}
	for _, t := range tiles {
		if t.Copy < dup && (coreOf[t.Copy] < 0 || t.Core < coreOf[t.Copy]) {
			coreOf[t.Copy] = t.Core
		}
	}
	per := ceilDiv64(f.MVMs, int64(dup))
	var body []mop.Op
	for c := 0; c < dup; c++ {
		start := int64(c) * per
		if start >= f.MVMs {
			break
		}
		count := per
		if start+count > f.MVMs {
			count = f.MVMs - start
		}
		core := coreOf[c]
		if core < 0 {
			core = 0
		}
		body = append(body, mop.ReadCore{
			OpType:   string(n.Op),
			Node:     id,
			Core:     core,
			Src:      e.lay.Region[n.Inputs[0]].Base,
			Dst:      e.lay.Region[id].Base,
			WinStart: start,
			WinCount: count,
		})
	}
	if len(body) == 1 {
		flow.Body = append(flow.Body, body[0])
	} else {
		flow.Body = append(flow.Body, mop.Parallel{Body: body})
	}
	return nil
}

// emitCrossbarOp produces the XBM/WLM flow for one CIM operator: weight
// programming (init section for segment 0 round 0, inline otherwise), then a
// gather + parallel-activation block per MVM window. A one-window operator
// gathers in round 0 only: weight writes never touch scratch, so its vector
// is still there in the later rounds.
func (e *emitter) emitCrossbarOp(flow *mop.Flow, segIdx, id int) error {
	n := e.g.MustNode(id)
	f := &e.m.FPs[id]
	dup := e.s.DupOf(id)
	tiles := e.p.TilesOf(id)
	byCopyRound := map[[2]int][]mapping.Tile{}
	for _, t := range tiles {
		key := [2]int{t.Copy, t.Round}
		byCopyRound[key] = append(byCopyRound[key], t)
	}
	stride, winDst := e.dstGeometry(n)

	windows := f.MVMs
	emitWindows := windows
	if e.maxWin > 0 && emitWindows > e.maxWin {
		emitWindows = e.maxWin
		e.truncated = true
	}

	for r := 0; r < f.Rounds; r++ {
		// Weight programming for this round.
		var writes []mop.Op
		for c := 0; c < dup; c++ {
			for _, t := range byCopyRound[[2]int{c, r}] {
				writes = append(writes, e.writeOps(t)...)
			}
		}
		if segIdx == 0 && r == 0 {
			flow.Init = append(flow.Init, writes...)
		} else {
			flow.Body = append(flow.Body, writes...)
		}
		// The MVM window loop.
		for w := int64(0); w < emitWindows; w++ {
			copyIdx := int(w % int64(dup))
			scratch := e.lay.Scratch[id].Base + int64(copyIdx)*int64(f.Rows)
			if r == 0 || windows > 1 {
				flow.Body = append(flow.Body, e.gatherOp(n, f, w, scratch))
			}
			reads := e.readOps(n, f, byCopyRound[[2]int{copyIdx, r}], scratch, winDst(w), stride, r > 0)
			flow.Body = append(flow.Body, reads...)
		}
	}
	return nil
}

// dstGeometry returns the destination stride and per-window base address of
// a CIM node's output region (OutGeometry).
func (e *emitter) dstGeometry(n *graph.Node) (int64, func(int64) int64) {
	base := e.lay.Region[n.ID].Base
	col, win := OutGeometry(n)
	return col, func(w int64) int64 { return base + w*win }
}

// gatherOp returns the DMOV that assembles window w's input vector.
func (e *emitter) gatherOp(n *graph.Node, f *mapping.Footprint, w int64, scratch int64) mop.Op {
	in := n.Inputs[0]
	switch {
	case n.Op == graph.OpConv:
		return mop.MovWindow{Node: n.ID, Window: w, SrcBase: e.lay.Region[in].Base, Dst: scratch}
	case len(n.OutShape) == 2:
		return mop.Mov{Src: e.lay.Region[in].Base + w*int64(f.Rows), Dst: scratch, Len: int64(f.Rows)}
	default:
		return mop.Mov{Src: e.lay.Region[in].Base, Dst: scratch, Len: int64(f.Rows)}
	}
}

// writeOps programs one placed tile (whole-crossbar write in XBM, row-range
// writes in WLM).
func (e *emitter) writeOps(t mapping.Tile) []mop.Op {
	if e.a.Mode == arch.XBM {
		return []mop.Op{mop.WriteXB{
			XB: t.XB, Node: t.Node,
			CellRowOff: t.CellRowOff, CellColOff: t.CellColOff,
			Rows: t.Rows, Cols: t.CellCols,
		}}
	}
	return []mop.Op{mop.WriteRow{
		XB: t.XB, Row: t.RowStart, NumRows: t.Rows, Node: t.Node,
		CellRowOff: t.CellRowOff, CellColOff: t.CellColOff, Cols: t.CellCols,
	}}
}

// readOps emits the activation of one window on one copy's tiles. XBM
// activates whole crossbars in a single parallel block; WLM activates
// parallel-row chunks, one parallel block per chunk wave (later waves are
// the "next cycle" activations of Figure 16(e)).
func (e *emitter) readOps(n *graph.Node, f *mapping.Footprint, tiles []mapping.Tile, scratch, winBase, stride int64, laterRound bool) []mop.Op {
	s := int64(e.a.CellsPerWeight())
	dstFor := func(t mapping.Tile) int64 {
		return winBase + int64(t.CellColOff)/s*stride
	}
	if e.a.Mode == arch.XBM {
		var body []mop.Op
		for _, t := range tiles {
			body = append(body, mop.ReadXB{
				XB:        t.XB,
				Src:       scratch + int64(t.CellRowOff),
				Dst:       dstFor(t),
				DstStride: stride,
				Acc:       laterRound || t.CellRowOff > 0,
			})
		}
		return wrapParallel(body)
	}
	// WLM: chunk each tile's rows by parallel_row and emit wave by wave.
	pr := e.a.XB.ParallelRow
	maxWaves := 0
	for _, t := range tiles {
		if w := (t.Rows + pr - 1) / pr; w > maxWaves {
			maxWaves = w
		}
	}
	var out []mop.Op
	for wave := 0; wave < maxWaves; wave++ {
		var body []mop.Op
		for _, t := range tiles {
			rowOff := wave * pr
			if rowOff >= t.Rows {
				continue
			}
			rows := pr
			if rowOff+rows > t.Rows {
				rows = t.Rows - rowOff
			}
			body = append(body, mop.ReadRow{
				XB:        t.XB,
				Row:       t.RowStart + rowOff,
				NumRows:   rows,
				Src:       scratch + int64(t.CellRowOff) + int64(rowOff),
				Dst:       dstFor(t),
				DstStride: stride,
				Acc:       laterRound || wave > 0 || t.CellRowOff > 0,
			})
		}
		out = append(out, wrapParallel(body)...)
	}
	return out
}

func wrapParallel(body []mop.Op) []mop.Op {
	switch len(body) {
	case 0:
		return nil
	case 1:
		return body
	default:
		return []mop.Op{mop.Parallel{Body: body}}
	}
}

// emitDigital lowers a non-CIM node to a DCOM (or a plain mov for the pure
// data-movement reshapes).
func (e *emitter) emitDigital(flow *mop.Flow, id int) error {
	n := e.g.MustNode(id)
	outLen := graph.NumElements(n.OutShape)
	switch n.Op {
	case graph.OpFlatten, graph.OpIdentity:
		flow.Body = append(flow.Body, mop.Mov{
			Src: e.lay.Region[n.Inputs[0]].Base, Dst: e.lay.Region[id].Base, Len: outLen,
		})
		return nil
	}
	fn, ok := DcomFn(n.Op)
	if !ok {
		return fmt.Errorf("codegen: no DCOM lowering for %s", n.Op)
	}
	srcs := make([]int64, len(n.Inputs))
	for i, in := range n.Inputs {
		srcs[i] = e.lay.Region[in].Base
	}
	flow.Body = append(flow.Body, mop.Dcom{Fn: fn, Node: id, Srcs: srcs, Dst: e.lay.Region[id].Base, Len: outLen})
	return nil
}

// DcomFn names the DCOM function a digital operator lowers to — the one
// op→DCOM table, shared with funcsim's quantized reference.
func DcomFn(op graph.Op) (mop.DcomFn, bool) {
	switch op {
	case graph.OpReLU:
		return mop.FnReLU, true
	case graph.OpGELU:
		return mop.FnGELU, true
	case graph.OpAdd:
		return mop.FnAdd, true
	case graph.OpMaxPool:
		return mop.FnMaxPool, true
	case graph.OpAvgPool:
		return mop.FnAvgPool, true
	case graph.OpGlobalAvgPool:
		return mop.FnGAP, true
	case graph.OpSoftmax:
		return mop.FnSoftmax, true
	case graph.OpLayerNorm:
		return mop.FnLayerNorm, true
	case graph.OpMatMul:
		return mop.FnMatMul, true
	case graph.OpTranspose:
		return mop.FnTranspose, true
	case graph.OpConcat:
		return mop.FnConcat, true
	}
	return "", false
}

// ceilDiv64 rounds up; divisors come from arch fields already checked
// positive by arch.Validate.
func ceilDiv64(a, b int64) int64 {
	return (a + b - 1) / b
}
