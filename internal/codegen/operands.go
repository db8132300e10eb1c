package codegen

import (
	"fmt"
	"math"
	"sort"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
)

// This file is the one answer to "what does this meta-operator touch?". The
// emitter picks addresses through OutGeometry; the dataflow analysis
// (internal/flowdata) and the executor (internal/funcsim) both resolve every
// leaf operator through a Resolver built from (graph, arch, Layout) alone, so
// the words the verifier reasons about are the words a kernel addresses, and
// an operand the one rejects the other rejects with the same diagnosis.
//
// State-free operators (readcore, mov, mov_window, dcom) resolve to Operands
// directly. What a crossbar holds is run-time state — a body may reprogram it —
// so a write resolves to the TileWrite that Program applies to the crossbar's
// XBRecord, and a read to the XBRead that Activate completes against it.

// Rule classes an operand error carries: the flow/* names internal/flowdata
// and internal/irverify report them under.
const (
	RuleStructure    = "flow/structure"
	RuleEndpoint     = "flow/endpoint"
	RuleUnknownNode  = "flow/unknown-node"
	RuleUnprogrammed = "flow/unprogrammed-read"
	RuleRegionBounds = "flow/region-bounds"
	RuleScratchLap   = "flow/scratch-overlap"
)

// OperandError is an operand (or layout) the flow's graph, architecture and
// layout rule out.
type OperandError struct {
	Rule string
	Node int // graph node ID, or -1 when not node-specific
	Msg  string
}

func (e *OperandError) Error() string { return e.Msg }

func operandErr(rule string, node int, format string, args ...any) *OperandError {
	return &OperandError{Rule: rule, Node: node, Msg: fmt.Sprintf(format, args...)}
}

// Span is Count words Lo, Lo+Stride, … of the buffer space.
type Span struct{ Lo, Count, Stride int64 }

// Word returns the span's i-th word.
func (s Span) Word(i int64) int64 { return s.Lo + i*s.Stride }

// End returns one past the span's last word (Lo for an empty span).
func (s Span) End() int64 {
	if s.Count == 0 {
		return s.Lo
	}
	return s.Word(s.Count-1) + 1
}

func contig(lo, n int64) Span { return Span{Lo: lo, Count: n, Stride: 1} }

// Block is Rep spans, each RepStride words after the one before: the shape of
// a readcore's output (columns × windows). Every other operator writes one
// span (Rep 1) or none (Rep 0).
type Block struct {
	Span
	Rep, RepStride int64
}

// Row returns the block's i-th span.
func (b Block) Row(i int64) Span {
	return Span{Lo: b.Lo + i*b.RepStride, Count: b.Count, Stride: b.Stride}
}

// Region is one contiguous slice of the buffer space: a node's output or a
// CIM node's gather scratch. Node regions are pairwise disjoint; scratch
// regions alias each other in the shared arena (Layout.Scratch).
type Region struct {
	Area
	Node    int
	Scratch bool
}

func (r Region) String() string {
	kind := "output"
	if r.Scratch {
		kind = "scratch"
	}
	return fmt.Sprintf("node %d %s [%d,%d)", r.Node, kind, r.Base, r.End())
}

// Operands is what one operator touches once every address is checked.
type Operands struct {
	// Node is the graph node the operator computes for — a crossbar read's is
	// the node programmed into the crossbar it activates — or -1 for a mov.
	Node int
	// Reads is the explicit words read; RegionReads lists the nodes whose
	// whole output regions are read (a view of the graph's input lists).
	Reads       Span
	RegionReads []int
	// Writes is the words written or, with Acc, added to.
	Writes Block
	Acc    bool
	// ReadRegion and WriteRegion index, in Resolver.Regions, the region
	// holding Reads and Writes; -1 when there is no such span.
	ReadRegion, WriteRegion int
}

// Tile names a Rows × Cols tile of a node's cell matrix.
type Tile struct{ Node, CellRowOff, CellColOff, Rows, Cols int }

// TileWrite is a resolved writexb or writerow: the tile lands on crossbar XB
// from wordline Row. What a crossbar holds is a function of the tiles written
// to it and their wordlines, in order — never of its ID.
type TileWrite struct {
	XB, Row int
	Tile
}

// XBRead is a readxb or readrow as far as the flow alone decides it; Activate
// completes it against what the crossbar holds. It is what an executor keeps
// of a read, hence the narrow fields (all checked against the architecture's
// counts).
type XBRead struct {
	XB, Row int32
	Rows    int32 // wordlines activated; < 0: every programmed one (readxb)
	Acc     bool
	Src     int64 // first activation word
	SrcEnd  int64 // how far a run from Src stays inside one buffer region
	Dst     int64 // weight column j's sum goes to Dst + j·Stride
	Stride  int64
}

// XBRecord is what one crossbar holds: which node's cell matrix, the offset
// between cell-matrix row and wordline (RowDelta = cell row − wordline), the
// first cell column, and the extent programmed so far in wordlines and weight
// columns. The zero record but for Node -1 is an empty crossbar. A chip has
// thousands, every execution state its own copy: hence the narrow fields.
type XBRecord struct {
	Node       int32 // -1 when empty
	RowDelta   int32
	CellColOff int32
	Rows       int32
	WCols      int32

	outLo, outHi int64 // Node's output region, where reads of the crossbar write
}

// Resolver resolves the operators of one flow.
type Resolver struct {
	g     *graph.Graph
	a     *arch.Arch
	total int64
	xbs   int // crossbars the layout places tiles on: Layout.XBs within the chip

	regions []Region // node regions, then scratch, stably sorted by base
	nodes   []int    // indices into regions of the node regions, by base
	scratch []int    // of the scratch regions, by base
	ofNode  []int    // node ID → index into regions, -1 when absent
}

// NewResolver indexes the layout's regions and checks the layout itself: every
// node has a region of its output's size inside the layout, node regions are
// pairwise disjoint, and scratch lies inside the layout without aliasing node
// space (scratch regions may alias each other: slot reuse is legal, and the
// analysis' word-level owner attribution catches an actual clash). The graph
// must be shape-inferred. With errors returned the resolver is not usable.
func NewResolver(g *graph.Graph, a *arch.Arch, lay *Layout) (*Resolver, []*OperandError) {
	r := &Resolver{g: g, a: a, total: lay.Total, xbs: min(max(lay.XBs, 0), a.TotalCrossbars()), ofNode: make([]int, len(g.Nodes))}
	var errs []*OperandError
	if lay.Total < 0 || lay.Total > math.MaxInt64/int64(max(a.XB.Cols, 1)) {
		// A crossbar's columns times a stride within the layout must not overflow.
		errs = append(errs, operandErr(RuleRegionBounds, -1, "a layout of %d words", lay.Total))
	}
	for _, n := range g.Nodes {
		if n.ID >= len(lay.Region) {
			errs = append(errs, operandErr(RuleRegionBounds, n.ID, "node has no layout region"))
			continue
		}
		reg := Region{Area: lay.Region[n.ID], Node: n.ID}
		if want := graph.NumElements(n.OutShape); reg.Size != want {
			errs = append(errs, operandErr(RuleRegionBounds, n.ID, "%s holds %d words, the node's output %d", reg, reg.Size, want))
		}
		r.regions = append(r.regions, reg)
	}
	nNodes := len(r.regions)
	for id, area := range lay.Scratch {
		if area.Size != 0 {
			r.regions = append(r.regions, Region{Area: area, Node: id, Scratch: true})
		}
	}
	// Node regions by base, scratch by base, then merged keeping that order
	// among equal bases: aliased scratch slots stay in one fixed order, the
	// order "the first scratch region containing" means.
	for _, rs := range [][]Region{r.regions[:nNodes], r.regions[nNodes:]} {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Base < rs[j].Base })
	}
	sort.SliceStable(r.regions, func(i, j int) bool { return r.regions[i].Base < r.regions[j].Base })
	for i := range r.ofNode {
		r.ofNode[i] = -1
	}
	for i, reg := range r.regions {
		if reg.Scratch {
			r.scratch = append(r.scratch, i)
		} else {
			r.nodes = append(r.nodes, i)
			r.ofNode[reg.Node] = i
		}
	}
	prev := -1
	for _, i := range r.nodes {
		reg := r.regions[i]
		if reg.Base < 0 || reg.Size < 0 || reg.End() > lay.Total {
			errs = append(errs, operandErr(RuleRegionBounds, reg.Node, "%s outside the %d-word layout", reg, lay.Total))
		}
		if prev >= 0 && reg.Base < r.regions[prev].End() {
			errs = append(errs, operandErr(RuleScratchLap, reg.Node, "%s overlaps %s", reg, r.regions[prev]))
		}
		if prev < 0 || reg.End() > r.regions[prev].End() {
			prev = i
		}
	}
	for _, i := range r.scratch {
		reg := r.regions[i]
		if reg.Base < 0 || reg.Size < 0 || reg.End() > lay.Total {
			errs = append(errs, operandErr(RuleRegionBounds, reg.Node, "%s outside the %d-word layout", reg, lay.Total))
		}
		if n := r.NodeRegionAt(reg.Base); n >= 0 {
			errs = append(errs, operandErr(RuleScratchLap, reg.Node, "%s overlaps %s", reg, r.regions[n]))
		} else if n := r.NodeRegionAt(reg.End() - 1); reg.Size > 0 && n >= 0 {
			errs = append(errs, operandErr(RuleScratchLap, reg.Node, "%s overlaps %s", reg, r.regions[n]))
		}
	}
	return r, errs
}

// Regions returns every buffer region, node outputs and scratch, sorted by
// base address (read-only).
func (r *Resolver) Regions() []Region { return r.regions }

// NodeRegion returns the index in Regions of node id's output region, -1 when
// the graph has no such node.
func (r *Resolver) NodeRegion(id int) int {
	if id < 0 || id >= len(r.ofNode) {
		return -1
	}
	return r.ofNode[id]
}

// NodeRegionAt returns the index of the node region containing addr, or -1:
// node regions are disjoint, so the binary search is exact.
func (r *Resolver) NodeRegionAt(addr int64) int {
	lo, hi := 0, len(r.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.regions[r.nodes[mid]].Base > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && addr < r.regions[r.nodes[lo-1]].End() {
		return r.nodes[lo-1]
	}
	return -1
}

// Owner returns the node whose output region Regions()[region] is, -1 for
// scratch or no region.
func (r *Resolver) Owner(region int) int {
	if region < 0 || r.regions[region].Scratch {
		return -1
	}
	return r.regions[region].Node
}

// regionAt returns the region holding word addr that reaches furthest from it:
// the node region, or — scratch slots may alias — the scratch region
// containing addr with the largest end (the first of those). Linear over the
// (few) scratch regions because aliasing makes a by-address binary search
// ambiguous.
func (r *Resolver) regionAt(addr int64) int {
	if n := r.NodeRegionAt(addr); n >= 0 {
		return n
	}
	region := -1
	for _, i := range r.scratch {
		if reg := r.regions[i]; reg.Base <= addr && addr < reg.End() && (region < 0 || reg.End() > r.regions[region].End()) {
			region = i
		}
	}
	return region
}

// within checks that the n > 0 words from lo lie inside a single region — a
// node's, or the first scratch region containing all of them — and returns
// its index.
func (r *Resolver) within(lo, n int64, node int, what string) (int, error) {
	if lo < 0 || n <= 0 || lo > r.total-n {
		return -1, operandErr(RuleRegionBounds, node, "%s of %d words at %d outside the %d-word layout", what, n, lo, r.total)
	}
	if i := r.NodeRegionAt(lo); i >= 0 {
		if lo+n <= r.regions[i].End() {
			return i, nil
		}
	} else {
		for _, i := range r.scratch {
			if reg := r.regions[i]; reg.Base <= lo && lo+n <= reg.End() {
				return i, nil
			}
		}
	}
	return -1, operandErr(RuleRegionBounds, node, "%s [%d,%d) does not stay inside one buffer region", what, lo, lo+n)
}

// cimNode returns node id with its weight-matrix dimensions when it is a CIM
// operator of the graph.
func (r *Resolver) cimNode(id int) (n *graph.Node, rows, cols int, ok bool) {
	n, err := r.g.Node(id)
	if err != nil {
		return nil, 0, 0, false
	}
	rows, cols, ok = n.WeightMatrixDims()
	return n, rows, cols, ok
}

// OutGeometry returns where a CIM node's MVM results land in its output
// region: weight column j of window w is word j·col + w·win. NCHW feature
// maps scatter output channels outH·outW apart, one window after another;
// token matrices write contiguous rows; a vector Dense has its one window.
func OutGeometry(n *graph.Node) (col, win int64) {
	switch {
	case n.Op == graph.OpConv:
		return int64(n.OutShape[1]) * int64(n.OutShape[2]), 1
	case len(n.OutShape) == 2:
		return 1, int64(n.OutShape[1])
	default:
		return 1, 0
	}
}

// inRange reports whether [off, off+n) is a non-empty range inside [0, limit).
func inRange(off, n, limit int) bool {
	return off >= 0 && n > 0 && n <= limit && off <= limit-n
}

// ResolveWrite resolves a writexb or writerow; ok is false for every other
// operator.
func (r *Resolver) ResolveWrite(op mop.Op) (w TileWrite, ok bool, err error) {
	switch o := op.(type) {
	case mop.WriteXB:
		w = TileWrite{o.XB, 0, Tile{o.Node, o.CellRowOff, o.CellColOff, o.Rows, o.Cols}}
	case mop.WriteRow:
		w = TileWrite{o.XB, o.Row, Tile{o.Node, o.CellRowOff, o.CellColOff, o.NumRows, o.Cols}}
	default:
		return w, false, nil
	}
	return w, true, r.checkWrite(w)
}

func (r *Resolver) checkWrite(w TileWrite) error {
	if err := r.checkXB(w.XB); err != nil {
		return err
	}
	_, rows, cols, ok := r.cimNode(w.Node)
	if !ok {
		return operandErr(RuleUnknownNode, w.Node, "programs weights of a node without a weight matrix")
	}
	xb, s := r.a.XB, r.a.CellsPerWeight()
	switch {
	case !inRange(w.Row, w.Rows, xb.Rows) || !inRange(0, w.Cols, xb.Cols):
		return operandErr(RuleEndpoint, w.Node, "tile %dx%d at wordline %d exceeds the %dx%d crossbar", w.Rows, w.Cols, w.Row, xb.Rows, xb.Cols)
	case w.CellColOff%s != 0 || w.Cols%s != 0:
		return operandErr(RuleEndpoint, w.Node, "cell columns from %d, %d wide, not aligned to %d cells per weight", w.CellColOff, w.Cols, s)
	case !inRange(w.CellRowOff, w.Rows, rows):
		return operandErr(RuleEndpoint, w.Node, "%d cell rows from %d exceed the node's %d-row weight matrix", w.Rows, w.CellRowOff, rows)
	case !inRange(w.CellColOff, w.Cols, cols*s):
		return operandErr(RuleEndpoint, w.Node, "%d cell columns from %d exceed the node's %d-column cell matrix", w.Cols, w.CellColOff, cols*s)
	}
	return nil
}

func (r *Resolver) checkXB(xb int) error {
	if n := r.a.TotalCrossbars(); xb < 0 || xb >= n {
		return operandErr(RuleEndpoint, -1, "crossbar %d outside the chip's %d crossbars", xb, n)
	}
	if xb >= r.xbs {
		return operandErr(RuleEndpoint, -1, "crossbar %d past the %d crossbars the layout places tiles on", xb, r.xbs)
	}
	return nil
}

// XBs returns how many crossbars, from crossbar 0, an operator may program or
// read: Layout.XBs bounded by the chip. An executor's crossbar tables need no
// more entries.
func (r *Resolver) XBs() int { return r.xbs }

// Program records tile write w in the crossbar's record and reports whether it
// starts a new tile: a write whose (node, row delta, cell column offset)
// differs from what the crossbar holds reprograms it, and the array starts
// cleared.
func (r *Resolver) Program(p *XBRecord, w TileWrite) (fresh bool) {
	node, delta, colOff := int32(w.Node), int32(w.CellRowOff-w.Row), int32(w.CellColOff)
	if fresh = p.Node != node || p.RowDelta != delta || p.CellColOff != colOff; fresh {
		out := r.regions[r.ofNode[w.Node]]
		*p = XBRecord{Node: node, RowDelta: delta, CellColOff: colOff, outLo: out.Base, outHi: out.End()}
	}
	p.Rows = max(p.Rows, int32(w.Row+w.Rows))
	p.WCols = max(p.WCols, int32(w.Cols/r.a.CellsPerWeight()))
	return fresh
}

// ResolveRead resolves what is static of a readxb or readrow; ok is false for
// every other operator.
func (r *Resolver) ResolveRead(op mop.Op) (rd XBRead, ok bool, err error) {
	var xb, row int
	rows := -1
	switch o := op.(type) {
	case mop.ReadXB:
		xb, rd = o.XB, XBRead{Src: o.Src, Dst: o.Dst, Stride: o.DstStride, Acc: o.Acc}
	case mop.ReadRow:
		xb, row, rows, rd = o.XB, o.Row, o.NumRows, XBRead{Src: o.Src, Dst: o.Dst, Stride: o.DstStride, Acc: o.Acc}
		if pr := r.a.XB.ParallelRow; rows > pr {
			return rd, true, operandErr(RuleEndpoint, -1, "activates %d rows but parallel_row is %d", rows, pr)
		}
		if !inRange(row, rows, r.a.XB.Rows) {
			return rd, true, operandErr(RuleEndpoint, -1, "%d wordlines from %d outside the crossbar's %d", rows, row, r.a.XB.Rows)
		}
	default:
		return rd, false, nil
	}
	if err := r.checkXB(xb); err != nil {
		return rd, true, err
	}
	src := r.regionAt(rd.Src)
	switch {
	case rd.Stride <= 0 || rd.Stride > r.total:
		return rd, true, operandErr(RuleEndpoint, -1, "destination stride %d outside [1,%d], the layout's words", rd.Stride, r.total)
	case r.NodeRegionAt(rd.Dst) < 0:
		return rd, true, operandErr(RuleRegionBounds, -1, "destination %d inside no node's output region", rd.Dst)
	case src < 0:
		return rd, true, operandErr(RuleRegionBounds, -1, "crossbar input at %d inside no buffer region", rd.Src)
	}
	rd.XB, rd.Row, rd.Rows, rd.SrcEnd = int32(xb), int32(row), int32(rows), r.regions[src].End()
	return rd, true, nil
}

// Activate completes a crossbar read against what its crossbar holds and
// returns how many wordlines it activates: they stream in that many words from
// Src, inside one region, and the programmed weight columns' sums go to WCols
// words from Dst, which must lie inside the programmed node's output region.
// It is the executor's per-read check: comparisons of the two values' fields,
// the refusal worded out of line, nothing allocated unless it fails.
// (Dst is a word of the layout and Stride at most its length, which
// NewResolver bounds so that their product with a column count cannot overflow.)
func (p *XBRecord) Activate(rd *XBRead) (rows int, err error) {
	n := rd.Rows
	if n < 0 {
		n = p.Rows
	}
	if p.Node < 0 || rd.Row+n > p.Rows || int64(n) > rd.SrcEnd-rd.Src ||
		rd.Dst < p.outLo || rd.Dst+int64(p.WCols-1)*rd.Stride >= p.outHi {
		return 0, p.refuse(rd, n)
	}
	return int(n), nil
}

// refuse words the error of a read Activate rejected.
func (p *XBRecord) refuse(rd *XBRead, rows int32) error {
	node := int(p.Node)
	switch {
	case node < 0:
		return operandErr(RuleUnprogrammed, -1, "reads unprogrammed crossbar %d", rd.XB)
	case rd.Row+rows > p.Rows:
		return operandErr(RuleUnprogrammed, node, "reads wordlines [%d,%d) but only %d are programmed", rd.Row, rd.Row+rows, p.Rows)
	case int64(rows) > rd.SrcEnd-rd.Src:
		return operandErr(RuleRegionBounds, node, "crossbar input [%d,%d) does not stay inside one buffer region", rd.Src, rd.Src+int64(rows))
	}
	return operandErr(RuleRegionBounds, node, "writes %d words from %d with stride %d outside the node's output region [%d,%d)",
		p.WCols, rd.Dst, rd.Stride, p.outLo, p.outHi)
}

// Activated returns the operands of a read that Activate accepted with rows.
func (r *Resolver) Activated(p *XBRecord, rd *XBRead, rows int) Operands {
	return Operands{
		Node:       int(p.Node),
		Reads:      contig(rd.Src, int64(rows)),
		ReadRegion: r.regionAt(rd.Src),
		Writes:     Block{Span: Span{Lo: rd.Dst, Count: int64(p.WCols), Stride: rd.Stride}, Rep: 1},
		Acc:        rd.Acc, WriteRegion: r.ofNode[p.Node],
	}
}

// Resolve resolves the state-free operators: readcore, mov, mov_window, dcom.
func (r *Resolver) Resolve(op mop.Op) (Operands, error) {
	res := Operands{Node: -1, ReadRegion: -1, WriteRegion: -1}
	var e error
	switch o := op.(type) {
	case mop.Mov:
		if res.ReadRegion, e = r.within(o.Src, o.Len, -1, "mov source"); e != nil {
			return res, e
		}
		if res.WriteRegion, e = r.within(o.Dst, o.Len, -1, "mov destination"); e != nil {
			return res, e
		}
		res.Reads, res.Writes = contig(o.Src, o.Len), Block{Span: contig(o.Dst, o.Len), Rep: 1}
		return res, nil

	case mop.MovWindow:
		// An im2col gather of one convolution window from the input region
		// into a contiguous vector.
		n, rows, _, ok := r.cimNode(o.Node)
		if !ok || n.Op != graph.OpConv {
			return res, operandErr(RuleUnknownNode, o.Node, "mov_window on a non-conv node")
		}
		if o.Window < 0 || o.Window >= n.MVMCount() {
			return res, operandErr(RuleEndpoint, o.Node, "window %d outside the node's %d MVM windows", o.Window, n.MVMCount())
		}
		if e = r.isInput(n, 0, o.SrcBase); e != nil {
			return res, e
		}
		if res.WriteRegion, e = r.within(o.Dst, int64(rows), o.Node, "gather destination"); e != nil {
			return res, e
		}
		res.Node, res.RegionReads = o.Node, n.Inputs[:1]
		res.Writes = Block{Span: contig(o.Dst, int64(rows)), Rep: 1}
		return res, nil

	case mop.ReadCore:
		// The core gathers the windows from the node's input region and writes
		// every weight column of every window in the range.
		n, _, cols, ok := r.cimNode(o.Node)
		if !ok {
			return res, operandErr(RuleUnknownNode, o.Node, "readcore on a non-CIM or unknown node")
		}
		if cores := r.a.Chip.CoreCount(); o.Core < 0 || o.Core >= cores {
			return res, operandErr(RuleEndpoint, o.Node, "core %d outside the %d-core chip", o.Core, cores)
		}
		if mvms := n.MVMCount(); o.WinStart < 0 || o.WinCount <= 0 || o.WinCount > mvms || o.WinStart > mvms-o.WinCount {
			return res, operandErr(RuleEndpoint, o.Node, "%d windows from %d outside the node's %d MVM windows", o.WinCount, o.WinStart, mvms)
		}
		if e = r.isInput(n, 0, o.Src); e != nil {
			return res, e
		}
		out := r.regions[r.NodeRegion(o.Node)]
		if o.Dst != out.Base {
			return res, operandErr(RuleEndpoint, o.Node, "destination %d does not address the node's output region", o.Dst)
		}
		// As spans: the stride-1 dimension inside, the other one repeated.
		col, win := OutGeometry(n)
		b := Block{Span: contig(out.Base+o.WinStart*win, int64(cols)), Rep: o.WinCount, RepStride: win}
		if win == 1 {
			b = Block{Span: contig(out.Base+o.WinStart, o.WinCount), Rep: int64(cols), RepStride: col}
		}
		if last := b.Row(b.Rep - 1); last.End() > out.End() {
			return res, operandErr(RuleRegionBounds, o.Node, "writes [%d,%d) outside the node's output region", last.Lo, last.End())
		}
		res.Node, res.RegionReads, res.Writes, res.WriteRegion = o.Node, n.Inputs[:1], b, r.NodeRegion(o.Node)
		return res, nil

	case mop.Dcom:
		// The digital unit reads the graph inputs' regions (the Srcs operands
		// must address them) and writes the node's whole output region.
		n, err := r.g.Node(o.Node)
		if err != nil {
			return res, operandErr(RuleUnknownNode, o.Node, "dcom on unknown node")
		}
		out := r.regions[r.NodeRegion(o.Node)]
		if o.Dst != out.Base || o.Len != out.Size {
			return res, operandErr(RuleEndpoint, o.Node, "destination of %d words at %d does not match the node's output region", o.Len, o.Dst)
		}
		if len(o.Srcs) != len(n.Inputs) {
			return res, operandErr(RuleEndpoint, o.Node, "%d sources for %d graph inputs", len(o.Srcs), len(n.Inputs))
		}
		for i, src := range o.Srcs {
			if e = r.isInput(n, i, src); e != nil {
				return res, e
			}
		}
		res.Node, res.RegionReads = o.Node, n.Inputs
		res.Writes, res.WriteRegion = Block{Span: contig(out.Base, out.Size), Rep: 1}, r.NodeRegion(o.Node)
		return res, nil
	}
	return res, operandErr(RuleStructure, -1, "unknown op type %T", op)
}

// isInput checks that src addresses the output region of n's i-th graph input.
func (r *Resolver) isInput(n *graph.Node, i int, src int64) error {
	if in := r.NodeRegion(n.Inputs[i]); in < 0 || src != r.regions[in].Base {
		return operandErr(RuleEndpoint, n.ID, "source %d does not address input node %d's region", src, n.Inputs[i])
	}
	return nil
}
