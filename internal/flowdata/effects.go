package flowdata

import (
	"fmt"
	"sort"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/mop"
	"cimmlc/internal/sched"
)

// span is a half-open address interval [lo,hi) with an optional stride: a
// strided span covers lo, lo+stride, … for count words (hi = last+1).
type span struct {
	lo     int64
	count  int64
	stride int64
}

func (s span) word(i int64) int64 { return s.lo + i*s.stride }
func (s span) end() int64 {
	if s.count == 0 {
		return s.lo
	}
	return s.word(s.count-1) + 1
}

func contig(lo, n int64) span { return span{lo: lo, count: n, stride: 1} }

// effect is the memory behavior of one op: explicit word reads, whole-region
// conservative reads, plain writes and accumulating writes. cimNode is the
// programmed node a crossbar read computes for (owner attribution of the
// scratch words it consumes); -1 for every other op.
type effect struct {
	reads       []span
	regionReads []*Region
	writes      []span
	accs        []span
	cimRead     bool
	cimNode     int
}

// xbState mirrors funcsim's per-crossbar programming record, including the
// reprogram-reset rule: a write with a different (node, rowDelta, colOff)
// key clears the crossbar before programming.
type xbState struct {
	node       int
	rowDelta   int
	cellColOff int
	rows, cols int
}

// machine is the abstract interpreter: one forward walk over the flattened
// instruction stream, collecting legality problems and dataflow facts.
type machine struct {
	g   *graph.Graph
	a   *arch.Arch
	s   *sched.Schedule
	fps map[int]mapping.Footprint
	lay *codegen.Layout

	regions        []*Region
	nodeRegions    []*Region // sorted by base, pairwise disjoint
	scratchRegions []*Region // sorted by base, may alias after flowopt
	nodeRegion     map[int]*Region
	regionIdx      map[*Region]int
	isNode         []bool // word → belongs to a node region

	defined   []bool
	writer    []int32 // word → last writing instr, -1 never, -2 preloaded
	nodeStamp []int32 // region index → last instr writing it (node regions)
	prog      []xbState
	xbFirst   []int32 // crossbar → first write instr of the current epoch
	xbRead    []int32 // crossbar → last read instr of the current epoch
	xbSpans   []Interval

	// Parallel-group conflict scratch: mark[w] == epoch means word w was
	// written this group, by group member markOp[w].
	epoch  int32
	mark   []int32
	markOp []int32

	cur           int // index of the instruction being interpreted
	instrs        []Instr
	effects       []effect
	facts         []Facts
	redundant     []bool
	regionWriters [][]int32
	lastXfer      map[mop.Op]int
	claimedBy     map[int32]int32
	transferWords int64
	groups        int

	problems []Problem
}

func newMachine(g *graph.Graph, a *arch.Arch, s *sched.Schedule, fps map[int]mapping.Footprint, lay *codegen.Layout) *machine {
	m := &machine{
		g: g, a: a, s: s, fps: fps, lay: lay,
		nodeRegion: map[int]*Region{},
		regionIdx:  map[*Region]int{},
		prog:       make([]xbState, a.TotalCrossbars()),
		lastXfer:   map[mop.Op]int{},
		claimedBy:  map[int32]int32{},
	}
	m.xbFirst = make([]int32, len(m.prog))
	m.xbRead = make([]int32, len(m.prog))
	for i := range m.prog {
		m.prog[i].node = -1
		m.xbFirst[i] = -1
		m.xbRead[i] = -1
	}
	for _, n := range g.Nodes {
		base, ok := lay.Base[n.ID]
		if !ok {
			m.report(RuleRegionBounds, n.ID, "node has no layout region")
			continue
		}
		r := &Region{Base: base, Size: lay.Size[n.ID], Node: n.ID}
		m.nodeRegions = append(m.nodeRegions, r)
		m.nodeRegion[n.ID] = r
	}
	for _, id := range sortedInt64Keys(lay.Scratch) {
		f, ok := fps[id]
		if !ok {
			m.report(RuleRegionBounds, id, "scratch region for a node without a footprint")
			continue
		}
		dup := 1
		if s != nil && f.Rounds(a) == 1 {
			dup = s.DupOf(id)
		}
		r := &Region{Base: lay.Scratch[id], Size: int64(f.Rows) * int64(dup), Node: id, Scratch: true}
		m.scratchRegions = append(m.scratchRegions, r)
	}
	sortRegions(m.nodeRegions)
	sortRegions(m.scratchRegions)
	// Node regions must be pairwise disjoint and inside the layout; a
	// scratch region must never alias node space. Scratch regions MAY alias
	// each other — liveness-based slot reuse is legal, and the word-level
	// owner attribution in the forward pass catches any actual data clash.
	var prev *Region
	for _, r := range m.nodeRegions {
		if r.Base < 0 || r.end() > lay.Total {
			m.report(RuleRegionBounds, r.Node, "%s outside the %d-word layout", r, lay.Total)
		}
		if prev != nil && r.Base < prev.end() {
			m.report(RuleScratchLap, r.Node, "%s overlaps %s", r, prev)
		}
		if prev == nil || r.end() > prev.end() {
			prev = r
		}
	}
	for _, r := range m.scratchRegions {
		if r.Base < 0 || r.end() > lay.Total {
			m.report(RuleRegionBounds, r.Node, "%s outside the %d-word layout", r, lay.Total)
		}
		if n := m.nodeRegionAt(r.Base); n != nil {
			m.report(RuleScratchLap, r.Node, "%s overlaps %s", r, n)
		} else if n := m.nodeRegionAt(r.end() - 1); r.Size > 0 && n != nil {
			m.report(RuleScratchLap, r.Node, "%s overlaps %s", r, n)
		}
	}
	m.regions = make([]*Region, 0, len(m.nodeRegions)+len(m.scratchRegions))
	m.regions = append(m.regions, m.nodeRegions...)
	m.regions = append(m.regions, m.scratchRegions...)
	sort.SliceStable(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	for i, r := range m.regions {
		m.regionIdx[r] = i
	}
	if len(m.problems) > 0 {
		return m
	}
	m.defined = make([]bool, lay.Total)
	m.writer = make([]int32, lay.Total)
	for i := range m.writer {
		m.writer[i] = -1
	}
	m.isNode = make([]bool, lay.Total)
	for _, r := range m.nodeRegions {
		for w := r.Base; w < r.end(); w++ {
			m.isNode[w] = true
		}
	}
	m.nodeStamp = make([]int32, len(m.regions))
	for i := range m.nodeStamp {
		m.nodeStamp[i] = -1
	}
	m.mark = make([]int32, lay.Total)
	m.markOp = make([]int32, lay.Total)
	m.regionWriters = make([][]int32, len(m.regions))
	// Inputs are loaded before the flow runs.
	for _, id := range m.g.InputIDs() {
		if r := m.nodeRegion[id]; r != nil {
			for w := r.Base; w < r.end(); w++ {
				if !m.defined[w] {
					m.defined[w] = true
					r.defined++
				}
				m.writer[w] = -2
			}
		}
	}
	return m
}

func (m *machine) full() bool { return len(m.problems) >= MaxProblems }

func (m *machine) report(rule string, node int, format string, args ...any) {
	if len(m.problems) < MaxProblems {
		m.problems = append(m.problems, Problem{rule, node, fmt.Sprintf(format, args...)})
	}
}

// nodeRegionAt returns the node region containing addr, or nil. Node
// regions are disjoint, so the binary search is exact.
func (m *machine) nodeRegionAt(addr int64) *Region {
	lo, hi := 0, len(m.nodeRegions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.nodeRegions[mid].Base > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	r := m.nodeRegions[lo-1]
	if addr < r.end() {
		return r
	}
	return nil
}

// scratchContaining returns the first scratch region fully containing the
// span, or nil. Linear over the (few) scratch regions because aliasing
// after slot reuse makes a by-address binary search ambiguous.
func (m *machine) scratchContaining(sp span) *Region {
	for _, r := range m.scratchRegions {
		if r.Base <= sp.lo && sp.end() <= r.end() {
			return r
		}
	}
	return nil
}

// spanRegion checks a span lies inside a single region and returns it.
func (m *machine) spanRegion(sp span, node int, what string) *Region {
	if sp.count == 0 {
		return nil
	}
	if sp.lo < 0 || sp.end() > m.lay.Total {
		m.report(RuleRegionBounds, node, "%s [%d,%d) outside the %d-word layout", what, sp.lo, sp.end(), m.lay.Total)
		return nil
	}
	if r := m.nodeRegionAt(sp.lo); r != nil {
		if sp.end() <= r.end() {
			return r
		}
		m.report(RuleRegionBounds, node, "%s [%d,%d) does not stay inside one buffer region", what, sp.lo, sp.end())
		return nil
	}
	if r := m.scratchContaining(sp); r != nil {
		return r
	}
	m.report(RuleRegionBounds, node, "%s [%d,%d) does not stay inside one buffer region", what, sp.lo, sp.end())
	return nil
}

// regionOfSpan attributes a (checked) span to its containing region.
func (m *machine) regionOfSpan(sp span) *Region {
	if sp.count == 0 {
		return nil
	}
	if r := m.nodeRegionAt(sp.lo); r != nil {
		return r
	}
	return m.scratchContaining(sp)
}

// push appends one leaf instruction and makes it current.
func (m *machine) push(op mop.Op, sec string, group int) int {
	i := len(m.instrs)
	m.instrs = append(m.instrs, Instr{Op: op, Sec: sec, Group: group})
	m.effects = append(m.effects, effect{})
	m.facts = append(m.facts, Facts{})
	m.redundant = append(m.redundant, false)
	m.cur = i
	switch o := op.(type) {
	case mop.Mov:
		if o.Len > 0 {
			m.transferWords += o.Len
		}
	case mop.MovWindow:
		if f, ok := m.fps[o.Node]; ok {
			m.transferWords += int64(f.Rows)
		}
	}
	return i
}

// section interprets one section's top-level ops in program order.
func (m *machine) section(ops []mop.Op, sec string) {
	for _, op := range ops {
		if m.full() {
			return
		}
		if par, ok := op.(mop.Parallel); ok {
			m.stepParallel(par, sec)
			continue
		}
		i := m.push(op, sec, -1)
		eff, ok := m.effectOf(op)
		if !ok {
			continue
		}
		m.effects[i] = eff
		if m.maybeRedundant(i, op, eff) {
			continue
		}
		m.apply(i, op, eff)
	}
}

// stepParallel checks the group's members pairwise for write/write and
// read/write races, then applies them in program order — the order funcsim
// executes them, which the accumulate def-use rule depends on.
func (m *machine) stepParallel(par mop.Parallel, sec string) {
	gid := m.groups
	m.groups++
	base := len(m.instrs)
	effs := make([]effect, len(par.Body))
	oks := make([]bool, len(par.Body))
	for i, inner := range par.Body {
		if _, nested := inner.(mop.Parallel); nested {
			m.report(RuleStructure, -1, "nested parallel group in %s section", sec)
			return
		}
		m.push(inner, sec, gid)
		effs[i], oks[i] = m.effectOf(inner)
	}
	m.epoch++
	// Pass 1: mark writes in program order; a plain write over any earlier
	// member's write is a clobber (W-then-A and A-then-A are the legal
	// accumulation overlaps).
	for i := range par.Body {
		if !oks[i] {
			continue
		}
		markWrite := func(sp span, acc bool) {
			for k := int64(0); k < sp.count; k++ {
				w := sp.word(k)
				if w < 0 || w >= int64(len(m.mark)) {
					continue
				}
				if m.mark[w] == m.epoch && !acc {
					m.report(RuleParallel, -1,
						"parallel members %d and %d both plain-write word %d: %s clobbers %s",
						m.markOp[w], i, w, par.Body[i], par.Body[m.markOp[w]])
					return
				}
				m.mark[w] = m.epoch
				m.markOp[w] = int32(i)
			}
		}
		for _, sp := range effs[i].writes {
			markWrite(sp, false)
		}
		for _, sp := range effs[i].accs {
			markWrite(sp, true)
		}
	}
	// Pass 2: no member may read a word another member writes.
	for i := range par.Body {
		if !oks[i] {
			continue
		}
		checkRead := func(w int64) bool {
			if w >= 0 && w < int64(len(m.mark)) && m.mark[w] == m.epoch && m.markOp[w] != int32(i) {
				m.report(RuleParallel, -1,
					"parallel member %d reads word %d that member %d writes: %s races %s",
					i, w, m.markOp[w], par.Body[i], par.Body[m.markOp[w]])
				return true
			}
			return false
		}
		for _, sp := range effs[i].reads {
			for k := int64(0); k < sp.count; k++ {
				if checkRead(sp.word(k)) {
					break
				}
			}
		}
		for _, r := range effs[i].regionReads {
			for w := r.Base; w < r.end(); w++ {
				if checkRead(w) {
					break
				}
			}
		}
	}
	for i, inner := range par.Body {
		if oks[i] {
			m.effects[base+i] = effs[i]
			m.apply(base+i, inner, effs[i])
		}
	}
}

// maybeRedundant reports whether instruction i is a top-level transfer
// identical to an earlier one whose sources have not been written since
// strictly before that earlier transfer ran and whose destination words the
// earlier transfer still owns — i.e. deleting i leaves memory bit-identical.
// Source staleness is region-granular for node regions because funcsim's
// settle requantizes a whole CIM output region at its first read: any write
// into the source region between the two transfers could change what a
// re-read observes, so only a fully untouched source qualifies.
func (m *machine) maybeRedundant(i int, op mop.Op, eff effect) bool {
	switch op.(type) {
	case mop.Mov, mop.MovWindow:
	default:
		return false
	}
	cand, seen := m.lastXfer[op]
	if seen && m.unchangedSince(cand, eff) {
		m.redundant[i] = true
		// State is NOT advanced: the representative transfer stays cand, so
		// chains of identical transfers all resolve against the one that
		// survives deletion.
		return true
	}
	m.lastXfer[op] = i
	return false
}

func (m *machine) unchangedSince(cand int, eff effect) bool {
	c := int32(cand)
	for _, r := range eff.regionReads {
		if m.nodeStamp[m.regionIdx[r]] >= c {
			return false
		}
	}
	for _, sp := range eff.reads {
		for k := int64(0); k < sp.count; k++ {
			w := sp.word(k)
			if w < 0 || w >= int64(len(m.writer)) {
				return false
			}
			if m.isNode[w] {
				r := m.nodeRegionAt(w)
				if r == nil || m.nodeStamp[m.regionIdx[r]] >= c {
					return false
				}
				// The whole node region is stamped at once; skip to its end.
				if rem := r.end() - w - 1; sp.stride == 1 && rem > 0 {
					if k += rem; k >= sp.count {
						break
					}
				}
			} else if m.writer[w] >= c {
				return false
			}
		}
	}
	dirty := func(sp span) bool {
		for k := int64(0); k < sp.count; k++ {
			w := sp.word(k)
			if w < 0 || w >= int64(len(m.writer)) || m.writer[w] != c {
				return true
			}
			if m.isNode[w] {
				r := m.nodeRegionAt(w)
				if r == nil || m.nodeStamp[m.regionIdx[r]] != c {
					return true
				}
			}
		}
		return false
	}
	for _, sp := range eff.writes {
		if dirty(sp) {
			return false
		}
	}
	return len(eff.accs) == 0
}

// apply runs the def-use checks of one op's effect and commits its writes.
func (m *machine) apply(i int, op mop.Op, eff effect) {
	var defs []int32
	addDef := func(d int32) {
		for _, e := range defs {
			if e == d {
				return
			}
		}
		defs = append(defs, d)
	}
	for _, sp := range eff.reads {
		prev := int32(-3)
		for k := int64(0); k < sp.count; k++ {
			w := sp.word(k)
			if w < 0 || w >= int64(len(m.defined)) || !m.defined[w] {
				m.report(RuleUseBeforeDef, -1, "reads undefined word %d: %s", w, op)
				break
			}
			if d := m.writer[w]; d != prev {
				if d >= 0 {
					addDef(d)
				} else {
					addDef(-1)
				}
				prev = d
			}
		}
	}
	if eff.cimRead {
		m.claimReads(i, op, eff)
	}
	for _, r := range eff.regionReads {
		if r.defined != r.Size {
			m.report(RuleUseBeforeDef, r.Node, "reads %s with %d of %d words undefined: %s", r, r.Size-r.defined, r.Size, op)
		}
		m.facts[i].RegionReads = append(m.facts[i].RegionReads, int32(m.regionIdx[r]))
	}
	sort.Slice(defs, func(a, b int) bool { return defs[a] < defs[b] })
	m.facts[i].Defs = defs
	// Accumulating writes need no pre-defined target: the machine's memory
	// is zero-initialized, so x += v on a never-written word equals a plain
	// write — multi-round oversized operators depend on exactly that. The
	// region-ownership check in crossbarReadEffect already confines accs to
	// the emitting node's output region.
	for _, sp := range eff.writes {
		m.commit(i, sp)
	}
	for _, sp := range eff.accs {
		m.commit(i, sp)
	}
}

// claimReads attributes the scratch words a crossbar read consumes to the
// instruction that gathered them, and requires every gather to feed exactly
// one CIM node. This is the flow-sensitive form of the scratch-overlap
// rule: address-aliased scratch slots are fine until two different nodes
// consume the same gathered bytes, which is the actual data clash.
func (m *machine) claimReads(i int, op mop.Op, eff effect) {
	node := int32(eff.cimNode)
	for _, sp := range eff.reads {
		prev := int32(-3)
		for k := int64(0); k < sp.count; k++ {
			w := sp.word(k)
			if w < 0 || w >= int64(len(m.writer)) {
				break
			}
			d := m.writer[w]
			if d == prev || d < 0 {
				prev = d
				continue
			}
			prev = d
			if mw, ok := m.instrs[d].Op.(mop.MovWindow); ok && mw.Node != eff.cimNode {
				m.report(RuleScratchLap, eff.cimNode,
					"crossbar read of node %d consumes a window gathered for node %d: %s", eff.cimNode, mw.Node, op)
				return
			}
			if owner, ok := m.claimedBy[d]; !ok {
				m.claimedBy[d] = node
			} else if owner != node {
				m.report(RuleScratchLap, eff.cimNode,
					"crossbar reads of nodes %d and %d consume the same gathered data (instr %d): %s", owner, eff.cimNode, d, op)
				return
			}
		}
	}
}

// commit defines one write span: defined-ness, per-word writer, region
// stamps and the region-writer program-order record.
func (m *machine) commit(i int, sp span) {
	r := m.regionOfSpan(sp)
	var rIdx int32 = -1
	if r != nil {
		rIdx = int32(m.regionIdx[r])
		l := m.regionWriters[rIdx]
		if len(l) == 0 || l[len(l)-1] != int32(i) {
			m.regionWriters[rIdx] = append(l, int32(i))
		}
		if !r.Scratch {
			m.nodeStamp[rIdx] = int32(i)
		}
	}
	for k := int64(0); k < sp.count; k++ {
		w := sp.word(k)
		if w < 0 || w >= int64(len(m.defined)) {
			continue
		}
		if !m.defined[w] {
			m.defined[w] = true
			if r != nil && !r.Scratch {
				r.defined++
			}
		}
		m.writer[w] = int32(i)
	}
}

// effectOf computes one op's endpoint checks and memory effect. ok=false
// means the op was too broken to model (its problems are already reported);
// the caller skips its effect.
func (m *machine) effectOf(op mop.Op) (effect, bool) {
	switch o := op.(type) {
	case mop.WriteXB:
		return effect{}, m.applyWrite(o.XB, 0, o.Node, o.CellRowOff, o.CellColOff, o.Rows, o.Cols, op)
	case mop.WriteRow:
		return effect{}, m.applyWrite(o.XB, o.Row, o.Node, o.CellRowOff, o.CellColOff, o.NumRows, o.Cols, op)
	case mop.ReadXB:
		if !m.xbOK(o.XB, op) {
			return effect{}, false
		}
		p := &m.prog[o.XB]
		if p.node < 0 {
			m.report(RuleUnprogrammed, -1, "reads unprogrammed crossbar %d: %s", o.XB, op)
			return effect{}, false
		}
		eff, ok := m.crossbarReadEffect(p, p.rows, o.Src, o.Dst, o.DstStride, o.Acc, op)
		if ok {
			m.xbRead[o.XB] = int32(m.cur)
		}
		return eff, ok
	case mop.ReadRow:
		if !m.xbOK(o.XB, op) {
			return effect{}, false
		}
		if o.NumRows > m.a.XB.ParallelRow {
			m.report(RuleEndpoint, -1, "activates %d rows but parallel_row is %d: %s", o.NumRows, m.a.XB.ParallelRow, op)
			return effect{}, false
		}
		p := &m.prog[o.XB]
		if p.node < 0 {
			m.report(RuleUnprogrammed, -1, "reads unprogrammed crossbar %d: %s", o.XB, op)
			return effect{}, false
		}
		if o.Row < 0 || o.Row+o.NumRows > p.rows {
			m.report(RuleUnprogrammed, p.node, "reads wordlines [%d,%d) but only %d are programmed: %s", o.Row, o.Row+o.NumRows, p.rows, op)
			return effect{}, false
		}
		eff, ok := m.crossbarReadEffect(p, o.NumRows, o.Src, o.Dst, o.DstStride, o.Acc, op)
		if ok {
			m.xbRead[o.XB] = int32(m.cur)
		}
		return eff, ok
	case mop.ReadCore:
		return m.readCoreEffect(o)
	case mop.Mov:
		if o.Len < 0 {
			m.report(RuleEndpoint, -1, "negative length: %s", op)
			return effect{}, false
		}
		rOK := m.spanRegion(contig(o.Src, o.Len), -1, "mov source") != nil
		wOK := m.spanRegion(contig(o.Dst, o.Len), -1, "mov destination") != nil
		if !rOK || !wOK {
			return effect{}, false
		}
		return effect{reads: []span{contig(o.Src, o.Len)}, writes: []span{contig(o.Dst, o.Len)}, cimNode: -1}, true
	case mop.MovWindow:
		return m.movWindowEffect(o)
	case mop.Dcom:
		return m.dcomEffect(o)
	}
	m.report(RuleStructure, -1, "unknown op type %T", op)
	return effect{}, false
}

func (m *machine) xbOK(xb int, op mop.Op) bool {
	if xb < 0 || xb >= len(m.prog) {
		m.report(RuleEndpoint, -1, "crossbar %d outside the chip's %d crossbars: %s", xb, len(m.prog), op)
		return false
	}
	return true
}

// applyWrite models cim.writexb / cim.writerow, mirroring the kernel
// funcsim's compileWrite builds: its compile-time endpoint checks plus the
// reprogram-reset bookkeeping the kernel applies to the crossbar view (and the crossbar
// programming-epoch intervals PeakLiveCrossbars is computed from).
func (m *machine) applyWrite(xb, rowStart, node, cellRowOff, cellColOff, rows, cols int, op mop.Op) bool {
	if !m.xbOK(xb, op) {
		return false
	}
	f, ok := m.fps[node]
	if !ok {
		m.report(RuleUnknownNode, node, "programs weights of a node without a footprint: %s", op)
		return false
	}
	bad := false
	if rowStart < 0 || rows <= 0 || rowStart+rows > m.a.XB.Rows || cols <= 0 || cols > m.a.XB.Cols {
		m.report(RuleEndpoint, node, "tile %dx%d at wordline %d exceeds the %dx%d crossbar: %s", rows, cols, rowStart, m.a.XB.Rows, m.a.XB.Cols, op)
		bad = true
	}
	s := m.a.CellsPerWeight()
	if cellColOff%s != 0 {
		m.report(RuleEndpoint, node, "cell column offset %d not aligned to %d cells per weight: %s", cellColOff, s, op)
		bad = true
	}
	if cellRowOff < 0 || cellRowOff+rows > f.Rows {
		m.report(RuleEndpoint, node, "cell rows [%d,%d) exceed the node's %d-row weight matrix: %s", cellRowOff, cellRowOff+rows, f.Rows, op)
		bad = true
	}
	if cellColOff < 0 || cellColOff+cols > f.CellCols {
		m.report(RuleEndpoint, node, "cell cols [%d,%d) exceed the node's %d-col cell matrix: %s", cellColOff, cellColOff+cols, f.CellCols, op)
		bad = true
	}
	if bad {
		return false
	}
	p := &m.prog[xb]
	if p.node != node || p.rowDelta != cellRowOff-rowStart || p.cellColOff != cellColOff {
		*p = xbState{node: node, rowDelta: cellRowOff - rowStart, cellColOff: cellColOff, rows: 0, cols: cols}
		if m.xbRead[xb] >= 0 {
			m.xbSpans = append(m.xbSpans, Interval{int(m.xbFirst[xb]), int(m.xbRead[xb])})
		}
		m.xbFirst[xb] = int32(m.cur)
		m.xbRead[xb] = -1
	} else if m.xbFirst[xb] < 0 {
		m.xbFirst[xb] = int32(m.cur)
	}
	if rowStart+rows > p.rows {
		p.rows = rowStart + rows
	}
	if cols > p.cols {
		p.cols = cols
	}
	return true
}

// crossbarReadEffect models cim.readxb / cim.readrow: read nrows input words
// at src, write (or accumulate) the per-weight-column sums with the given
// stride into the programmed node's output region.
func (m *machine) crossbarReadEffect(p *xbState, nrows int, src, dst, stride int64, acc bool, op mop.Op) (effect, bool) {
	if stride <= 0 {
		m.report(RuleEndpoint, p.node, "non-positive destination stride %d: %s", stride, op)
		return effect{}, false
	}
	nW := int64(p.cols / m.a.CellsPerWeight())
	read := contig(src, int64(nrows))
	if m.spanRegion(read, p.node, "crossbar input") == nil {
		return effect{}, false
	}
	write := span{lo: dst, count: nW, stride: stride}
	out := m.nodeRegion[p.node]
	if out == nil {
		m.report(RuleUnknownNode, p.node, "programmed node has no output region: %s", op)
		return effect{}, false
	}
	if write.count > 0 && (write.lo < out.Base || write.end() > out.end()) {
		m.report(RuleRegionBounds, p.node, "writes [%d,%d) outside the node's output region [%d,%d): %s",
			write.lo, write.end(), out.Base, out.end(), op)
		return effect{}, false
	}
	eff := effect{reads: []span{read}, cimRead: true, cimNode: p.node}
	if acc {
		eff.accs = []span{write}
	} else {
		eff.writes = []span{write}
	}
	return eff, true
}

// readCoreEffect models cim.readcore: the core gathers windows from the
// node's input region and writes every output column of every window in the
// range, using the same destination geometry funcsim's compileReadCore fixes
// (output column j of window w at Dst + j·cj + w·cw).
func (m *machine) readCoreEffect(o mop.ReadCore) (effect, bool) {
	n, err := m.g.Node(o.Node)
	if err != nil || !n.Op.CIMSupported() {
		m.report(RuleUnknownNode, o.Node, "readcore on a non-CIM or unknown node: %s", o)
		return effect{}, false
	}
	f, ok := m.fps[o.Node]
	if !ok {
		m.report(RuleUnknownNode, o.Node, "readcore on a node without a footprint: %s", o)
		return effect{}, false
	}
	if o.Core < 0 || o.Core >= m.a.Chip.CoreCount() {
		m.report(RuleEndpoint, o.Node, "core %d outside the %d-core chip: %s", o.Core, m.a.Chip.CoreCount(), o)
		return effect{}, false
	}
	if o.WinStart < 0 || o.WinCount <= 0 || o.WinStart+o.WinCount > f.MVMs {
		m.report(RuleEndpoint, o.Node, "window range [%d,%d) outside the node's %d MVM windows: %s", o.WinStart, o.WinStart+o.WinCount, f.MVMs, o)
		return effect{}, false
	}
	in := m.nodeRegion[n.Inputs[0]]
	if in == nil || o.Src != in.Base {
		m.report(RuleEndpoint, o.Node, "source %d does not address input node %d's region: %s", o.Src, n.Inputs[0], o)
		return effect{}, false
	}
	out := m.nodeRegion[o.Node]
	if out == nil || o.Dst != out.Base {
		m.report(RuleEndpoint, o.Node, "destination %d does not address the node's output region: %s", o.Dst, o)
		return effect{}, false
	}
	eff := effect{regionReads: []*Region{in}, cimNode: -1}
	// That destination geometry, expressed as contiguous spans.
	switch {
	case n.Op == graph.OpConv:
		hw := int64(n.OutShape[1]) * int64(n.OutShape[2])
		for j := 0; j < f.Cols; j++ {
			eff.writes = append(eff.writes, contig(out.Base+int64(j)*hw+o.WinStart, o.WinCount))
		}
	case len(n.OutShape) == 2:
		outF := int64(n.OutShape[1])
		for w := o.WinStart; w < o.WinStart+o.WinCount; w++ {
			eff.writes = append(eff.writes, contig(out.Base+w*outF, int64(f.Cols)))
		}
	default:
		eff.writes = append(eff.writes, contig(out.Base, int64(f.Cols)))
	}
	for _, sp := range eff.writes {
		if sp.lo < out.Base || sp.end() > out.end() {
			m.report(RuleRegionBounds, o.Node, "writes [%d,%d) outside the node's output region: %s", sp.lo, sp.end(), o)
			return effect{}, false
		}
	}
	return eff, true
}

// movWindowEffect models mov_window: an im2col gather of one convolution
// window from the input region into a contiguous scratch vector.
func (m *machine) movWindowEffect(o mop.MovWindow) (effect, bool) {
	n, err := m.g.Node(o.Node)
	if err != nil || n.Op != graph.OpConv {
		m.report(RuleUnknownNode, o.Node, "mov_window on a non-conv node: %s", o)
		return effect{}, false
	}
	f, ok := m.fps[o.Node]
	if !ok {
		m.report(RuleUnknownNode, o.Node, "mov_window on a node without a footprint: %s", o)
		return effect{}, false
	}
	if o.Window < 0 || o.Window >= f.MVMs {
		m.report(RuleEndpoint, o.Node, "window %d outside the node's %d MVM windows: %s", o.Window, f.MVMs, o)
		return effect{}, false
	}
	in := m.nodeRegion[n.Inputs[0]]
	if in == nil || o.SrcBase != in.Base {
		m.report(RuleEndpoint, o.Node, "source %d does not address input node %d's region: %s", o.SrcBase, n.Inputs[0], o)
		return effect{}, false
	}
	write := contig(o.Dst, int64(f.Rows))
	if m.spanRegion(write, o.Node, "gather destination") == nil {
		return effect{}, false
	}
	return effect{regionReads: []*Region{in}, writes: []span{write}, cimNode: -1}, true
}

// dcomEffect models a digital-compute op: funcsim reads the graph inputs'
// regions (the Srcs operands must address them) and writes the node's whole
// output region.
func (m *machine) dcomEffect(o mop.Dcom) (effect, bool) {
	n, err := m.g.Node(o.Node)
	if err != nil {
		m.report(RuleUnknownNode, o.Node, "dcom on unknown node: %s", o)
		return effect{}, false
	}
	out := m.nodeRegion[o.Node]
	if out == nil || o.Dst != out.Base || o.Len != out.Size {
		m.report(RuleEndpoint, o.Node, "destination [%d,%d) does not match the node's output region: %s", o.Dst, o.Dst+o.Len, o)
		return effect{}, false
	}
	if len(o.Srcs) != len(n.Inputs) {
		m.report(RuleEndpoint, o.Node, "%d sources for %d graph inputs: %s", len(o.Srcs), len(n.Inputs), o)
		return effect{}, false
	}
	eff := effect{writes: []span{contig(out.Base, out.Size)}, cimNode: -1}
	for i, src := range o.Srcs {
		in := m.nodeRegion[n.Inputs[i]]
		if in == nil || src != in.Base {
			m.report(RuleEndpoint, o.Node, "source %d does not address input node %d's region: %s", src, n.Inputs[i], o)
			return effect{}, false
		}
		eff.regionReads = append(eff.regionReads, in)
	}
	return eff, true
}

func sortRegions(rs []*Region) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Base < rs[j].Base })
}
