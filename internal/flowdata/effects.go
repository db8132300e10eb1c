package flowdata

import (
	"errors"
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
)

// effect is the memory behavior of one op, as internal/codegen's Resolver
// resolved it: explicit word reads, whole-region conservative reads, and the
// words written or accumulated into. A crossbar read's Node is the programmed
// node it computes for (owner attribution of the scratch words it consumes);
// a weight write touches no buffer word and has the zero effect.
type effect = codegen.Operands

// machine is the abstract interpreter: one forward walk over the flattened
// instruction stream, collecting legality problems and dataflow facts. What
// each op touches — and whether its operands are legal at all — is the
// resolver's answer, the same one funcsim compiles its kernels from; the
// machine owns only the dataflow state.
type machine struct {
	g   *graph.Graph
	lay *codegen.Layout
	res *codegen.Resolver

	regions []*Region // parallel to res.Regions()

	defined   []bool
	writer    []int32 // word → last writing instr, -1 never, -2 preloaded
	nodeStamp []int32 // region index → last instr writing it (node regions)
	prog      []codegen.XBRecord
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
	redundant     []bool
	lastXfer      map[mop.Op]int
	claimedBy     map[int32]int32
	transferWords int64
	groups        int

	problems []Problem
}

func newMachine(g *graph.Graph, a *arch.Arch, lay *codegen.Layout) *machine {
	res, errs := codegen.NewResolver(g, a, lay)
	m := &machine{
		g: g, lay: lay, res: res,
		prog:      make([]codegen.XBRecord, res.XBs()),
		lastXfer:  map[mop.Op]int{},
		claimedBy: map[int32]int32{},
	}
	m.xbFirst = make([]int32, len(m.prog))
	m.xbRead = make([]int32, len(m.prog))
	for i := range m.prog {
		m.prog[i].Node = -1
		m.xbFirst[i] = -1
		m.xbRead[i] = -1
	}
	for _, r := range res.Regions() {
		m.regions = append(m.regions, &Region{Region: r})
	}
	for _, e := range errs {
		m.report(e.Rule, e.Node, "%s", e.Msg)
	}
	if len(m.problems) > 0 {
		return m
	}
	m.defined = make([]bool, lay.Total)
	m.writer = make([]int32, lay.Total)
	for i := range m.writer {
		m.writer[i] = -1
	}
	m.nodeStamp = make([]int32, len(m.regions))
	for i := range m.nodeStamp {
		m.nodeStamp[i] = -1
	}
	m.mark = make([]int32, lay.Total)
	m.markOp = make([]int32, lay.Total)
	// Inputs are loaded before the flow runs.
	for _, id := range m.g.InputIDs() {
		r := m.nodeRegion(id)
		for w := r.Base; w < r.End(); w++ {
			if !m.defined[w] {
				m.defined[w] = true
				r.defined++
			}
			m.writer[w] = -2
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

// nodeRegion returns node id's output region.
func (m *machine) nodeRegion(id int) *Region { return m.regions[m.res.NodeRegion(id)] }

// push appends one leaf instruction and makes it current.
func (m *machine) push(op mop.Op, sec string, group int) int {
	i := len(m.instrs)
	m.instrs = append(m.instrs, Instr{Op: op, Sec: sec, Group: group})
	m.effects = append(m.effects, effect{})
	m.redundant = append(m.redundant, false)
	m.cur = i
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
	marking:
		for r := int64(0); r < effs[i].Writes.Rep; r++ {
			sp := effs[i].Writes.Row(r)
			for k := int64(0); k < sp.Count; k++ {
				w := sp.Word(k)
				if m.mark[w] == m.epoch && !effs[i].Acc {
					m.report(RuleParallel, -1,
						"parallel members %d and %d both plain-write word %d: %s clobbers %s",
						m.markOp[w], i, w, par.Body[i], par.Body[m.markOp[w]])
					break marking
				}
				m.mark[w] = m.epoch
				m.markOp[w] = int32(i)
			}
		}
	}
	// Pass 2: no member may read a word another member writes.
	for i := range par.Body {
		if !oks[i] {
			continue
		}
		checkRead := func(w int64) bool {
			if m.mark[w] == m.epoch && m.markOp[w] != int32(i) {
				m.report(RuleParallel, -1,
					"parallel member %d reads word %d that member %d writes: %s races %s",
					i, w, m.markOp[w], par.Body[i], par.Body[m.markOp[w]])
				return true
			}
			return false
		}
		for k, sp := int64(0), effs[i].Reads; k < sp.Count && !checkRead(sp.Word(k)); k++ {
		}
		for _, id := range effs[i].RegionReads {
			r := m.nodeRegion(id)
			for w := r.Base; w < r.End() && !checkRead(w); w++ {
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
	for _, id := range eff.RegionReads {
		if m.nodeStamp[m.res.NodeRegion(id)] >= c {
			return false
		}
	}
	// The source is one run inside one region. A node region is stamped as a
	// whole; scratch words carry their own writers.
	if eff.Reads.Count > 0 && !m.regions[eff.ReadRegion].Scratch {
		if m.nodeStamp[eff.ReadRegion] >= c {
			return false
		}
	} else {
		for k := int64(0); k < eff.Reads.Count; k++ {
			if m.writer[eff.Reads.Word(k)] >= c {
				return false
			}
		}
	}
	for r := int64(0); r < eff.Writes.Rep; r++ {
		sp := eff.Writes.Row(r)
		for k := int64(0); k < sp.Count; k++ {
			if m.writer[sp.Word(k)] != c {
				return false
			}
		}
	}
	if eff.Writes.Rep > 0 && !m.regions[eff.WriteRegion].Scratch && m.nodeStamp[eff.WriteRegion] != c {
		return false
	}
	return !eff.Acc
}

// apply runs the def-use checks of one op's effect and commits its writes.
func (m *machine) apply(i int, op mop.Op, eff effect) {
	for k := int64(0); k < eff.Reads.Count; k++ {
		if w := eff.Reads.Word(k); !m.defined[w] {
			m.report(RuleUseBeforeDef, -1, "reads undefined word %d: %s", w, op)
			break
		}
	}
	switch op.(type) {
	case mop.ReadXB, mop.ReadRow:
		m.claimReads(op, eff)
	}
	for _, id := range eff.RegionReads {
		if r := m.nodeRegion(id); r.defined != r.Size {
			m.report(RuleUseBeforeDef, r.Node, "reads %s with %d of %d words undefined: %s", r, r.Size-r.defined, r.Size, op)
		}
	}
	// Accumulating writes need no pre-defined target: the machine's memory
	// is zero-initialized, so x += v on a never-written word equals a plain
	// write — multi-round oversized operators depend on exactly that. The
	// resolver already confines them to the programmed node's output region.
	m.commit(i, eff)
}

// claimReads attributes the scratch words a crossbar read consumes to the
// instruction that gathered them, and requires every gather to feed exactly
// one CIM node. This is the flow-sensitive form of the scratch-overlap
// rule: address-aliased scratch slots are fine until two different nodes
// consume the same gathered bytes, which is the actual data clash.
func (m *machine) claimReads(op mop.Op, eff effect) {
	node := int32(eff.Node)
	prev := int32(-3)
	for k := int64(0); k < eff.Reads.Count; k++ {
		d := m.writer[eff.Reads.Word(k)]
		if d == prev || d < 0 {
			prev = d
			continue
		}
		prev = d
		if mw, ok := m.instrs[d].Op.(mop.MovWindow); ok && mw.Node != eff.Node {
			m.report(RuleScratchLap, eff.Node,
				"crossbar read of node %d consumes a window gathered for node %d: %s", eff.Node, mw.Node, op)
			return
		}
		if owner, ok := m.claimedBy[d]; !ok {
			m.claimedBy[d] = node
		} else if owner != node {
			m.report(RuleScratchLap, eff.Node,
				"crossbar reads of nodes %d and %d consume the same gathered data (instr %d): %s", owner, eff.Node, d, op)
			return
		}
	}
}

// commit defines the words instruction i writes: defined-ness, per-word
// writer and region stamps.
func (m *machine) commit(i int, eff effect) {
	if eff.Writes.Rep == 0 {
		return
	}
	rIdx := eff.WriteRegion
	r := m.regions[rIdx]
	if !r.Scratch {
		m.nodeStamp[rIdx] = int32(i)
	}
	for k := int64(0); k < eff.Writes.Rep; k++ {
		sp := eff.Writes.Row(k)
		for j := int64(0); j < sp.Count; j++ {
			w := sp.Word(j)
			if !m.defined[w] {
				m.defined[w] = true
				if !r.Scratch {
					r.defined++
				}
			}
			m.writer[w] = int32(i)
		}
	}
}

// effectOf resolves one op and applies what it does to the crossbar
// programming records (and the programming-epoch intervals PeakLiveCrossbars
// is computed from). ok=false means the resolver rejected the op (the problem
// is reported); the caller skips its effect.
func (m *machine) effectOf(op mop.Op) (effect, bool) {
	if w, ok, err := m.res.ResolveWrite(op); ok {
		if err != nil {
			return m.reject(err, op)
		}
		if m.res.Program(&m.prog[w.XB], w) {
			if m.xbRead[w.XB] >= 0 {
				m.xbSpans = append(m.xbSpans, Interval{int(m.xbFirst[w.XB]), int(m.xbRead[w.XB])})
			}
			m.xbFirst[w.XB] = int32(m.cur)
			m.xbRead[w.XB] = -1
		} else if m.xbFirst[w.XB] < 0 {
			m.xbFirst[w.XB] = int32(m.cur)
		}
		return effect{}, true
	}
	if rd, ok, err := m.res.ResolveRead(op); ok {
		var rows int
		if err == nil {
			rows, err = m.prog[rd.XB].Activate(&rd)
		}
		if err != nil {
			return m.reject(err, op)
		}
		m.xbRead[rd.XB] = int32(m.cur)
		return m.res.Activated(&m.prog[rd.XB], &rd, rows), true
	}
	eff, err := m.res.Resolve(op)
	if err != nil {
		return m.reject(err, op)
	}
	switch op.(type) {
	case mop.Mov, mop.MovWindow:
		m.transferWords += eff.Writes.Count
	}
	return eff, true
}

// reject reports the resolver's error — always an *OperandError — as the
// problem it names.
func (m *machine) reject(err error, op mop.Op) (effect, bool) {
	var oe *codegen.OperandError
	errors.As(err, &oe)
	m.report(oe.Rule, oe.Node, "%s: %s", oe.Msg, op)
	return effect{}, false
}
