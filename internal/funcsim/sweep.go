package funcsim

import (
	"slices"

	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
)

// This file is the window sweep: the one kernel behind mov_window, readrow,
// readxb and readcore.
//
// A flow spells a CIM operator out window by window — gather the window
// (mov_window), multiply it (an accumulation chain of crossbar reads), next
// window — but nothing inside such a run can reprogram a crossbar or turn a
// source region raw, and how a window is gathered depends only on geometry.
// So CompileBody compiles the run as a whole: a sweep is a maximal run of
// consecutive leaf operators that are mov_windows of one node and crossbar
// reads. Its windows are what the operators say — a mov_window opens one, the
// chains after it multiply it; reads before any mov_window form a window that
// gathers nothing — and a lone mov_window, a lone read and a readcore (whose
// windows the core gathers itself) are sweeps like any other: there is one
// window walker and no path beside it.
//
// The walker makes three passes. It resolves every read of every window
// against the crossbar view (XBRecord.Activate) and groups consecutive windows
// whose chains multiply the same weight words into blocks — before anything is
// written, so a bad read in window k leaves lane memory as the sweep found
// it. A body run that starts from the image's baseline view finds one fixed
// view at each sweep, whatever state carries it, so the first such run
// publishes that resolution as the sweep's plan and every later one takes the
// plan instead of resolving (resolution). It settles the source regions and
// marks the output raw, in program order. Then it streams (lane, window)
// pairs through each block, lane outermost, four at a time: a stream's window
// is gathered into a private activation vector (and copied to the scratch
// words the mov_window names, which stay word for word what the operator would
// leave), the packing guard's operand taken in that pass, and the four vectors
// go through the MVM kernel's shared-weight form, so adjacent windows' outputs
// land in adjacent words. A block of one window streams the lanes four at a
// time instead — the same loop.

// xbRead is one readxb or readrow as a member of an accumulation chain: the
// resolved read, its operator (counted from the sweep's first), the node whose
// region it streams activations from (-1: scratch), where the run starts in
// its window's gathered words (-1: it reads lane memory the sweep did not
// gather), and the chain's dot-product run the member belongs to — a readrow
// that continues an earlier member's wordlines and source run (parallel_row
// cuts one tile's rows into several reads) lengthens that member's run
// instead of starting its own.
type xbRead struct {
	codegen.XBRead
	op, srcNode, off, run int32
}

// sweepChain is the reads of one window that accumulate into the same words,
// in program order: every member after the first has Acc set and the first's
// Dst and Stride. Reads into other words may come between them in the flow
// (parallel_row interleaves a row group's column tiles); compileSweep groups
// the reads by destination only where that leaves what program order leaves.
// Integer addition is associative and commutative, so summing the members' dot
// products in registers and storing each output once leaves what running them
// one after another leaves — provided no member reads what the sweep writes
// (compileSweep). A readcore's chain has no members: it multiplies the node's
// matrix.
type sweepChain struct {
	lo, hi      int32 // members, in CompiledFlow.members
	acc         bool
	per         int8  // the word format of the arrays the chain multiplies (mvm.go)
	dst, stride int64 // weight column j's sum goes to dst + j·stride
	limit       int64 // its guard bound for sums over all members' rows
}

// sweepWin is one window of a sweep: where it lies in the node's input (the
// first input row and column it covers, negative inside the padding), the
// scratch words its mov_window names (-1: a readcore's, gathered nowhere but
// into the kernel), and the chains that multiply it.
type sweepWin struct {
	y0, x0 int32
	gdst   int64
	lo, hi int32 // chains, in CompiledFlow.chains
	gather bool  // false: reads that follow no mov_window
	// fence: a chain may write a word a chain of one of the three windows
	// before writes too, so the window must not share a four-stream pass with
	// them (a pass interleaves its windows' stores).
	fence bool
	// mod is dst mod stride of every chain, when they agree on both (-1: they
	// do not): a convolution's column tiles all land on the window's own word
	// of their channels, so two windows' chains are told apart at a glance.
	mod int64
}

// sweep is the compiled form; what the crossbars hold is resolved per run, or
// taken from the sweep's plan, CompiledFlow.plans[id].
type sweep struct {
	cf         *CompiledFlow
	id         int
	win0, win1 int // windows, in CompiledFlow.wins

	geo   *winGeometry // nil when no window gathers
	gsrc  int64        // the gathered node's input region
	rows  int          // words a window gathers
	pitch int          // words of one stream's activation vector

	// A readcore's weights: the node's matrix and its columns.
	mat  *nodeMatrix
	cols int32

	// The source nodes to settle, in the order the operators would, and the
	// node the chains write, marked raw before settle[mark] (-1: no chain).
	settle  []int32
	mark    int
	dstNode int
}

// winGeometry is a CIM node's window gather, resolved when the flow is
// compiled: the input is a [inC, h, wd] region, a window covers kH × kW of
// every channel, and weight-matrix row (ic, ky, kx) lies rel[row] words after
// the window's first word — one offset per row, whatever the window. A Dense
// node is the degenerate case, its token rows the image rows and the kernel
// one whole row: its gather is the identity, with no border.
type winGeometry struct {
	rel                       []int64
	inC, h, wd, kH, kW        int
	stride, pad, outW, window int
}

func newWinGeometry(g *graph.Graph, n *graph.Node, rows int) *winGeometry {
	geo := &winGeometry{inC: 1, h: int(max(n.MVMCount(), 1)), wd: rows, kH: 1, kW: rows, stride: 1, outW: 1}
	if n.Op == graph.OpConv {
		in := g.MustNode(n.Inputs[0]).OutShape
		geo.inC, geo.h, geo.wd = in[0], in[1], in[2]
		geo.kH, geo.kW, geo.stride, geo.pad, geo.outW = n.Attr.KernelH, n.Attr.KernelW, n.Attr.Stride, n.Attr.Padding, n.OutShape[2]
	}
	geo.window = geo.kH * geo.kW
	geo.rel = make([]int64, 0, rows)
	for ic := 0; ic < geo.inC; ic++ {
		for ky := 0; ky < geo.kH; ky++ {
			for kx := 0; kx < geo.kW; kx++ {
				geo.rel = append(geo.rel, int64((ic*geo.h+ky)*geo.wd+kx))
			}
		}
	}
	return geo
}

// origin returns the first input row and column window w covers.
func (geo *winGeometry) origin(w int64) (y0, x0 int32) {
	oy, ox := int(w)/geo.outW, int(w)%geo.outW
	return int32(oy*geo.stride - geo.pad), int32(ox*geo.stride - geo.pad)
}

// gather copies the window at (y0, x0) of the input region in — one lane's —
// into dst, weight-matrix row order, zero where the window lies in the
// padding, and returns the packing guard's operand over the words (copyMag).
// Only a border window tests for padding.
func (geo *winGeometry) gather(dst, in []int64, y0, x0 int) int64 {
	var m int64
	dst = dst[:len(geo.rel)]
	if y0 >= 0 && x0 >= 0 && y0+geo.kH <= geo.h && x0+geo.kW <= geo.wd {
		in = in[y0*geo.wd+x0:]
		for i, r := range geo.rel {
			a := in[r]
			dst[i] = a
			m |= a ^ (a >> 63)
		}
		return m
	}
	clear(dst)
	for ky := 0; ky < geo.kH; ky++ {
		for kx := 0; kx < geo.kW; kx++ {
			if iy, ix := y0+ky, x0+kx; iy >= 0 && iy < geo.h && ix >= 0 && ix < geo.wd {
				for ic, i := 0, ky*geo.kW+kx; ic < geo.inC; ic, i = ic+1, i+geo.window {
					a := in[(ic*geo.h+iy)*geo.wd+ix]
					dst[i] = a
					m |= a ^ (a >> 63)
				}
			}
		}
	}
	return m
}

// geometryOf returns node's window geometry, built once per flow.
func (cf *CompiledFlow) geometryOf(node int) *winGeometry {
	if cf.geos[node] == nil {
		cf.geos[node] = newWinGeometry(cf.img.g, cf.img.g.MustNode(node), cf.img.nodes[node].rows)
	}
	return cf.geos[node]
}

// nodeMatrix is a CIM node's quantized weight matrix in the layout reads
// consume (mvm.go), for readcore — a core computes a node's MVMs without the
// flow naming crossbars. Its word format and guard bound follow from its own
// row count, every dot product summing all of them.
type nodeMatrix struct {
	w     []int64
	per   int8
	limit int64
}

// matrixOf lays node's weight matrix out for readcore, once per flow.
func (cf *CompiledFlow) matrixOf(node int) *nodeMatrix {
	if m := cf.matrices[node]; m != nil {
		return m
	}
	img := cf.img
	a := img.a
	qw, rows, cols := img.nodes[node].qw, img.nodes[node].rows, img.nodes[node].cols
	per := wordFormat(rows, rows, a.WeightBits, a.ActBits)
	m := &nodeMatrix{w: make([]int64, wordsFor(cols, per)*rows), per: int8(per), limit: -1}
	if per > 1 {
		m.limit = wordLimit(rows, a.WeightBits, a.ActBits, per)
	}
	for i := 0; i < rows; i++ {
		for j, v := range qw[i*cols : (i+1)*cols] {
			placeWeight(m.w, rows, i, j, int64(v), per)
		}
	}
	cf.matrices[node] = m
	return m
}

// hull is the smallest address range covering the spans added to it.
type hull struct{ lo, hi int64 }

func (h *hull) add(lo, hi int64) {
	if h.lo == h.hi {
		h.lo, h.hi = lo, hi
	}
	h.lo, h.hi = min(h.lo, lo), max(h.hi, hi)
}

func (h hull) touches(lo, hi int64) bool { return lo < h.hi && h.lo < hi }

// openChain is a chain of the window compileSweep is compiling, as it grows:
// its members, its wordlines and of those the ones that may hold a weight, at
// most, and per dot-product run, the member that would lengthen it.
type openChain struct {
	members      []xbRead
	rows, summed int
	ends         []xbRead
}

// compileSweep compiles the sweep that starts at cf.ops[at] and reports how
// many operators it takes in; none when cf.ops[at] is no mov_window, crossbar
// read or readcore. An operator joins the sweep only while running it inside
// leaves what running it after would:
//
//   - every chain writes one node's region, and nothing in the sweep reads it
//     — no member's source node, nor the node the mov_windows gather from — so
//     chains commute with the gathers and sums of other windows, and every
//     source region can be settled before the first window runs. A read of the
//     region its own columns land in is a sweep alone.
//   - mov_windows gather one node's windows into scratch (one into a node's
//     region is a sweep alone: the words could be settled under it);
//   - a member reads its window's gathered words, or words no mov_window of
//     the sweep writes: the walker gathers a window before the windows ahead
//     of it in the same pass have multiplied theirs.
//
// An operator that fails its own resolution ends the sweep too and heads the
// next one, which is where its error is reported.
//
// A read that only adds joins the window's newest chain into its words, even
// past reads into other words, while that leaves what program order leaves:
// every chain after it must be one that only adds too or one whose words the
// read cannot meet (meets), and the joined chain must stay within its guard
// bound. Any other read starts a chain of its own, after the window's others.
func (img *Image) compileSweep(cf *CompiledFlow, at int) (kernel, int, error) {
	a := img.a
	maxCols := int64(a.XB.Cols / a.CellsPerWeight()) // the most weight columns a crossbar holds
	sw := &sweep{cf: cf, id: cf.sweeps, win0: len(cf.wins), mark: -1, dstNode: -1}
	gnode, gfrom := -1, -1    // the node whose windows the sweep gathers, and the node it gathers them from
	var gathered, direct hull // scratch the mov_windows write; scratch the members read beside it
	most := 0                 // the sweep's longest chain's wordlines, at most
	kNode, per, k := -1, 1, 0 // the node the reads write, its word format and matrix rows
	var open []openChain      // the last window's chains, cf.chains[win.lo:win.hi]
	settle := func(node int32) {
		if node >= 0 && !slices.Contains(sw.settle, node) {
			sw.settle = append(sw.settle, node)
		}
	}
	// closeWin lays the last window's chains' members out in cf.members, chain
	// by chain.
	closeWin := func() {
		if len(open) == 0 {
			return
		}
		chains := cf.chains[cf.wins[len(cf.wins)-1].lo:]
		for i := range open {
			chains[i].lo = int32(len(cf.members))
			cf.members = append(cf.members, open[i].members...)
			chains[i].hi = int32(len(cf.members))
		}
		open = open[:0]
	}
	j := at
ops:
	for ; j < len(cf.ops); j++ {
		switch o := cf.ops[j].(type) {
		case mop.ReadCore:
			// Readcores of one node — a parallel group spreads its windows over
			// cores — are one sweep; a core shares none with crossbar reads.
			if j > at && (sw.mat == nil || o.Node != sw.dstNode) {
				break ops
			}
			res, err := img.res.Resolve(o)
			if err != nil {
				if j == at {
					return nil, 0, err
				}
				break ops
			}
			img.coreSweep(sw, o, res)

		case mop.MovWindow:
			res, err := img.res.Resolve(o)
			if err != nil {
				if j == at {
					return nil, 0, err
				}
				break ops
			}
			src, span := res.RegionReads[0], res.Writes.Span
			inScratch := img.res.Owner(res.WriteRegion) < 0
			if j > at && (sw.mat != nil || !inScratch || gnode >= 0 && gnode != o.Node || src == sw.dstNode || direct.touches(span.Lo, span.End())) {
				break ops
			}
			if gnode < 0 {
				gnode, gfrom = o.Node, src
				sw.geo, sw.gsrc = cf.geometryOf(o.Node), o.SrcBase
				sw.rows = len(sw.geo.rel)
			}
			closeWin()
			y0, x0 := sw.geo.origin(o.Window)
			cf.wins = append(cf.wins, sweepWin{y0: y0, x0: x0, gdst: o.Dst, lo: int32(len(cf.chains)), hi: int32(len(cf.chains)), gather: true})
			gathered.add(span.Lo, span.End())
			settle(int32(src))
			if !inScratch {
				j++
				break ops
			}

		case mop.ReadXB, mop.ReadRow:
			rd, _, err := img.res.ResolveRead(o)
			if err != nil {
				if j == at {
					return nil, 0, err
				}
				break ops
			}
			r := xbRead{XBRead: rd, op: int32(j - at), srcNode: int32(img.res.Owner(img.res.NodeRegionAt(rd.Src))), off: -1}
			dstNode := img.res.Owner(img.res.NodeRegionAt(rd.Dst))
			n := int(r.Rows)
			if n < 0 {
				n = a.XB.Rows // what a readxb activates is the crossbar's to say
			}
			if len(cf.wins) > sw.win0 {
				// Inside the window's gathered words, as far as the flow says: a
				// readxb's rows are checked against them when it runs.
				if win := &cf.wins[len(cf.wins)-1]; win.gather && rd.Src >= win.gdst && rd.Src < win.gdst+int64(sw.rows) &&
					(r.Rows < 0 || rd.Src+int64(n) <= win.gdst+int64(sw.rows)) {
					r.off = int32(rd.Src - win.gdst)
				}
			}
			alone := int(r.srcNode) == dstNode
			beside := r.off < 0 && r.srcNode < 0 // reads scratch as it lies in the lane
			if j > at && (sw.mat != nil || alone || sw.dstNode >= 0 && sw.dstNode != dstNode || dstNode == gfrom ||
				beside && gathered.touches(rd.Src, rd.Src+int64(n))) {
				break ops
			}
			// The crossbar holds a tile of dstNode (Activate), in that node's
			// format, and maps each wordline to a row of its matrix: at most
			// min(n, k) of the n wordlines hold a weight. A chain's such rows must
			// not outgrow what a packed field can sum; a lone read's never do, by
			// the choice of the format.
			if dstNode != kNode {
				kNode, per, k = dstNode, img.nodes[dstNode].per, img.nodes[dstNode].rows
			}
			if len(cf.wins) == sw.win0 {
				cf.wins = append(cf.wins, sweepWin{gdst: -1, lo: int32(len(cf.chains)), hi: int32(len(cf.chains))})
			}
			win := &cf.wins[len(cf.wins)-1]
			read := sweepChain{acc: rd.Acc, per: int8(per), dst: rd.Dst, stride: rd.Stride, limit: -1}
			c := joins(cf.chains[win.lo:win.hi], &read, maxCols)
			if c >= 0 && per > 1 {
				if read.limit = wordLimit(open[c].summed+min(n, k), a.WeightBits, a.ActBits, per); read.limit < 0 {
					c = -1
				}
			}
			if c < 0 {
				if per > 1 {
					read.limit = wordLimit(min(n, k), a.WeightBits, a.ActBits, per)
				}
				c = len(open)
				open = slices.Grow(open, 1)[:c+1] // an earlier window's buffers, if any
				open[c] = openChain{members: open[c].members[:0], ends: open[c].ends[:0]}
				cf.chains = append(cf.chains, read)
				if win.hi++; win.hi == win.lo+1 {
					win.mod = rd.Dst % rd.Stride
				} else if rd.Stride != cf.chains[win.lo].stride || rd.Dst%rd.Stride != win.mod {
					win.mod = -1
				}
				win.fence = win.fence || sw.clashes(len(cf.wins)-1, maxCols)
			}
			oc := &open[c]
			// A readrow that starts where an earlier member's wordlines and source
			// run end lengthens that member's run; a readxb's run ends nowhere
			// known before the crossbar is looked at.
			r.run = int32(slices.IndexFunc(oc.ends, func(e xbRead) bool { return e.XB == r.XB && e.Row == r.Row && e.Src == r.Src }))
			if r.run < 0 {
				r.run, oc.ends = int32(len(oc.ends)), append(oc.ends, xbRead{})
			}
			oc.ends[r.run].XB = -1
			if r.Rows >= 0 {
				oc.ends[r.run].XBRead = codegen.XBRead{XB: r.XB, Row: r.Row + r.Rows, Src: r.Src + int64(n)}
			}
			oc.members = append(oc.members, r)
			cf.chains[win.lo+int32(c)].limit = read.limit
			oc.rows, oc.summed = oc.rows+n, oc.summed+min(n, k)
			most = max(most, oc.rows)
			if beside {
				direct.add(rd.Src, rd.Src+int64(n))
			}
			settle(r.srcNode)
			if sw.dstNode < 0 {
				// Where running the reads apart would mark it: after the first has
				// settled its source.
				sw.dstNode, sw.mark = dstNode, len(sw.settle)
			}
			if alone {
				j++
				break ops
			}

		default:
			break ops
		}
	}
	if j == at {
		return nil, 0, nil
	}
	closeWin()
	cf.sweeps++
	sw.win1 = len(cf.wins)
	if sw.mat == nil {
		// Room for a window's gathered words and, behind them, for the words
		// one chain's members read beside them — all its members, should a
		// readxb turn out to reach past the gathered words (run).
		sw.pitch = sw.rows + most
	}
	return sw.run, j - at, nil
}

// meets reports whether chains a and b may write a common word — each of the
// cols weight columns a crossbar can hold counted — unless both only add, which
// commutes.
func meets(a, b *sweepChain, cols int64) bool {
	switch {
	case a.acc && b.acc:
		return false
	case a.stride == b.stride:
		d := max(a.dst-b.dst, b.dst-a.dst)
		return d%a.stride == 0 && d/a.stride < cols
	}
	return a.dst <= b.dst+(cols-1)*b.stride && b.dst <= a.dst+(cols-1)*a.stride
}

// joins returns which of a window's chains, in order, the read described by
// read joins: the newest into its words, when the read only adds and meets
// none of the chains after it; -1 when there is none.
func joins(chains []sweepChain, read *sweepChain, cols int64) int {
	if !read.acc {
		return -1
	}
	for c := len(chains) - 1; c >= 0; c-- {
		if o := &chains[c]; o.dst == read.dst && o.stride == read.stride {
			return c
		} else if meets(o, read, cols) {
			return -1
		}
	}
	return -1
}

// clashes reports whether the last chain of window w (the last compiled) meets
// a chain of one of the three windows before it.
func (sw *sweep) clashes(w int, cols int64) bool {
	cf := sw.cf
	ch := &cf.chains[len(cf.chains)-1]
	for v := max(w-3, sw.win0); v < w; v++ {
		win := &cf.wins[v]
		if win.mod >= 0 && win.lo < win.hi && cf.chains[win.lo].stride == ch.stride && ch.dst%ch.stride != win.mod {
			continue // equal strides, other words of them: no chain of v meets ch
		}
		for i := win.lo; i < win.hi; i++ {
			if meets(ch, &cf.chains[i], cols) {
				return true
			}
		}
	}
	return false
}

// coreSweep fills sw for a readcore (MOP_CM): the core's internal crossbars
// perform the same quantized arithmetic, so its windows are gathered like a
// mov_window's — into the kernel only — and multiply the node's weight matrix.
func (img *Image) coreSweep(sw *sweep, o mop.ReadCore, res codegen.Operands) {
	cf := sw.cf
	n := img.g.MustNode(o.Node)
	sw.geo, sw.gsrc = cf.geometryOf(o.Node), o.Src
	sw.rows = len(sw.geo.rel)
	sw.pitch = sw.rows
	sw.mat, sw.cols = cf.matrixOf(o.Node), int32(img.nodes[o.Node].cols)
	sw.settle, sw.mark, sw.dstNode = []int32{int32(res.RegionReads[0])}, 1, o.Node
	// Output column j of window w lands at Dst + j·cj + w·cw.
	cj, cw := codegen.OutGeometry(n)
	for w := o.WinStart; w < o.WinStart+o.WinCount; w++ {
		y0, x0 := sw.geo.origin(w)
		c := int32(len(cf.chains))
		cf.wins = append(cf.wins, sweepWin{y0: y0, x0: x0, gdst: -1, lo: c, hi: c + 1, gather: true})
		cf.chains = append(cf.chains, sweepChain{per: sw.mat.per, dst: o.Dst + w*cw, stride: cj, limit: sw.mat.limit})
	}
}

// sweepCall is one MVM kernel call of a window as resolved against the
// crossbar view: the runs it multiplies (counted from the window's first),
// which of the window's chains it computes, and the call's shape. Two windows
// whose calls are equal and whose runs are the same weight words are streams
// of one block.
type sweepCall struct {
	lo, hi, chain, cols int32
	per                 int8
	acc                 bool
	stride, limit       int64
}

// sweepBlock is a run of consecutive windows that resolved alike, kept as its
// first window's runs and calls.
type sweepBlock struct {
	win, wins int // the first window and how many
	run, call int // the first window's runs and calls in the resolution's lists
}

// resolution is a sweep resolved against a crossbar view: its blocks, with
// their runs and calls, and whether every member copies its words from the
// lane (beside: a readxb reached past its window's gathered words).
//
// Published as a plan, it holds no weight array of a crossbar: a run names
// its weights by (crossbar, wordline), and each state takes the array from its
// own view. That is what makes a plan state-independent. The crossbars a body
// writes are private to each state, but which crossbars those are, what they
// hold and which arrays coincide — all the blocks are grouped by — follow from
// the image and the body alone.
type resolution struct {
	runs   []mvmRun
	calls  []sweepCall
	blocks []sweepBlock
	beside bool
}

// resolution returns the sweep's resolution against the state's view. A body
// run that started from the image's baseline view (BatchState.fromBase) sees
// the baseline plus the body's own earlier writes here, the same view in every
// state, so every check resolve makes — each read's Activate, the chains'
// column counts, a readxb past its gathered words, which windows share a block
// — has the outcome it had for the first such run: that run publishes its
// resolution, and later ones take it. A failed resolution is never published,
// so every run that meets it resolves and fails alike. Any other run resolves.
func (sw *sweep) resolution(st *BatchState) (*resolution, error) {
	plans := sw.cf.plans
	if !st.fromBase {
		return &st.res, sw.resolve(st)
	}
	plan := plans[sw.id].Load()
	if plan == nil {
		if err := sw.resolve(st); err != nil {
			return nil, err
		}
		res := &st.res
		p := &resolution{runs: slices.Clone(res.runs), calls: slices.Clone(res.calls), blocks: slices.Clone(res.blocks), beside: res.beside}
		for i := range p.runs {
			if p.runs[i].xb >= 0 {
				p.runs[i].w = nil
			}
		}
		plans[sw.id].CompareAndSwap(nil, p)
		return res, nil
	}
	// The plan's lists are shared: only the runs are copied, to point them at
	// this state's arrays.
	hit := &st.hit
	hit.runs = append(hit.runs[:0], plan.runs...)
	for i := range hit.runs {
		if r := &hit.runs[i]; r.xb >= 0 {
			r.w = st.weights[r.xb][r.row:]
		}
	}
	hit.calls, hit.blocks, hit.beside = plan.calls, plan.blocks, plan.beside
	return hit, nil
}

// sameWords reports whether two windows' runs multiply the same weight words
// from the same places of their activation vectors.
func sameWords(a, b []mvmRun) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if x, y := &a[i], &b[i]; &x.w[0] != &y.w[0] || x.stride != y.stride || x.n != y.n || x.src != y.src || x.from != y.from {
			return false
		}
	}
	return true
}

// resolve completes every read of the sweep against the state's crossbar view
// and leaves the resolution in the state's scratch (BatchState.res). Nothing
// else is written. A member that reads its window's gathered words takes them
// from the stream's vector — unless a readxb reaches past the gathered words:
// then every member's words are copied from the lane (beside), and the sweep
// is resolved again so.
func (sw *sweep) resolve(st *BatchState) error {
	cf, res := sw.cf, &st.res
	for beside := false; ; beside = true {
		runs, calls, blocks := res.runs[:0], res.calls[:0], res.blocks[:0]
		past := false
		var err error
	windows:
		for w := sw.win0; w < sw.win1; w++ {
			win := &cf.wins[w]
			run0, call0 := len(runs), len(calls)
			for c := win.lo; c < win.hi; c++ {
				ch := &cf.chains[c]
				first := len(runs)
				call := sweepCall{lo: int32(first - run0), chain: c - win.lo, cols: sw.cols, per: ch.per, acc: ch.acc, stride: ch.stride, limit: ch.limit}
				if sw.mat != nil {
					runs = append(runs, mvmRun{w: sw.mat.w, stride: sw.rows, n: sw.rows, from: -1, xb: -1})
				}
				uniform := true
				members := cf.members[ch.lo:ch.hi]
				for i := range members {
					m := &members[i]
					p := &st.prog[m.XB]
					n, e := p.Activate(&m.XBRead)
					if e != nil {
						err = sw.refusal(st, win)
						break windows
					}
					if r := first + int(m.run); r < len(runs) {
						runs[r].n += n
					} else {
						run := mvmRun{w: st.weights[m.XB][m.Row:], stride: p.stride, n: n, src: int(m.off), from: -1, xb: m.XB, row: m.Row}
						if m.off < 0 || beside {
							run.from = m.Src
						}
						runs = append(runs, run)
					}
					if i == 0 {
						call.cols = p.WCols
					}
					uniform = uniform && p.WCols == call.cols
				}
				// Words read beside the gathered ones go behind them in the vector.
				at := 0
				if win.gather {
					at = sw.rows
				}
				for i := first; i < len(runs); i++ {
					if r := &runs[i]; r.from >= 0 {
						r.src, at = at, at+r.n
					} else if r.src+r.n > sw.rows {
						past = true
					}
				}
				if uniform {
					call.hi = int32(len(runs) - run0)
					calls = append(calls, call)
					continue
				}
				// Members that hold different column counts run as chains of one,
				// in order.
				for i := range members {
					if m := &members[i]; first+int(m.run) == run0+int(call.lo) {
						call.hi, call.cols = call.lo+1, st.prog[m.XB].WCols
						calls = append(calls, call)
						call.lo, call.acc = call.hi, true
					}
				}
			}
			if nb := len(blocks); nb > 0 && !win.fence {
				if b := &blocks[nb-1]; slices.Equal(calls[b.call:call0], calls[call0:]) && sameWords(runs[b.run:run0], runs[run0:]) {
					b.wins++
					runs, calls = runs[:run0], calls[:call0]
					continue
				}
			}
			blocks = append(blocks, sweepBlock{win: w, wins: 1, run: run0, call: call0})
		}
		res.runs, res.calls, res.blocks, res.beside = runs, calls, blocks, beside
		if err != nil || !past {
			return err
		}
	}
}

// refusal returns the error of the read of win that fails first in program
// order: win's chains hold its reads by destination, not in that order.
func (sw *sweep) refusal(st *BatchState, win *sweepWin) error {
	cf := sw.cf
	var first opError
	members := cf.members[cf.chains[win.lo].lo:cf.chains[win.hi-1].hi]
	for i := range members {
		m := &members[i]
		if _, e := st.prog[m.XB].Activate(&m.XBRead); e != nil && (first.err == nil || int(m.op) < first.off) {
			first = opError{int(m.op), e}
		}
	}
	return first
}

// run is the sweep's kernel.
func (sw *sweep) run(bm *BatchMachine) error {
	st, cf := bm.st, sw.cf
	res, err := sw.resolution(st)
	if err != nil {
		return err
	}
	for i := 0; i <= len(sw.settle); i++ {
		if i == sw.mark {
			bm.markCIMOutput(sw.dstNode)
		}
		if i < len(sw.settle) {
			bm.settleNode(int(sw.settle[i]))
		}
	}

	// A readxb that reaches past its window's gathered words reads scratch as
	// it lies in the lane: then every member does, one stream at a time, the
	// operators' own order.
	width := 4
	if res.beside {
		width = 1
	}
	vectors := st.gatherBuf(width * sw.pitch)
	var k mvmCall
	var lanes [4][]int64
	var chains [4]int32   // each stream's window's first chain
	var gathered [4]int64 // the guard's operand over each stream's gathered words
	for bi := range res.blocks {
		b := &res.blocks[bi]
		end := len(res.calls)
		if bi+1 < len(res.blocks) {
			end = res.blocks[bi+1].call
		}
		calls, runs := res.calls[b.call:end], res.runs[b.run:]
		// Stream s is window s mod b.wins of lane s / b.wins: lane outermost.
		lane, w := 0, 0
		for left := st.lanes * b.wins; left > 0; left -= k.n {
			k.n = min(width, left)
			for s := 0; s < k.n; s++ {
				win, lm, act := &cf.wins[b.win+w], st.lane(lane), vectors[s*sw.pitch:(s+1)*sw.pitch]
				gathered[s] = 0
				if win.gather {
					gathered[s] = sw.geo.gather(act, lm[sw.gsrc:], int(win.y0), int(win.x0))
					if win.gdst >= 0 {
						copy(lm[win.gdst:], act[:sw.rows])
					}
				}
				chains[s], lanes[s], k.act[s] = win.lo, lm, act
				if w++; w == b.wins {
					lane, w = lane+1, 0
				}
			}
			for ci := range calls {
				c := &calls[ci]
				k.runs, k.cols, k.per, k.limit, k.stride, k.acc = runs[c.lo:c.hi], int(c.cols), int(c.per), c.limit, c.stride, c.acc
				for s := 0; s < k.n; s++ {
					k.mag[s] = gathered[s]
					for i := range k.runs {
						if r := &k.runs[i]; r.from >= 0 {
							k.mag[s] |= copyMag(k.act[s][r.src:r.src+r.n], lanes[s][r.from:r.from+int64(r.n)])
						}
					}
					k.out[s] = lanes[s][cf.chains[chains[s]+c.chain].dst:]
				}
				k.run()
			}
		}
	}
	return nil
}
