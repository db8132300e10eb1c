package mapping

import (
	"context"
	"fmt"
	"slices"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/sched"
)

// Tile is one physical-crossbar slice of one copy of an operator's
// cell-expanded weight matrix. With a WLM remap factor m>1 each logical tile
// is split into m sub-tiles (Sub index) holding disjoint row ranges on
// different crossbars, so all rows can be activated in parallel (Figure 14).
type Tile struct {
	Node int
	Copy int
	// Logical position in the copy's tiling.
	TileR, TileC int
	Sub          int
	// Physical placement. Round is the sequential weight-loading round for
	// operators larger than the whole chip; rounds reuse the same crossbars
	// one after another.
	Segment int
	Round   int
	Core    int // chip-global core index
	XB      int // chip-global crossbar index (Core·xbPerCore + local)
	// Occupied wordlines within the crossbar.
	RowStart, Rows int
	// Region of the node's cell matrix this tile holds.
	CellRowOff, CellColOff int
	CellCols               int
}

// Placement assigns every operator copy's tiles to physical crossbars, one
// graph segment at a time (segments execute sequentially and reuse cores).
// It is its extents: every tile follows from a node's Extent and Footprint
// by arithmetic, so tiles are derived when asked for (TilesOf) and never
// stored.
type Placement struct {
	Arch *arch.Arch
	// Extents holds one entry per placed CIM node, in placement order:
	// segment by segment, nodes in segment order.
	Extents []Extent
	// SegmentCores and SegmentXBs count the cores and the distinct crossbars
	// each segment occupies, as the calculus of plan.go derives them, and
	// SegmentWordlines the wordlines the busiest core writes to program the
	// segment's first round (wordlines.go).
	SegmentCores     []int
	SegmentXBs       []int
	SegmentWordlines []int

	fps    []Footprint // the footprints the extents were packed from, by node ID
	extent []int32     // by node ID: the index of its extent in Extents, -1 for none
}

// Place computes a placement for the given duplication and remap decisions.
// dup[node] is the copy count (≥1) and remap[node] the WLM remap factor
// (≥1), both indexed by node ID and 1 where they hold 0 or end. segments
// lists the node IDs of each sequentially executed graph segment; CIM nodes
// absent from every segment are an error. ctx is checked once per node so a
// cancelled compilation stops mid-placement on large graphs. It is the
// schedule fold of plan.go keeping every extent the calculus yields.
func Place(ctx context.Context, g *graph.Graph, a *arch.Arch, fps []Footprint, dup, remap []int, segments [][]int) (*Placement, error) {
	p := &Placement{Arch: a, fps: fps, extent: make([]int32, len(g.Nodes))}
	cim := 0
	//cimlint:ignore ctxcancel -- one pass to size the tables; the fold below polls per node
	for i, n := range g.Nodes {
		p.extent[i] = -1
		if n.Op.CIMSupported() {
			cim++
		}
	}
	if cim > 0 {
		p.Extents = make([]Extent, 0, cim) // one per CIM node, or the fold fails
	}
	var err error
	p.SegmentCores, p.SegmentXBs, p.SegmentWordlines, err = foldSchedule(ctx, g, a, fps, dup, remap, segments, func(e Extent) {
		p.extent[e.Node] = int32(len(p.Extents))
		p.Extents = append(p.Extents, e)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ExtentOf returns the extent of one node, or false when the placement does
// not hold it. The fold indexed the extents by node ID, so this is a table
// lookup.
func (p *Placement) ExtentOf(node int) (Extent, bool) {
	if node < 0 || node >= len(p.extent) || p.extent[node] < 0 {
		return Extent{}, false
	}
	return p.Extents[p.extent[node]], true
}

// Holds reports whether p is the placement of a schedule's decisions: one
// extent per CIM node of segments, in segment order, each in its segment with
// the node's copies, its remap factor and the footprint fps gives it — every
// input of the fold that made the extents. Then p's SegmentCores,
// SegmentXBs and SegmentWordlines are what Occupancy would return for them,
// without folding again. A placement made before a later pass changed a
// decision does not hold the changed schedule. g must be the graph the
// segments index.
func (p *Placement) Holds(g *graph.Graph, fps []Footprint, dup, remap []int, segments [][]int) bool {
	if len(p.SegmentCores) != len(segments) {
		return false
	}
	i, cim := 0, 0
	for _, n := range g.Nodes {
		if n.Op.CIMSupported() {
			cim++
		}
	}
	for segIdx, seg := range segments {
		for _, id := range seg {
			if id < 0 || id >= len(g.Nodes) || id >= len(fps) || id >= len(p.fps) {
				return false
			}
			if !g.Nodes[id].Op.CIMSupported() {
				continue
			}
			if i == len(p.Extents) {
				return false
			}
			e, f := &p.Extents[i], &fps[id]
			if e.Node != id || e.Segment != segIdx || *f != p.fps[id] ||
				e.Dup != sched.Setting(dup, id) || e.Remap != sched.Setting(remap, id) {
				return false
			}
			i++
		}
	}
	return i == len(p.Extents) && i == cim
}

// XBSpan returns one past the highest crossbar a tile of p takes: how many
// crossbar records an executor of p's flow needs, which on a chip far larger
// than the model is far fewer than the chip holds. An extent whose tiles wrap
// into rounds takes its whole window, to the end of the chip.
func (p *Placement) XBSpan() int {
	span := 0
	for i := range p.Extents {
		e := &p.Extents[i]
		slots := (e.Dup-1)*e.Stride + p.fps[e.Node].CopyTiles(p.Arch, e.Remap)
		span = max(span, e.FirstXB+min(slots, e.Window))
	}
	return span
}

// TilesOf derives the tiles of one node, ordered by (copy, tileR, sub, tileC).
func (p *Placement) TilesOf(node int) []Tile {
	e, ok := p.ExtentOf(node)
	if !ok {
		return nil
	}
	f := &p.fps[node]
	out := make([]Tile, 0, e.Dup*f.CopyTiles(p.Arch, e.Remap))
	e.tiles(p.Arch, f, func(t Tile) bool {
		out = append(out, t)
		return true
	})
	return out
}

// tiles yields the extent's tiles: copy c starts at slot c·Stride and its
// tiles take consecutive slots in (tileR, sub, tileC) order. It reports
// whether yield asked for more.
func (e *Extent) tiles(a *arch.Arch, f *Footprint, yield func(Tile) bool) bool {
	xbPerCore := a.Core.XBCount()
	for copyIdx := 0; copyIdx < e.Dup; copyIdx++ {
		s := copyIdx * e.Stride
		for tr := 0; tr < f.TilesR; tr++ {
			tileRows := f.TileRows(tr, a)
			subs, subRows := subTiles(tileRows, e.Remap)
			for sub := 0; sub < subs; sub++ {
				rowOff := sub * subRows
				for tc := 0; tc < f.TilesC; tc++ {
					xb, round := e.slot(s)
					s++
					if !yield(Tile{
						Node: f.Node, Copy: copyIdx,
						TileR: tr, TileC: tc, Sub: sub,
						Segment:    e.Segment,
						Round:      round,
						Core:       xb / xbPerCore,
						XB:         xb,
						RowStart:   0,
						Rows:       min(subRows, tileRows-rowOff),
						CellRowOff: tr*a.XB.Rows + rowOff,
						CellColOff: tc * f.UsableCols,
						CellCols:   f.TileCellCols(tc),
					}) {
						return false
					}
				}
			}
		}
	}
	return true
}

// Rule names of the placement checks. These are stable identifiers:
// Validate reports under them, irverify reports its schedule-relative checks
// under them too, and tests and `cimmlc vet` match on them. packNode's
// refusal of a remap beyond the row groups carries RuleRemapBounds, so the
// verifier reports it as that and not as capacity.
const (
	RuleGrid        = "map/grid"           // an extent outside the chip, or not where packNode starts it
	RuleTileBounds  = "map/tile-bounds"    // a tile outside its crossbar or its node's cell matrix
	RuleOverlap     = "map/overlap"        // two tiles that could claim one crossbar in one round
	RuleCoverage    = "map/coverage"       // a node placed without footprint, segment or copy
	RulePlanDrift   = "map/plan-drift"     // recorded occupancy other than what the extents yield
	RuleRemapBounds = "sched/remap-bounds" // a remap beyond the footprint's row groups
)

// RuleError is a placement check's finding, under its rule.
type RuleError struct {
	Rule string
	Node int // graph node ID, or -1 when not node-specific
	Msg  string
}

func (e *RuleError) Error() string { return "mapping: " + e.Msg }

func ruleErr(rule string, node int, format string, args ...any) *RuleError {
	return &RuleError{Rule: rule, Node: node, Msg: fmt.Sprintf(format, args...)}
}

// Validate is the placement check, per extent in work that does not grow
// with its tiles: each extent inside the chip and where packNode starts it,
// the extents of a segment on consecutive disjoint core ranges, copies on
// disjoint slots that wrap into rounds only undivided from core 0 and fill exactly the
// extent's own cores, every row stripe and column tile of each footprint
// inside a crossbar and the node's cell matrix, and the recorded per-segment
// totals the extents' sums and busiest-core wordlines. Every
// per-tile property — grid and crossbar bounds, cell region inside the
// matrix, no crossbar claimed twice in a (segment, round) — is an arithmetic
// consequence (see DESIGN §2), so no tile is derived, and CopyTiles and the
// footprint's stripe check are closed-form, so no stripe is walked either. A
// failure is a *RuleError.
func (p *Placement) Validate() error {
	a := p.Arch
	xbPerCore := a.Core.XBCount()
	cores, xbs, wordlines := make([]int, len(p.SegmentCores)), make([]int, len(p.SegmentCores)), make([]int, len(p.SegmentCores))
	for i := range p.Extents {
		e := &p.Extents[i]
		if e.Segment < 0 || e.Segment >= len(cores) {
			return ruleErr(RuleCoverage, e.Node, "node %d in segment %d of %d", e.Node, e.Segment, len(cores))
		}
		var f *Footprint // nil: no footprint
		if e.Node >= 0 && e.Node < len(p.fps) {
			f = &p.fps[e.Node]
		}
		if f == nil || *f == (Footprint{}) || f.Node != e.Node {
			return ruleErr(RuleCoverage, e.Node, "node %d placed without its footprint", e.Node)
		}
		if err := f.validate(a); err != nil {
			return err
		}
		if e.Dup < 1 {
			return ruleErr(RuleCoverage, e.Node, "node %d placed with %d copies", e.Node, e.Dup)
		}
		if e.Remap < 1 || e.Remap > f.RowGroups {
			return ruleErr(RuleTileBounds, e.Node, "node %d remapped by %d, want a factor in [1,%d]", e.Node, e.Remap, f.RowGroups)
		}
		// Each extent starts where its segment's previous one ended, from
		// core 0: no two extents of a segment share a core.
		if e.FirstCore != cores[e.Segment] {
			return ruleErr(RuleOverlap, e.Node, "node %d starts at core %d, segment %d is packed up to core %d", e.Node, e.FirstCore, e.Segment, cores[e.Segment])
		}
		if e.Cores < 1 || e.FirstCore+e.Cores > a.Chip.CoreCount() {
			return ruleErr(RuleGrid, e.Node, "node %d on cores [%d,%d) of %d", e.Node, e.FirstCore, e.FirstCore+e.Cores, a.Chip.CoreCount())
		}
		if e.FirstXB != e.FirstCore*xbPerCore || e.Window != a.TotalCrossbars()-e.FirstXB {
			return ruleErr(RuleGrid, e.Node, "node %d starts at crossbar %d with a window of %d, not at core %d's crossbar %d of %d", e.Node, e.FirstXB, e.Window, e.FirstCore, e.FirstCore*xbPerCore, a.TotalCrossbars())
		}
		// Copies on disjoint slots: slot is injective in the running index,
		// so no two tiles of the extent share a (round, crossbar).
		tiles := f.CopyTiles(a, e.Remap)
		if e.Stride < tiles {
			return ruleErr(RuleOverlap, e.Node, "node %d copies are %d slots apart but hold %d tiles", e.Node, e.Stride, tiles)
		}
		slots := (e.Dup-1)*e.Stride + tiles
		if slots > e.Window && (e.Dup > 1 || e.Remap > 1 || e.FirstCore > 0) {
			return ruleErr(RuleOverlap, e.Node, "node %d with dup %d remap %d from core %d wraps %d slots over a window of %d; only an undivided operator takes rounds, from core 0", e.Node, e.Dup, e.Remap, e.FirstCore, slots, e.Window)
		}
		// A round's slots fill the extent's cores up to its last one: none
		// spills onto the next extent's cores, none is left empty.
		if want := ceilDiv(min(slots, e.Window), xbPerCore); e.Cores != want {
			rule := RulePlanDrift
			if want > e.Cores {
				rule = RuleOverlap
			}
			return ruleErr(rule, e.Node, "node %d occupies %d slots per round, which fill %d cores, not its %d", e.Node, min(slots, e.Window), want, e.Cores)
		}
		if want := min(e.Dup*tiles, e.Window); e.XBs != want {
			return ruleErr(RulePlanDrift, e.Node, "node %d records %d crossbars, its slots take %d", e.Node, e.XBs, want)
		}
		cores[e.Segment] += e.Cores
		xbs[e.Segment] += e.XBs
		wordlines[e.Segment] = max(wordlines[e.Segment], e.wordlines(a, f))
	}
	if !slices.Equal(cores, p.SegmentCores) || !slices.Equal(xbs, p.SegmentXBs) {
		return ruleErr(RulePlanDrift, -1, "extents span cores %v / crossbars %v per segment, placement records %v / %v", cores, xbs, p.SegmentCores, p.SegmentXBs)
	}
	if !slices.Equal(wordlines, p.SegmentWordlines) {
		return ruleErr(RulePlanDrift, -1, "extents write %v wordlines on their busiest core per segment, placement records %v", wordlines, p.SegmentWordlines)
	}
	return nil
}

// validate checks that the tiling the footprint describes stays inside a
// crossbar and inside the cell matrix: every row stripe and column tile
// non-empty, no larger than the crossbar, and ending within Rows / CellCols.
// All stripes but the last are alike, so it checks, per dimension, the first
// full one that fails (firstBad) or else the last, and reports the same
// first failure a stripe-by-stripe walk would, in O(1).
func (f *Footprint) validate(a *arch.Arch) error {
	if f.TilesR < 1 || f.TilesC < 1 {
		return ruleErr(RuleTileBounds, f.Node, "node %d tiles %d×%d", f.Node, f.TilesR, f.TilesC)
	}
	tr := firstBad(f.TilesR, a.XB.Rows, a.XB.Rows, f.Rows)
	if rows := f.TileRows(tr, a); rows <= 0 || rows > a.XB.Rows || tr*a.XB.Rows+rows > f.Rows {
		return ruleErr(RuleTileBounds, f.Node, "node %d row stripe %d holds rows [%d,%d) of a %d-row matrix, crossbar height %d", f.Node, tr, tr*a.XB.Rows, tr*a.XB.Rows+rows, f.Rows, a.XB.Rows)
	}
	tc := firstBad(f.TilesC, f.UsableCols, a.XB.Cols, f.CellCols)
	if cols := f.TileCellCols(tc); cols <= 0 || cols > a.XB.Cols || tc*f.UsableCols+cols > f.CellCols {
		return ruleErr(RuleTileBounds, f.Node, "node %d column tile %d holds cell columns [%d,%d) of a %d-column matrix, crossbar width %d", f.Node, tc, tc*f.UsableCols, tc*f.UsableCols+cols, f.CellCols, a.XB.Cols)
	}
	return nil
}

// firstBad returns the index of the first of n stripes to check: the first
// full stripe (width w, index i < n−1, holding [i·w, (i+1)·w)) that is empty,
// wider than limit or ends past total, or else n−1, the last stripe. Full
// stripes are alike but for where they end, so the first to end past total
// is the one holding total.
func firstBad(n, w, limit, total int) int {
	if w <= 0 || w > limit || total < w {
		return 0
	}
	return min(n-1, total/w)
}
