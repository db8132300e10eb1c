package mapping

import (
	"context"
	"fmt"
	"iter"
	"slices"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
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
// by arithmetic, so tiles are derived when asked for (TilesOf, Tiles) and
// never stored.
type Placement struct {
	Arch *arch.Arch
	// Extents holds one entry per placed CIM node, in placement order:
	// segment by segment, nodes in segment order.
	Extents []Extent
	// SegmentCores and SegmentXBs count the cores and the distinct crossbars
	// each segment occupies, as the calculus of plan.go derives them.
	SegmentCores []int
	SegmentXBs   []int

	fps map[int]Footprint // the footprints the extents were packed from
}

// Place computes a placement for the given duplication and remap decisions.
// dup[node] is the copy count (≥1, default 1); remap[node] the WLM remap
// factor (≥1, default 1). segments lists the node IDs of each sequentially
// executed graph segment; CIM nodes absent from every segment are an error.
func Place(g *graph.Graph, a *arch.Arch, fps map[int]Footprint, dup, remap map[int]int, segments [][]int) (*Placement, error) {
	return PlaceCtx(context.Background(), g, a, fps, dup, remap, segments)
}

// PlaceCtx is Place with cancellation: ctx is checked once per node so a
// cancelled compilation stops mid-placement on large graphs. It is the
// schedule fold of plan.go keeping every extent the calculus yields.
func PlaceCtx(ctx context.Context, g *graph.Graph, a *arch.Arch, fps map[int]Footprint, dup, remap map[int]int, segments [][]int) (*Placement, error) {
	p := &Placement{Arch: a, fps: fps}
	var err error
	p.SegmentCores, p.SegmentXBs, err = foldSchedule(ctx, g, a, fps, dup, remap, segments, func(e Extent) {
		p.Extents = append(p.Extents, e)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ExtentOf returns the extent of one node, or false when the placement does
// not hold it.
func (p *Placement) ExtentOf(node int) (Extent, bool) {
	for _, e := range p.Extents {
		if e.Node == node {
			return e, true
		}
	}
	return Extent{}, false
}

// TilesOf derives the tiles of one node, ordered by (copy, tileR, sub, tileC).
func (p *Placement) TilesOf(node int) []Tile {
	e, ok := p.ExtentOf(node)
	if !ok {
		return nil
	}
	f := p.fps[node]
	out := make([]Tile, 0, e.Dup*f.CopyTiles(p.Arch, e.Remap))
	e.tiles(p.Arch, f, func(t Tile) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Tiles derives every tile of the placement, extent by extent in TilesOf
// order.
func (p *Placement) Tiles() iter.Seq[Tile] {
	return func(yield func(Tile) bool) {
		for _, e := range p.Extents {
			if !e.tiles(p.Arch, p.fps[e.Node], yield) {
				return
			}
		}
	}
}

// tiles yields the extent's tiles: copy c starts at slot c·Stride and its
// tiles take consecutive slots in (tileR, sub, tileC) order. It reports
// whether yield asked for more.
func (e Extent) tiles(a *arch.Arch, f Footprint, yield func(Tile) bool) bool {
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

// Validate checks the placement at the cost of its extents: each extent
// inside the chip and consistent with the packing rules, the extents of a
// segment on consecutive disjoint core ranges, and every row stripe and
// column tile of each footprint inside a crossbar and the node's cell matrix.
// Every per-tile property — grid and crossbar bounds, cell region inside the
// matrix, no crossbar claimed twice in a (segment, round) — is an arithmetic
// consequence (see DESIGN §2); irverify.VerifyPlacement checks those over the
// derived tiles themselves.
func (p *Placement) Validate() error {
	a := p.Arch
	xbPerCore := a.Core.XBCount()
	cores, xbs := make([]int, len(p.SegmentCores)), make([]int, len(p.SegmentCores))
	for _, e := range p.Extents {
		if e.Segment < 0 || e.Segment >= len(cores) {
			return fmt.Errorf("mapping: node %d in segment %d of %d", e.Node, e.Segment, len(cores))
		}
		f, ok := p.fps[e.Node]
		if !ok {
			return fmt.Errorf("mapping: node %d placed without footprint", e.Node)
		}
		if err := f.validate(a); err != nil {
			return err
		}
		// Each extent starts where its segment's previous one ended, from
		// core 0: no two extents of a segment share a core.
		if e.FirstCore != cores[e.Segment] || e.Cores < 1 || e.FirstCore+e.Cores > a.Chip.CoreCount() {
			return fmt.Errorf("mapping: node %d on cores [%d,%d) of %d, segment %d is packed up to core %d", e.Node, e.FirstCore, e.FirstCore+e.Cores, a.Chip.CoreCount(), e.Segment, cores[e.Segment])
		}
		if e.FirstXB != e.FirstCore*xbPerCore || e.Window != a.TotalCrossbars()-e.FirstXB {
			return fmt.Errorf("mapping: node %d starts at crossbar %d with a window of %d, not at core %d's crossbar %d of %d", e.Node, e.FirstXB, e.Window, e.FirstCore, e.FirstCore*xbPerCore, a.TotalCrossbars())
		}
		if e.Dup < 1 || e.Remap != f.clampRemap(e.Remap) {
			return fmt.Errorf("mapping: node %d has dup %d / remap %d, want dup ≥ 1 and remap in [1,%d]", e.Node, e.Dup, e.Remap, f.RowGroups)
		}
		// Copies on disjoint slots: slot is injective in the running index,
		// so no two tiles of the extent share a (round, crossbar).
		tiles := f.CopyTiles(a, e.Remap)
		if e.Stride < tiles {
			return fmt.Errorf("mapping: node %d copies are %d slots apart but hold %d tiles", e.Node, e.Stride, tiles)
		}
		slots := (e.Dup-1)*e.Stride + tiles
		if slots > e.Window && (e.Dup > 1 || e.Remap > 1) {
			return fmt.Errorf("mapping: node %d with dup %d remap %d wraps %d slots over a window of %d; only an undivided operator takes rounds", e.Node, e.Dup, e.Remap, slots, e.Window)
		}
		// Every slot of a round lands inside the extent's own cores.
		if min(slots, e.Window) > e.Cores*xbPerCore || e.XBs != min(e.Dup*tiles, e.Window) {
			return fmt.Errorf("mapping: node %d occupies %d slots / %d crossbars per round, its %d cores hold %d", e.Node, min(slots, e.Window), e.XBs, e.Cores, e.Cores*xbPerCore)
		}
		cores[e.Segment] += e.Cores
		xbs[e.Segment] += e.XBs
	}
	if !slices.Equal(cores, p.SegmentCores) || !slices.Equal(xbs, p.SegmentXBs) {
		return fmt.Errorf("mapping: extents span cores %v / crossbars %v per segment, placement records %v / %v", cores, xbs, p.SegmentCores, p.SegmentXBs)
	}
	return nil
}

// validate checks that the tiling the footprint describes stays inside a
// crossbar and inside the cell matrix: every row stripe and column tile
// non-empty, no larger than the crossbar, and ending within Rows / CellCols.
func (f Footprint) validate(a *arch.Arch) error {
	if f.TilesR < 1 || f.TilesC < 1 {
		return fmt.Errorf("mapping: node %d tiles %d×%d", f.Node, f.TilesR, f.TilesC)
	}
	for tr := 0; tr < f.TilesR; tr++ {
		if rows := f.TileRows(tr, a); rows <= 0 || rows > a.XB.Rows || tr*a.XB.Rows+rows > f.Rows {
			return fmt.Errorf("mapping: node %d row stripe %d holds rows [%d,%d) of a %d-row matrix, crossbar height %d", f.Node, tr, tr*a.XB.Rows, tr*a.XB.Rows+rows, f.Rows, a.XB.Rows)
		}
	}
	for tc := 0; tc < f.TilesC; tc++ {
		if cols := f.TileCellCols(tc); cols <= 0 || cols > a.XB.Cols || tc*f.UsableCols+cols > f.CellCols {
			return fmt.Errorf("mapping: node %d column tile %d holds cell columns [%d,%d) of a %d-column matrix, crossbar width %d", f.Node, tc, tc*f.UsableCols, tc*f.UsableCols+cols, f.CellCols, a.XB.Cols)
		}
	}
	return nil
}

func valueOr(m map[int]int, key, def int) int {
	if m == nil {
		return def
	}
	if v, ok := m[key]; ok {
		return v
	}
	return def
}
