package mapping

import (
	"context"
	"fmt"
	"sort"

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
type Placement struct {
	Arch   *arch.Arch
	Tiles  []Tile
	ByNode map[int][]int // node ID → indices into Tiles
	// CoreRange gives each node's allocated core interval [first, last]
	// within its segment (cores are exclusive to one node per segment).
	CoreRange map[int][2]int
	// SegmentCores and SegmentXBs count the cores and the distinct crossbars
	// each segment occupies, as the calculus of plan.go derives them.
	SegmentCores []int
	SegmentXBs   []int
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
// schedule fold of plan.go with one addition: every extent the calculus
// yields is materialized into tiles.
func PlaceCtx(ctx context.Context, g *graph.Graph, a *arch.Arch, fps map[int]Footprint, dup, remap map[int]int, segments [][]int) (*Placement, error) {
	p := &Placement{
		Arch:      a,
		ByNode:    map[int][]int{},
		CoreRange: map[int][2]int{},
	}
	var err error
	p.SegmentCores, p.SegmentXBs, err = foldSchedule(ctx, g, a, fps, dup, remap, segments, func(seg int, e extent) {
		p.CoreRange[e.node] = [2]int{e.firstCore, e.firstCore + e.cores - 1}
		p.emitTiles(a, fps[e.node], seg, e)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// emitTiles materializes one node's extent: copy c starts at slot c·stride
// and its tiles take consecutive slots in (tileR, sub, tileC) order.
func (p *Placement) emitTiles(a *arch.Arch, f Footprint, segment int, e extent) {
	xbPerCore := a.Core.XBCount()
	for copyIdx := 0; copyIdx < e.dup; copyIdx++ {
		s := copyIdx * e.stride
		for tr := 0; tr < f.TilesR; tr++ {
			tileRows := f.TileRows(tr, a)
			subs, subRows := subTiles(tileRows, e.remap)
			for sub := 0; sub < subs; sub++ {
				rowOff := sub * subRows
				for tc := 0; tc < f.TilesC; tc++ {
					xb, round := e.slot(s)
					s++
					p.ByNode[f.Node] = append(p.ByNode[f.Node], len(p.Tiles))
					p.Tiles = append(p.Tiles, Tile{
						Node: f.Node, Copy: copyIdx,
						TileR: tr, TileC: tc, Sub: sub,
						Segment:    segment,
						Round:      round,
						Core:       xb / xbPerCore,
						XB:         xb,
						RowStart:   0,
						Rows:       min(subRows, tileRows-rowOff),
						CellRowOff: tr*a.XB.Rows + rowOff,
						CellColOff: tc * f.UsableCols,
						CellCols:   f.TileCellCols(tc),
					})
				}
			}
		}
	}
}

// TilesOf returns the tiles of one node, ordered by (copy, tileR, sub, tileC).
func (p *Placement) TilesOf(node int) []Tile {
	idxs := p.ByNode[node]
	out := make([]Tile, len(idxs))
	for i, ix := range idxs {
		out[i] = p.Tiles[ix]
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Copy != b.Copy {
			return a.Copy < b.Copy
		}
		if a.TileR != b.TileR {
			return a.TileR < b.TileR
		}
		if a.Sub != b.Sub {
			return a.Sub < b.Sub
		}
		return a.TileC < b.TileC
	})
	return out
}

// Validate checks structural invariants: tiles within chip bounds, no two
// tiles of the same segment sharing a crossbar (this packing never co-locates
// tiles), and cell regions within each node's cell matrix.
func (p *Placement) Validate(g *graph.Graph, fps map[int]Footprint) error {
	a := p.Arch
	type slot struct{ seg, round, xb int }
	seen := map[slot]bool{}
	for i, t := range p.Tiles {
		if t.Core < 0 || t.Core >= a.Chip.CoreCount() {
			return fmt.Errorf("mapping: tile %d on core %d out of range", i, t.Core)
		}
		if t.XB < 0 || t.XB >= a.TotalCrossbars() {
			return fmt.Errorf("mapping: tile %d on crossbar %d out of range", i, t.XB)
		}
		if t.XB/a.Core.XBCount() != t.Core {
			return fmt.Errorf("mapping: tile %d crossbar %d not in core %d", i, t.XB, t.Core)
		}
		if t.RowStart < 0 || t.Rows <= 0 || t.RowStart+t.Rows > a.XB.Rows {
			return fmt.Errorf("mapping: tile %d rows [%d,%d) exceed crossbar height %d", i, t.RowStart, t.RowStart+t.Rows, a.XB.Rows)
		}
		if t.CellCols <= 0 || t.CellCols > a.XB.Cols {
			return fmt.Errorf("mapping: tile %d holds %d cell columns, crossbar width %d", i, t.CellCols, a.XB.Cols)
		}
		f, ok := fps[t.Node]
		if !ok {
			return fmt.Errorf("mapping: tile %d references node %d without footprint", i, t.Node)
		}
		if t.CellRowOff+t.Rows > f.Rows {
			return fmt.Errorf("mapping: tile %d cell rows [%d,%d) exceed matrix rows %d", i, t.CellRowOff, t.CellRowOff+t.Rows, f.Rows)
		}
		if t.CellColOff+t.CellCols > f.CellCols {
			return fmt.Errorf("mapping: tile %d cell cols [%d,%d) exceed matrix cols %d", i, t.CellColOff, t.CellColOff+t.CellCols, f.CellCols)
		}
		s := slot{t.Segment, t.Round, t.XB}
		if seen[s] {
			return fmt.Errorf("mapping: crossbar %d used twice in segment %d round %d", t.XB, t.Segment, t.Round)
		}
		seen[s] = true
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
