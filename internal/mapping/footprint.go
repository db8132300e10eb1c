// Package mapping implements the operator→crossbar resource calculus of
// CIM-MLC: the dimension-binding scheme of Figure 7 that expands a weight
// matrix into cell-precision columns and tiles it over physical crossbars
// (forming a virtual crossbar, VXB, per operator copy), the placement of
// copies onto cores and crossbars, and the WLM row-remapping layout of
// Figure 14.
//
// Packing is decided in one place, plan.go: a per-node rule folded over
// segments, which is also the one rule of what copies and remap a node may
// take (nothing else clamps them). Asking what a schedule occupies
// (SegmentCores, Occupancy) and placing it (Place, placement.go) are the
// same fold, the latter keeping every node's Extent, indexed by node ID,
// and the per-segment totals. So a compilation folds its schedule once:
// whoever holds the placement reads the occupancy off it while it still
// Holds the schedule, and folds again only for a schedule changed since. A
// Placement is its extents: no Tile is stored, and TilesOf derives them from
// an extent and its footprint for codegen, the one reader that wants tiles.
// Placement.Validate checks a placement from its extents alone.
//
// Work grows with operators, not with the tiles a small crossbar cuts them
// into: every row stripe of a footprint but the last is a full crossbar high
// and every column tile but the last a full UsableCols wide, so CopyTiles,
// the footprint's tiling check and with them packNode and XBSpan are
// closed-form, O(1) per extent, and the wordlines an extent's busiest core
// writes (wordlines.go, which the fold and Placement.Validate count) take
// work bounded by the crossbars of a core and the sub-tiles of a stripe.
// Only TilesOf walks tiles.
//
// Footprints reads the shapes of a graph its caller has inferred; nothing in
// this package infers or validates a graph. A Footprint is a dozen words read
// in every per-node and per-tile loop of the compiler, so its methods take a
// pointer and callers, in this package and out of it, point into the table
// (&fps[id]) instead of copying an entry.
package mapping

import (
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
)

// Footprint describes the crossbar resources one copy of a CIM-supported
// operator occupies on a given architecture, under the R→XBR, C→XBC, B→XBC
// dimension binding (bit slices spread to adjacent columns, Figure 7).
type Footprint struct {
	Node int // graph node ID

	Rows int // weight matrix rows R (= inC·kH·kW or Dense in-features)
	Cols int // weight matrix columns C (= outC or Dense out-features)

	CellCols     int // Cols × cellsPerWeight after bit slicing
	UsableCols   int // usable cell columns per crossbar (aligned to weight boundary)
	TilesR       int // crossbar tiles along the row dimension
	TilesC       int // crossbar tiles along the column dimension
	XBsPerCopy   int // TilesR × TilesC: the VXB size of one copy
	CoresPerCopy int // cores to host one copy, ceil(XBsPerCopy / xbPerCore)

	MVMs int64 // matrix-vector products per inference (sliding windows/tokens)

	RowGroups int // sequential wordline activations per tile, ceil(tileRows/parallelRow)

	// Rounds is how many sequential weight-loading rounds one copy needs: 1
	// when the copy fits the chip, more when even a single copy exceeds every
	// crossbar on it (e.g. VGG-16's first classifier layer on PUMA). Each
	// round programs a chip-full slice of the tile set, streams all MVMs
	// through it accumulating partial sums, then reloads (§3.3.2's
	// resource-constrained case, pushed inside one operator). Such a copy is
	// oversized: packNode places it only undivided, one copy at remap 1.
	Rounds int
}

// ComputeFootprint returns the footprint of node n on architecture a. The
// node must be CIM-supported with a non-empty weight matrix, so that a copy
// holds at least one crossbar, and shapes must have been inferred.
func ComputeFootprint(n *graph.Node, a *arch.Arch) (Footprint, error) {
	r, c, ok := n.WeightMatrixDims()
	if !ok {
		return Footprint{}, fmt.Errorf("mapping: node %d (%s) is not CIM-supported", n.ID, n.Op)
	}
	if r <= 0 || c <= 0 {
		return Footprint{}, fmt.Errorf("mapping: node %d has an empty %d×%d weight matrix", n.ID, r, c)
	}
	if len(n.OutShape) == 0 {
		return Footprint{}, fmt.Errorf("mapping: node %d has no inferred shape", n.ID)
	}
	s := a.CellsPerWeight()
	usable := (a.XB.Cols / s) * s
	if usable == 0 {
		return Footprint{}, fmt.Errorf("mapping: crossbar of %d columns cannot hold a single %d-cell weight", a.XB.Cols, s)
	}
	cellCols := c * s
	tilesR := ceilDiv(r, a.XB.Rows)
	tilesC := ceilDiv(cellCols, usable)
	xbs := tilesR * tilesC
	f := Footprint{
		Node:         n.ID,
		Rows:         r,
		Cols:         c,
		CellCols:     cellCols,
		UsableCols:   usable,
		TilesR:       tilesR,
		TilesC:       tilesC,
		XBsPerCopy:   xbs,
		CoresPerCopy: ceilDiv(xbs, a.Core.XBCount()),
		MVMs:         n.MVMCount(),
		RowGroups:    a.RowGroups(minInt(r, a.XB.Rows)),
		Rounds:       ceilDiv(xbs, a.TotalCrossbars()),
	}
	return f, nil
}

// Footprints computes the footprint of every CIM-supported node in g, in a
// table indexed by node ID; every other node's entry is the zero Footprint.
// It reads the shapes g holds: g must be valid with its shapes inferred
// (graph.InferShapes) and a valid (arch.Validate). A CIM node without a shape
// is an error; a stale one is not detected.
func Footprints(g *graph.Graph, a *arch.Arch) ([]Footprint, error) {
	out := make([]Footprint, len(g.Nodes))
	for _, n := range g.Nodes {
		if !n.Op.CIMSupported() {
			continue
		}
		f, err := ComputeFootprint(n, a)
		if err != nil {
			return nil, err
		}
		out[n.ID] = f
	}
	return out, nil
}

// TotalCores returns the cores needed to host every operator once (the
// minimum chip occupancy of the model).
func TotalCores(fps []Footprint) int {
	total := 0
	for i := range fps {
		total += fps[i].CoresPerCopy
	}
	return total
}

// RepackedCopies is Equation 1 (§3.3.3): the copies that d core-grain
// copies of f become when they are repacked at crossbar granularity into
// the cores the CG level granted them,
//
//	D′ = ⌊ CoresPerCopy · d · CoreVXB / XBsPerCopy ⌋
//
// with CoreVXB the crossbars per core (the §3.4 walkthrough's step from
// duplication 2 to 4). D′ is never below d and never above one copy per
// MVM, and an oversized copy (Rounds > 1), which cannot be duplicated, keeps
// d. The MVM level applies it, and the CG level prices its candidates with
// it when the MVM level will run.
func (f *Footprint) RepackedCopies(a *arch.Arch, d int) int {
	if f.Rounds > 1 {
		return d
	}
	dPrime := max(d, f.CoresPerCopy*d*a.Core.XBCount()/f.XBsPerCopy)
	// More copies than MVMs is wasted silicon.
	if int64(dPrime) > f.MVMs {
		dPrime = int(f.MVMs)
	}
	return max(dPrime, 1)
}

// TileRows returns the number of weight-matrix rows tile (i, ·) of a copy
// holds: full crossbar height except possibly the last row-stripe.
func (f *Footprint) TileRows(tileR int, a *arch.Arch) int {
	if tileR < 0 || tileR >= f.TilesR {
		return 0
	}
	if tileR == f.TilesR-1 {
		rem := f.Rows - tileR*a.XB.Rows
		return rem
	}
	return a.XB.Rows
}

// TileCellCols returns the number of cell columns tile (·, j) holds.
func (f *Footprint) TileCellCols(tileC int) int {
	if tileC < 0 || tileC >= f.TilesC {
		return 0
	}
	if tileC == f.TilesC-1 {
		return f.CellCols - tileC*f.UsableCols
	}
	return f.UsableCols
}

// ceilDiv rounds up; divisors come from arch fields already checked
// positive by arch.Validate.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
