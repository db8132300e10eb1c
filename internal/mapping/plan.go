package mapping

import (
	"context"
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/sched"
)

// This file is the placement calculus: the packing rules of §3.3.3/§3.4,
// written once. packNode says what one node's copies occupy; foldSegment and
// foldSchedule sum it over a segment and a schedule. SegmentCores and
// Occupancy are those folds with nothing attached, Place is foldSchedule
// keeping every extent (a Placement is its extents; tiles are derived from
// them on demand) — so the autotuner's pruner, the verifier's capacity rule,
// the simulator's occupancy counts and the placement itself are one walk.

// subTiles returns how one row-stripe of tileRows wordlines splits at remap
// factor m: n sub-tiles of rows wordlines each (the last may hold fewer).
func subTiles(tileRows, m int) (n, rows int) {
	if tileRows <= 0 {
		return 0, 0
	}
	rows = ceilDiv(tileRows, m)
	return ceilDiv(tileRows, rows), rows
}

// CopyTiles returns the number of physical crossbar tiles one copy of f
// occupies at WLM remap factor m ≥ 1: each row-stripe splits into
// sub-tiles, and every sub-tile spans the copy's column tiles. Every stripe
// but the last is a full crossbar high and splits alike, so the count is
// closed-form, O(1) whatever the stripe count.
func (f *Footprint) CopyTiles(a *arch.Arch, m int) int {
	if f.TilesR < 1 {
		return 0
	}
	full, _ := subTiles(a.XB.Rows, m)
	last, _ := subTiles(f.TileRows(f.TilesR-1, a), m)
	return ((f.TilesR-1)*full + last) * f.TilesC
}

// Extent is what the d copies of one node at remap m occupy when packed from
// core FirstCore. Tiles take consecutive slots of a running index (see slot),
// so together with the node's Footprint an extent determines every tile.
type Extent struct {
	Node, Segment int
	Dup, Remap    int // Remap in [1, RowGroups], as packNode accepts it
	FirstCore     int
	FirstXB       int
	Window        int // crossbars from FirstXB to the end of the chip: one round's capacity
	Stride        int // slots between the starts of consecutive copies
	Cores         int // cores consumed, exclusive to the node within its segment; the next node starts at FirstCore+Cores
	XBs           int // distinct crossbars programmed
}

// slot maps running tile index s to its crossbar and its sequential
// weight-loading round: slots past the window wrap around and reuse the same
// crossbars one round later.
func (e Extent) slot(s int) (xb, round int) {
	return e.FirstXB + s%e.Window, s / e.Window
}

// packNode applies the packing rules to one node, and is the one place that
// decides whether a node's copies d and remap m are legal: both at least 1,
// m at most the footprint's row groups (splitting finer than one
// parallel-row group activates nothing extra), and a copy whose upper bound
// XBsPerCopy·m exceeds the window — an oversized one — only undivided (d=1,
// m=1) and only from core 0, in which case its tiles wrap into rounds over
// the whole chip: the rounds the cost model and the simulator charge
// (Footprint.Rounds) are counted over the whole chip, so a copy that wraps
// over what earlier nodes of its segment left would run rounds nobody
// prices. Nothing downstream clamps or falls back: the cost model, the
// simulator and codegen price and emit a setting as given. Because the
// window is never empty and an extent never exceeds it, a segment cannot
// outgrow the core grid without failing here.
func packNode(a *arch.Arch, f *Footprint, firstCore, d, m int) (Extent, error) {
	if d < 1 || m < 1 {
		return Extent{}, fmt.Errorf("mapping: node %d has non-positive dup %d or remap %d", f.Node, d, m)
	}
	if m > f.RowGroups {
		return Extent{}, ruleErr(RuleRemapBounds, f.Node, "node %d remapped by %d beyond its %d row groups", f.Node, m, f.RowGroups)
	}
	xbPerCore := a.Core.XBCount()
	firstXB := firstCore * xbPerCore
	window := a.TotalCrossbars() - firstXB
	if window <= 0 {
		return Extent{}, fmt.Errorf("mapping: no crossbars left for node %d starting at core %d", f.Node, firstCore)
	}
	divided := d > 1 || m > 1
	if divided && f.XBsPerCopy*m > window {
		return Extent{}, fmt.Errorf("mapping: node %d exceeds chip capacity; duplication %d / remap %d not allowed", f.Node, d, m)
	}
	tiles := f.CopyTiles(a, m)
	// In core mode the scheduling granularity is a whole core, so every copy
	// starts on a core boundary; XBM/WLM repack at crossbar granularity (the
	// Equation-1 refinement).
	stride := tiles
	if a.Mode == arch.CM {
		stride = ceilDiv(tiles, xbPerCore) * xbPerCore
	}
	slots := (d-1)*stride + tiles
	if (divided || firstCore > 0) && slots > window {
		return Extent{}, fmt.Errorf("mapping: node %d with dup %d remap %d needs %d crossbars but only %d remain from core %d", f.Node, d, m, slots, window, firstCore)
	}
	return Extent{
		Node: f.Node, Dup: d, Remap: m,
		FirstCore: firstCore,
		FirstXB:   firstXB,
		Window:    window,
		Stride:    stride,
		Cores:     max(1, ceilDiv(min(slots, window), xbPerCore)),
		XBs:       min(d*tiles, window),
	}, nil
}

// foldSegment packs one segment's CIM nodes in order from core 0 and returns
// the cores and distinct crossbars the segment occupies. visit, when non-nil,
// sees every node's extent and may reject it.
func foldSegment(ctx context.Context, g *graph.Graph, a *arch.Arch, fps []Footprint, dup, remap []int, seg []int, visit func(Extent) error) (cores, xbs int, err error) {
	for _, id := range seg {
		if err := ctx.Err(); err != nil {
			return 0, 0, fmt.Errorf("mapping: cancelled: %w", err)
		}
		if !g.MustNode(id).Op.CIMSupported() {
			continue
		}
		if id >= len(fps) || fps[id].Node != id {
			return 0, 0, fmt.Errorf("mapping: no footprint for node %d", id)
		}
		e, err := packNode(a, &fps[id], cores, sched.Setting(dup, id), sched.Setting(remap, id))
		if err != nil {
			return 0, 0, err
		}
		if visit != nil {
			if err := visit(e); err != nil {
				return 0, 0, err
			}
		}
		cores += e.Cores
		xbs += e.XBs
	}
	return cores, xbs, nil
}

// foldSchedule folds every segment (segments execute sequentially and reuse
// the chip, so each packs from core 0) and adds the whole-schedule rules: at
// least one segment, and every CIM node in exactly one. Per segment it
// returns the cores, the distinct crossbars and the wordlines the busiest
// core writes to program the segment (wordlines.go): extents of a segment
// take disjoint cores, so that is the most any one extent writes on a core.
func foldSchedule(ctx context.Context, g *graph.Graph, a *arch.Arch, fps []Footprint, dup, remap []int, segments [][]int, visit func(Extent)) (cores, xbs, wordlines []int, err error) {
	if len(segments) == 0 {
		return nil, nil, nil, fmt.Errorf("mapping: no segments to place")
	}
	placed := make([]bool, len(g.Nodes))
	n := len(segments)
	totals := make([]int, 3*n)
	cores, xbs, wordlines = totals[:n:n], totals[n:2*n:2*n], totals[2*n:]
	for segIdx, seg := range segments {
		c, x, err := foldSegment(ctx, g, a, fps, dup, remap, seg, func(e Extent) error {
			if placed[e.Node] {
				return fmt.Errorf("mapping: node %d appears in multiple segments", e.Node)
			}
			placed[e.Node] = true
			wordlines[segIdx] = max(wordlines[segIdx], e.wordlines(a, &fps[e.Node]))
			if visit != nil {
				e.Segment = segIdx
				visit(e)
			}
			return nil
		})
		if err != nil {
			return nil, nil, nil, err
		}
		cores[segIdx], xbs[segIdx] = c, x
	}
	//cimlint:ignore ctxcancel -- coverage check over node IDs; the fold above polls per node
	for _, n := range g.Nodes {
		if n.Op.CIMSupported() && !placed[n.ID] {
			return nil, nil, nil, fmt.Errorf("mapping: CIM node %d not covered by any segment", n.ID)
		}
	}
	return cores, xbs, wordlines, nil
}

// SegmentCores returns the cores one segment's placement consumes, or the
// error placement would fail with: a non-positive dup/remap, a divided
// oversized node, or tiles overflowing what is left of the chip.
func SegmentCores(g *graph.Graph, a *arch.Arch, fps []Footprint, dup, remap []int, seg []int) (int, error) {
	cores, _, err := foldSegment(context.Background(), g, a, fps, dup, remap, seg, nil)
	return cores, err
}

// Occupancy returns the cores and distinct crossbars each segment of a
// schedule occupies and the wordlines its busiest core writes — what Place
// records as SegmentCores, SegmentXBs and SegmentWordlines — and rejects
// exactly what Place rejects.
func Occupancy(ctx context.Context, g *graph.Graph, a *arch.Arch, fps []Footprint, dup, remap []int, segments [][]int) (cores, xbs, wordlines []int, err error) {
	return foldSchedule(ctx, g, a, fps, dup, remap, segments, nil)
}
