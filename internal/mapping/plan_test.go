package mapping

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
)

// planModel builds a small conv/dense chain and returns its graph, CIM node
// IDs (in one segment) and footprints on a.
func planModel(t *testing.T, a *arch.Arch) (*graph.Graph, []int, []Footprint) {
	t.Helper()
	g := graph.NewBuilder("plan", 3, 12, 12).
		Conv(8, 3, 1, 1).ReLU().
		Conv(16, 3, 1, 1).ReLU().
		Flatten().Dense(10).MustFinish()
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	var seg []int
	for _, n := range g.Nodes {
		if n.Op != graph.OpInput {
			seg = append(seg, n.ID)
		}
	}
	return g, seg, fps
}

// emitted counts what the materialized tiles of one segment occupy: cores up
// to the highest one touched, distinct crossbars, and weight-loading rounds.
func emitted(p *Placement, seg int) (cores, xbs, rounds int) {
	seen := map[int]bool{}
	for tl := range p.Tiles() {
		if tl.Segment != seg {
			continue
		}
		seen[tl.XB] = true
		cores = max(cores, tl.Core+1)
		rounds = max(rounds, tl.Round+1)
	}
	return cores, len(seen), rounds
}

// TestSegmentCoresMatchesPlace sweeps presets × dup × remap settings and
// checks tile emission against the calculus that drives it: SegmentCores and
// Place accept and reject together (the invariant the autotuner's pruner
// depends on), and the cores and distinct crossbars the emitted tiles touch
// are the ones the calculus recorded.
func TestSegmentCoresMatchesPlace(t *testing.T) {
	for _, preset := range arch.PresetNames() {
		for _, mode := range []arch.Mode{arch.CM, arch.XBM, arch.WLM} {
			a, err := arch.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			a.Mode = mode
			g, seg, fps := planModel(t, a)
			cim := g.CIMNodeIDs()
			for _, d := range []int{1, 2, 3, 5, 9, 64} {
				for _, m := range []int{1, 2, 4, 7} {
					dup := make([]int, len(g.Nodes))
					remap := make([]int, len(g.Nodes))
					// Stress the packing with mixed settings: the first CIM
					// node gets (d, m), the second d alone, the rest default.
					dup[cim[0]] = d
					remap[cim[0]] = m
					if len(cim) > 1 {
						dup[cim[1]] = d
					}
					name := fmt.Sprintf("%s/%s/d%d/m%d", preset, mode, d, m)

					planCores, planErr := SegmentCores(g, a, fps, dup, remap, seg)
					p, placeErr := Place(context.Background(), g, a, fps, dup, remap, [][]int{seg})
					if (planErr == nil) != (placeErr == nil) {
						t.Errorf("%s: plan err %v but place err %v", name, planErr, placeErr)
						continue
					}
					if planErr != nil {
						continue
					}
					cores, xbs, _ := emitted(p, 0)
					if p.SegmentCores[0] != planCores || cores != planCores {
						t.Errorf("%s: plan says %d cores, placement recorded %d, tiles reach %d", name, planCores, p.SegmentCores[0], cores)
					}
					if xbs != p.SegmentXBs[0] {
						t.Errorf("%s: calculus says %d crossbars, tiles occupy %d", name, p.SegmentXBs[0], xbs)
					}
				}
			}
		}
	}
}

// TestExtentCorners pins the two packings whose crossbar count is not simply
// dup × tiles: an oversized operator wrapping into rounds over the whole
// chip, alone in its segment from core 0, and core-mode copies padded to core
// boundaries.
func TestExtentCorners(t *testing.T) {
	t.Run("oversized multi-round", func(t *testing.T) {
		a := arch.ToyExample() // 2 cores × 2 crossbars of 32×32
		g := graph.NewBuilder("big", 8, 6, 6).Conv(8, 1, 1, 0).ReLU().Conv(128, 3, 1, 1).MustFinish()
		fps, err := Footprints(g, a)
		if err != nil {
			t.Fatal(err)
		}
		cim := g.CIMNodeIDs()
		small, big := fps[cim[0]], fps[cim[1]]
		if small.XBsPerCopy != 1 || big.XBsPerCopy <= 2*a.TotalCrossbars() {
			t.Fatalf("fixture drifted: footprints of %d and %d crossbars", small.XBsPerCopy, big.XBsPerCopy)
		}
		// The big conv alone in its segment wraps over the whole chip.
		alone := [][]int{{0, cim[0], cim[0] + 1}, {cim[1]}}
		p, err := Place(context.Background(), g, a, fps, nil, nil, alone)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		cores, xbs, rounds := emitted(p, 1)
		if wantXBs := a.TotalCrossbars(); xbs != wantXBs || p.SegmentXBs[1] != wantXBs {
			t.Errorf("crossbars: tiles %d, calculus %d, want %d", xbs, p.SegmentXBs[1], wantXBs)
		}
		if cores != a.Chip.CoreCount() || p.SegmentCores[1] != cores {
			t.Errorf("cores: tiles %d, calculus %d, want %d", cores, p.SegmentCores[1], a.Chip.CoreCount())
		}
		if rounds != big.Rounds {
			t.Errorf("rounds = %d, want the footprint's %d", rounds, big.Rounds)
		}
		if _, err := Place(context.Background(), g, a, fps, nodeTable(g, cim[1], 2), nil, alone); err == nil {
			t.Error("accepted a duplicated oversized operator")
		}
		// After the small conv it would wrap over core 1's window alone, into
		// more rounds than its footprint counts: refused.
		if _, err := Place(context.Background(), g, a, fps, nil, nil, oneSegment(g)); err == nil {
			t.Error("accepted an oversized operator wrapping from core 1")
		}
		// So is an extent that claims such a wrap.
		e := p.Extents[1]
		e.FirstCore, e.FirstXB, e.Window = 1, a.Core.XBCount(), a.TotalCrossbars()-a.Core.XBCount()
		e.Cores = 1
		q := &Placement{Arch: a, Extents: []Extent{p.Extents[0], e}, SegmentCores: []int{2}, SegmentXBs: []int{1 + e.Window}, SegmentWordlines: p.SegmentWordlines[:1], fps: fps}
		q.Extents[1].Segment = 0
		if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "only an undivided operator takes rounds, from core 0") {
			t.Errorf("Validate of an oversized extent wrapping from core 1 = %v", err)
		}
	})
	t.Run("CM alignment padding", func(t *testing.T) {
		a := arch.ToyExample()
		a.Mode = arch.CM
		a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
		a.Core.XBRows, a.Core.XBCols = 2, 2
		// 72 rows × 16 cell columns: three row-stripes of one column tile, so a
		// copy fills 3 of a core's 4 crossbars.
		g := graph.NewBuilder("pad", 8, 6, 6).Conv(4, 3, 1, 1).MustFinish()
		fps, err := Footprints(g, a)
		if err != nil {
			t.Fatal(err)
		}
		node := g.CIMNodeIDs()[0]
		if got := fps[node].XBsPerCopy; got != 3 {
			t.Fatalf("fixture drifted: %d crossbars per copy, want 3", got)
		}
		p, err := Place(context.Background(), g, a, fps, nodeTable(g, node, 3), nil, oneSegment(g))
		if err != nil {
			t.Fatal(err)
		}
		cores, xbs, rounds := emitted(p, 0)
		if xbs != 9 || p.SegmentXBs[0] != 9 {
			t.Errorf("crossbars: tiles %d, calculus %d, want 9 (padding slots stay empty)", xbs, p.SegmentXBs[0])
		}
		if cores != 3 || p.SegmentCores[0] != 3 || rounds != 1 {
			t.Errorf("cores: tiles %d, calculus %d, want 3; rounds %d", cores, p.SegmentCores[0], rounds)
		}
		for tl := range p.Tiles() {
			if tl.TileR == 0 && tl.TileC == 0 && tl.XB%a.Core.XBCount() != 0 {
				t.Errorf("copy %d starts at crossbar %d, not on a core boundary", tl.Copy, tl.XB)
			}
		}
		a.Mode = arch.XBM
		if p, err = Place(context.Background(), g, a, fps, nodeTable(g, node, 3), nil, oneSegment(g)); err != nil {
			t.Fatal(err)
		}
		if p.SegmentXBs[0] != 9 || p.SegmentCores[0] != 3 {
			t.Errorf("XBM repack: %d crossbars on %d cores, want 9 on 3", p.SegmentXBs[0], p.SegmentCores[0])
		}
	})
}

// TestCopyTilesBounds pins the sub-tile arithmetic over the remaps placement
// accepts, 1 … RowGroups: remap 1 equals the footprint's tile count, and the
// tile count grows with the remap and never exceeds XBsPerCopy × remap.
func TestCopyTilesBounds(t *testing.T) {
	a, err := arch.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	g, _, fps := planModel(t, a)
	for _, id := range g.CIMNodeIDs() {
		f := fps[id]
		if got := f.CopyTiles(a, 1); got != f.XBsPerCopy {
			t.Errorf("node %d: CopyTiles(1) = %d, want XBsPerCopy %d", id, got, f.XBsPerCopy)
		}
		for m := 1; m <= f.RowGroups; m++ {
			got := f.CopyTiles(a, m)
			if got < f.XBsPerCopy || got > f.XBsPerCopy*m {
				t.Errorf("node %d remap %d: CopyTiles %d outside [%d, %d]", id, m, got, f.XBsPerCopy, f.XBsPerCopy*m)
			}
			if m > 1 && got < f.CopyTiles(a, m-1) {
				t.Errorf("node %d: CopyTiles(%d) = %d below CopyTiles(%d) = %d", id, m, got, m-1, f.CopyTiles(a, m-1))
			}
		}
	}
}

// TestValidateRejectsCorruptExtents seeds the corruptions the extent-level
// check exists for. Each would put derived tiles outside the grid, on a
// shared crossbar or outside the cell matrix; Validate must name each, under
// its map/* rule, from the extents alone, without deriving a tile.
func TestValidateRejectsCorruptExtents(t *testing.T) {
	a, err := arch.Preset("puma")
	if err != nil {
		t.Fatal(err)
	}
	a.Mode = arch.XBM
	g, seg, fps := planModel(t, a)
	cim := g.CIMNodeIDs()
	place := func(t *testing.T) *Placement {
		// Private footprints: two cases corrupt them.
		p, err := Place(context.Background(), g, a, slices.Clone(fps), nodeTable(g, cim[0], 3), nil, [][]int{seg})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("uncorrupted placement rejected: %v", err)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		corrupt func(p *Placement)
		rule    string
		want    string
	}{
		{"extent past the last core", func(p *Placement) {
			last := &p.Extents[len(p.Extents)-1]
			last.Cores = a.Chip.CoreCount() - last.FirstCore + 1
		}, RuleGrid, "on cores"},
		{"two extents sharing a core", func(p *Placement) {
			p.Extents[1].FirstCore = p.Extents[0].FirstCore + p.Extents[0].Cores - 1
		}, RuleOverlap, "is packed up to core"},
		{"start crossbar off its core", func(p *Placement) {
			p.Extents[1].FirstXB--
		}, RuleGrid, "starts at crossbar"},
		{"divided multi-round extent", func(p *Placement) {
			p.Extents[0].Stride = p.Extents[0].Window // copies 1 and 2 wrap into rounds 1 and 2
		}, RuleOverlap, "only an undivided operator takes rounds"},
		{"stride below the copy's tiles", func(p *Placement) {
			p.Extents[0].Stride = fps[cim[0]].CopyTiles(a, 1) - 1
		}, RuleOverlap, "slots apart but hold"},
		{"slots beyond the extent's cores", func(p *Placement) {
			e := &p.Extents[0]
			e.Stride = e.Cores * a.Core.XBCount() // copy 1 starts where the next node's cores do
		}, RuleOverlap, "which fill"},
		{"last row stripe overruns the matrix", func(p *Placement) {
			f := p.fps[cim[0]]
			f.TilesR++
			p.fps[cim[0]] = f
		}, RuleTileBounds, "row stripe"},
		{"column tile wider than the crossbar", func(p *Placement) {
			f := p.fps[cim[0]]
			f.UsableCols = a.XB.Cols + 1
			f.CellCols = f.UsableCols * f.TilesC
			p.fps[cim[0]] = f
		}, RuleTileBounds, "column tile"},
		{"segment total drifts", func(p *Placement) {
			p.SegmentXBs[0]++
		}, RulePlanDrift, "per segment"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := place(t)
			tc.corrupt(p)
			err := p.Validate()
			var re *RuleError
			if !errors.As(err, &re) || re.Rule != tc.rule || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want a %s error naming %q", err, tc.rule, tc.want)
			}
		})
	}
}
