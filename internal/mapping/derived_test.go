package mapping_test

import (
	"slices"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/core"
	"cimmlc/internal/irverify"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
)

// TestDerivedTilesOverZoo walks every tile the placements of the zoo derive —
// each model on each preset at each level the preset reaches — against the
// per-tile rules, which the compile path no longer runs (placePass validates
// extents): irverify.VerifyPlacement is the per-tile validator, covering grid
// and crossbar bounds, cell regions, overlap per (segment, round), and the
// drift rules — round-0 tiles per segment equal SegmentXBs, highest core + 1
// equals SegmentCores. On top of it: TilesOf is in (copy, tileR, sub, tileC)
// order, holds dup × CopyTiles tiles, and Tiles is TilesOf extent by extent.
func TestDerivedTilesOverZoo(t *testing.T) {
	benchGrid := []string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"}
	names := models.Names()
	if testing.Short() {
		names = benchGrid
	}
	cells, total, grid := 0, 0, 0
	for _, name := range names {
		if models.Mixed(name) {
			continue // needs host fallback; its CIM stages are zoo models' operators
		}
		for _, preset := range arch.PresetNames() {
			for _, level := range []arch.Mode{arch.CM, arch.XBM, arch.WLM} {
				a, err := arch.Preset(preset)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Mode.AtLeast(level) {
					continue
				}
				g, err := models.Build(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Compile(g, a, core.Options{MaxLevel: level})
				if err != nil {
					t.Fatalf("%s.%s@%s: %v", name, preset, level, err)
				}
				p, s, fps := res.Placement, res.Schedule, res.Model.FPs
				if vs := irverify.VerifyPlacement(g, a, fps, s, p); len(vs) > 0 {
					t.Errorf("%s.%s@%s: derived tiles break the per-tile rules: %v", name, preset, level, vs)
				}
				// Tiles must be TilesOf, extent by extent.
				ei, walked, rest := -1, 0, []mapping.Tile(nil)
				for tl := range p.Tiles() {
					for len(rest) == 0 && ei+1 < len(p.Extents) {
						ei++
						e := p.Extents[ei]
						rest = p.TilesOf(e.Node)
						if want := e.Dup * fps[e.Node].CopyTiles(a, e.Remap); len(rest) != want || want == 0 {
							t.Errorf("%s.%s@%s node %d: %d tiles, want dup %d × CopyTiles = %d", name, preset, level, e.Node, len(rest), e.Dup, want)
						}
						for i := 1; i < len(rest); i++ {
							if !before(rest[i-1], rest[i]) {
								t.Errorf("%s.%s@%s node %d: tile %d %+v does not follow %+v", name, preset, level, e.Node, i, rest[i], rest[i-1])
							}
						}
					}
					if len(rest) == 0 || rest[0] != tl {
						t.Fatalf("%s.%s@%s: Tiles yields %+v as tile %d, TilesOf extent by extent has %+v", name, preset, level, tl, walked, rest)
					}
					rest = rest[1:]
					walked++
				}
				if ei != len(p.Extents)-1 || len(rest) != 0 {
					t.Errorf("%s.%s@%s: Tiles stopped in extent %d of %d with %d tiles of it unseen", name, preset, level, ei, len(p.Extents), len(rest))
				}
				cells++
				total += walked
				if level == a.Mode && slices.Contains(benchGrid, name) {
					// A cell of the benchmark's compile-zoo grid: what one
					// Compile used to materialize.
					t.Logf("%s.%s: %d tiles", name, preset, walked)
					grid += walked
				}
			}
		}
	}
	t.Logf("%d cells, %d derived tiles walked; the benchmark's 35-cell grid derives %d", cells, total, grid)
}

// before reports whether a precedes b in (copy, tileR, sub, tileC) order.
func before(a, b mapping.Tile) bool {
	return slices.Compare([]int{a.Copy, a.TileR, a.Sub, a.TileC}, []int{b.Copy, b.TileR, b.Sub, b.TileC}) < 0
}
