package mapping_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/core"
	"cimmlc/internal/graph"
	"cimmlc/internal/irverify"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
	"cimmlc/internal/sched"
)

// tileFaults is the test oracle for placements: it derives every tile and
// checks it against the per-tile rules Placement.Validate proves from the
// extents alone — inside the core/crossbar grid, inside its crossbar and its
// node's cell matrix, no crossbar claimed twice in one (segment, round) — and
// that per segment the tiles reach the cores (highest one + 1), the crossbars
// (those of round 0) and the busiest core's wordlines (the most Tile.Rows one
// core sums in round 0) the placement records. Given a schedule it
// also checks what only the schedule decides, as irverify.VerifyPlacement
// does from the extents: every CIM node tiled, in its scheduled segment.
func tileFaults(g *graph.Graph, fps []mapping.Footprint, s *sched.Schedule, p *mapping.Placement) []string {
	a := p.Arch
	var faults []string
	fault := func(format string, args ...any) {
		if len(faults) < 8 {
			faults = append(faults, fmt.Sprintf(format, args...))
		}
	}
	scheduled := map[int]int{}
	if s != nil {
		for segIdx, seg := range s.Segments {
			for _, id := range seg {
				scheduled[id] = segIdx
			}
		}
	}
	nSegs, xbPerCore := len(p.SegmentCores), a.Core.XBCount()
	type slot struct{ seg, round, xb int }
	seen := map[slot]bool{}
	tileCores, tileXBs, tileWordlines := make([]int, nSegs), make([]int, nSegs), make([]int, nSegs)
	coreRows := map[[2]int]int{} // (segment, core) → wordlines in round 0
	tiled := map[int]bool{}
	for t := range p.Tiles() {
		if n, err := g.Node(t.Node); err != nil || !n.Op.CIMSupported() || t.Node >= len(fps) {
			fault("tile %+v of a non-CIM node or one without footprint", t)
			continue
		}
		f := fps[t.Node]
		if t.Segment < 0 || t.Segment >= nSegs {
			fault("tile %+v in segment %d of %d", t, t.Segment, nSegs)
			continue
		}
		if seg, ok := scheduled[t.Node]; s != nil && (!ok || seg != t.Segment) {
			fault("tile %+v placed in segment %d, the node is scheduled in %d", t, t.Segment, seg)
		}
		tiled[t.Node] = true
		if t.Core < 0 || t.Core >= a.Chip.CoreCount() || t.XB < 0 || t.XB >= a.TotalCrossbars() || t.XB/xbPerCore != t.Core {
			fault("tile %+v off the grid of %d cores, %d crossbars", t, a.Chip.CoreCount(), a.TotalCrossbars())
		}
		if t.RowStart < 0 || t.Rows <= 0 || t.RowStart+t.Rows > a.XB.Rows || t.CellCols <= 0 || t.CellCols > a.XB.Cols {
			fault("tile %+v overruns its %d×%d crossbar", t, a.XB.Rows, a.XB.Cols)
		}
		if t.CellRowOff < 0 || t.CellRowOff+t.Rows > f.Rows || t.CellColOff < 0 || t.CellColOff+t.CellCols > f.CellCols {
			fault("tile %+v overruns its node's %d×%d cell matrix", t, f.Rows, f.CellCols)
		}
		k := slot{t.Segment, t.Round, t.XB}
		if seen[k] {
			fault("tile %+v claims a crossbar another tile holds in the same round", t)
			continue
		}
		seen[k] = true
		tileCores[t.Segment] = max(tileCores[t.Segment], t.Core+1)
		if t.Round == 0 {
			tileXBs[t.Segment]++
			k := [2]int{t.Segment, t.Core}
			coreRows[k] += t.Rows
			tileWordlines[t.Segment] = max(tileWordlines[t.Segment], coreRows[k])
		}
	}
	if !slices.Equal(tileCores, p.SegmentCores) || !slices.Equal(tileXBs, p.SegmentXBs) {
		fault("tiles reach cores %v / crossbars %v per segment, the placement records %v / %v", tileCores, tileXBs, p.SegmentCores, p.SegmentXBs)
	}
	if !slices.Equal(tileWordlines, p.SegmentWordlines) {
		fault("tiles write %v wordlines on the busiest core of each segment, the placement records %v", tileWordlines, p.SegmentWordlines)
	}
	if s != nil {
		for _, id := range g.CIMNodeIDs() {
			if !tiled[id] {
				fault("CIM node %d has no tiles", id)
			}
		}
	}
	return faults
}

// zooCell is one model × preset × level compilation of the placement tests.
type zooCell struct {
	model, preset string
	level         arch.Mode
}

func (c zooCell) String() string { return fmt.Sprintf("%s.%s@%s", c.model, c.preset, c.level) }

// zooCells lists every zoo model the compiler places without host fallback
// on every preset, at each level the preset reaches.
func zooCells(names []string) []zooCell {
	var cells []zooCell
	for _, name := range names {
		if models.Mixed(name) {
			continue // needs host fallback; its CIM stages are zoo models' operators
		}
		for _, preset := range arch.PresetNames() {
			a, err := arch.Preset(preset)
			if err != nil {
				panic(err)
			}
			for _, level := range []arch.Mode{arch.CM, arch.XBM, arch.WLM} {
				if a.Mode.AtLeast(level) {
					cells = append(cells, zooCell{name, preset, level})
				}
			}
		}
	}
	return cells
}

// compileCell compiles one cell.
func compileCell(c zooCell) (*graph.Graph, *core.Result, error) {
	a, err := arch.Preset(c.preset)
	if err != nil {
		return nil, nil, err
	}
	g, err := models.Build(c.model)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Compile(g, a, core.Options{MaxLevel: c.level})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c, err)
	}
	return g, res, nil
}

// TestDerivedTilesOverZoo walks every tile the placements of the zoo derive —
// each model on each preset at each level the preset reaches — through the
// tile oracle, which neither the compile path nor the verifier runs (both
// check the extents). On top of it: TilesOf is in (copy, tileR, sub, tileC)
// order, holds dup × CopyTiles tiles, and Tiles is TilesOf extent by extent.
func TestDerivedTilesOverZoo(t *testing.T) {
	benchGrid := []string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"}
	names := models.Names()
	if testing.Short() {
		names = benchGrid
	}
	cells, total, grid := 0, 0, 0
	for _, cell := range zooCells(names) {
		g, res, err := compileCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		a, p, s, fps := res.Placement.Arch, res.Placement, res.Schedule, res.Model.FPs
		if faults := tileFaults(g, fps, s, p); len(faults) > 0 {
			t.Errorf("%s: derived tiles break the per-tile rules: %v", cell, faults)
		}
		if vs := irverify.VerifyPlacement(g, a, fps, s, p); len(vs) > 0 {
			t.Errorf("%s: the extent check rejects a compiled placement: %v", cell, vs)
		}
		// Tiles must be TilesOf, extent by extent.
		ei, walked, rest := -1, 0, []mapping.Tile(nil)
		for tl := range p.Tiles() {
			for len(rest) == 0 && ei+1 < len(p.Extents) {
				ei++
				e := p.Extents[ei]
				rest = p.TilesOf(e.Node)
				if want := e.Dup * fps[e.Node].CopyTiles(a, e.Remap); len(rest) != want || want == 0 {
					t.Errorf("%s node %d: %d tiles, want dup %d × CopyTiles = %d", cell, e.Node, len(rest), e.Dup, want)
				}
				for i := 1; i < len(rest); i++ {
					if !before(rest[i-1], rest[i]) {
						t.Errorf("%s node %d: tile %d %+v does not follow %+v", cell, e.Node, i, rest[i], rest[i-1])
					}
				}
			}
			if len(rest) == 0 || rest[0] != tl {
				t.Fatalf("%s: Tiles yields %+v as tile %d, TilesOf extent by extent has %+v", cell, tl, walked, rest)
			}
			rest = rest[1:]
			walked++
		}
		if ei != len(p.Extents)-1 || len(rest) != 0 {
			t.Errorf("%s: Tiles stopped in extent %d of %d with %d tiles of it unseen", cell, ei, len(p.Extents), len(rest))
		}
		cells++
		total += walked
		if cell.level == a.Mode && slices.Contains(benchGrid, cell.model) {
			// A cell of the benchmark's compile-zoo grid: what one Compile
			// used to materialize.
			t.Logf("%s.%s: %d tiles", cell.model, cell.preset, walked)
			grid += walked
		}
	}
	t.Logf("%d cells, %d derived tiles walked; the benchmark's 35-cell grid derives %d", cells, total, grid)
}

// TestClosedFormsOnCorruptFootprints corrupts the footprints of the compile
// grid's placements (the zoo's benchmark models on every preset, at every
// level it reaches) one field at a time, by ±1 and ±2 and, on one extent per
// cell, by a random 16-bit delta, and holds CopyTiles and the tiling check to
// their stripe walks on each: the same tile counts, and the same first
// failure under the same rule, node and message.
func TestClosedFormsOnCorruptFootprints(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 2))
	checked := 0
	for _, cell := range zooCells([]string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"}) {
		_, res, err := compileCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		p, fps := res.Placement.Corruptible()
		wide := rng.IntN(len(p.Extents))
		for i, e := range p.Extents {
			deltas := []int{-2, -1, 1, 2}
			if i == wide {
				deltas = append(deltas, int(int16(rng.Uint32())))
			}
			for field := range footprintFields(&fps[e.Node]) {
				for _, delta := range deltas {
					f := fps[e.Node]
					*footprintFields(&f)[field] += delta
					if faults := mapping.ClosedFormFaults(&f, p.Arch); len(faults) > 0 {
						t.Fatalf("%s node %d, field %d %+d (%+v): %v", cell, e.Node, field, delta, f, faults)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d corrupted footprints", checked)
}

// before reports whether a precedes b in (copy, tileR, sub, tileC) order.
func before(a, b mapping.Tile) bool {
	return slices.Compare([]int{a.Copy, a.TileR, a.Sub, a.TileC}, []int{b.Copy, b.TileR, b.Sub, b.TileC}) < 0
}

// extentFields and footprintFields are the integer fields one fuzz input may
// corrupt.
func extentFields(e *mapping.Extent) []*int {
	return []*int{&e.Node, &e.Segment, &e.Dup, &e.Remap, &e.FirstCore, &e.FirstXB, &e.Window, &e.Stride, &e.Cores, &e.XBs}
}

func footprintFields(f *mapping.Footprint) []*int {
	return []*int{&f.Node, &f.Rows, &f.Cols, &f.CellCols, &f.UsableCols, &f.TilesR, &f.TilesC, &f.XBsPerCopy, &f.CoresPerCopy, &f.RowGroups}
}

// Corruption targets of FuzzExtentCheck.
const (
	corruptExtent uint8 = iota
	corruptFootprint
	corruptTotal
	corruptTargets
)

// FuzzExtentCheck holds the extent check to the tile oracle: a zoo placement
// (every model, preset and level) with one field corrupted — of an extent, of
// a footprint, or a segment total — that Placement.Validate accepts derives
// only legal tiles, and one irverify.VerifyPlacement accepts also covers the
// schedule. What Validate rejects, VerifyPlacement rejects under the same
// rule. The seeds are the verifier's three placement fixtures.
func FuzzExtentCheck(f *testing.F) {
	cells := zooCells(models.Names())
	type compiled struct {
		g   *graph.Graph
		res *core.Result
		err error
	}
	var mu sync.Mutex
	cache := map[int]compiled{}
	compile := func(i int) (*graph.Graph, *core.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		c, ok := cache[i]
		if !ok {
			c.g, c.res, c.err = compileCell(cells[i])
			cache[i] = c
		}
		return c.g, c.res, c.err
	}
	cellOf := func(want zooCell) int {
		i := slices.Index(cells, want)
		if i < 0 {
			f.Fatalf("no cell %s", want)
		}
		return i
	}
	// tile-overlap: every copy on the first copy's slots; tile-out-of-grid:
	// the first extent's crossbars past the chip's last; segment-core-drift:
	// one core fewer recorded for segment 0.
	xbm, cm := cellOf(zooCell{"conv-relu", "toy-table2", arch.XBM}), cellOf(zooCell{"conv-relu", "toy-table2", arch.CM})
	_, res, err := compile(xbm)
	if err != nil {
		f.Fatal(err)
	}
	e := res.Placement.Extents[0]
	f.Add(uint16(xbm), corruptExtent, uint16(0), uint8(7), int16(-e.Stride))
	f.Add(uint16(xbm), corruptExtent, uint16(0), uint8(5), int16(res.Placement.Arch.TotalCrossbars()+7-e.FirstXB))
	f.Add(uint16(cm), corruptTotal, uint16(0), uint8(0), int16(-1))
	f.Fuzz(func(t *testing.T, cell uint16, target uint8, which uint16, field uint8, delta int16) {
		c := cells[int(cell)%len(cells)]
		g, res, err := compile(int(cell) % len(cells))
		if err != nil {
			t.Fatal(err)
		}
		p, fps := res.Placement.Corruptible()
		switch target % corruptTargets {
		case corruptExtent:
			fields := extentFields(&p.Extents[int(which)%len(p.Extents)])
			*fields[int(field)%len(fields)] += int(delta)
		case corruptFootprint:
			node := p.Extents[int(which)%len(p.Extents)].Node
			fp := fps[node]
			fields := footprintFields(&fp)
			*fields[int(field)%len(fields)] += int(delta)
			fps[node] = fp
		case corruptTotal:
			totals := [][]int{p.SegmentCores, p.SegmentXBs, p.SegmentWordlines}[field%3]
			totals[int(which)%len(totals)] += int(delta)
		}
		vs := irverify.VerifyPlacement(g, p.Arch, fps, res.Schedule, p)
		if err := p.Validate(); err != nil {
			var re *mapping.RuleError
			if !errors.As(err, &re) || !irverify.HasRule(vs, re.Rule) {
				t.Fatalf("%s: Validate rejects with %v, VerifyPlacement reports %v", c, err, vs)
			}
			return
		}
		if faults := tileFaults(g, fps, nil, p); len(faults) > 0 {
			t.Fatalf("%s: Validate accepts a placement whose tiles break the per-tile rules: %v", c, faults)
		}
		if len(vs) == 0 {
			if faults := tileFaults(g, fps, res.Schedule, p); len(faults) > 0 {
				t.Fatalf("%s: VerifyPlacement accepts a placement whose tiles break the schedule: %v", c, faults)
			}
		}
	})
}
