package mapping

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
)

// nodeTable returns a decision table over g's nodes holding, for each
// (node, value) pair of kv, value at node and 0 (unset) everywhere else.
func nodeTable(g *graph.Graph, kv ...int) []int {
	t := make([]int, len(g.Nodes))
	for i := 0; i < len(kv); i += 2 {
		t[kv[i]] = kv[i+1]
	}
	return t
}

// oneSegment puts every node of g, in ID order, in one segment.
func oneSegment(g *graph.Graph) [][]int {
	seg := make([]int, len(g.Nodes))
	for i := range seg {
		seg[i] = i
	}
	return [][]int{seg}
}

func toyFootprint(t *testing.T) (*graph.Graph, *arch.Arch, []Footprint) {
	t.Helper()
	g := models.ConvReLU()
	a := arch.ToyExample()
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	return g, a, fps
}

// The §3.4 walkthrough: conv (32,3,3,3) on the Table-2 machine. The weight
// matrix is 27×32; with 2-bit cells each 8-bit weight takes 4 cells, so the
// cell matrix is 27×128 — exactly one 32×128 crossbar per copy.
func TestFootprintMatchesSection34(t *testing.T) {
	g, _, fps := toyFootprint(t)
	if cim := g.CIMNodeIDs(); len(cim) != 1 {
		t.Fatalf("CIM nodes = %v, want 1", cim)
	}
	f := fps[g.CIMNodeIDs()[0]]
	for id, v := range fps {
		if !g.Nodes[id].Op.CIMSupported() && v != (Footprint{}) {
			t.Fatalf("digital node %d has footprint %+v", id, v)
		}
	}
	if f.Rows != 27 || f.Cols != 32 {
		t.Fatalf("matrix %dx%d, want 27x32", f.Rows, f.Cols)
	}
	if f.CellCols != 128 {
		t.Fatalf("cell cols = %d, want 128", f.CellCols)
	}
	if f.TilesR != 1 || f.TilesC != 1 || f.XBsPerCopy != 1 {
		t.Fatalf("tiling %dx%d (%d xbs), want 1x1 (1)", f.TilesR, f.TilesC, f.XBsPerCopy)
	}
	if f.CoresPerCopy != 1 {
		t.Fatalf("cores per copy = %d, want 1", f.CoresPerCopy)
	}
	if f.MVMs != 1024 {
		t.Fatalf("MVMs = %d, want 1024", f.MVMs)
	}
	// parallel row 16, 27 rows used → 2 groups.
	if f.RowGroups != 2 {
		t.Fatalf("row groups = %d, want 2", f.RowGroups)
	}
}

func TestFootprintISAACResNetStem(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	stem := g.CIMNodeIDs()[0]
	f := fps[stem]
	// Stem conv 7×7×3 → 147 rows; 64 out channels × 4 cells = 256 cell cols.
	if f.Rows != 147 || f.CellCols != 256 {
		t.Fatalf("stem matrix %d×%d cells, want 147×256", f.Rows, f.CellCols)
	}
	if f.TilesR != 2 || f.TilesC != 2 || f.XBsPerCopy != 4 {
		t.Fatalf("stem tiling %d×%d, want 2×2", f.TilesR, f.TilesC)
	}
	if f.CoresPerCopy != 1 {
		t.Fatalf("stem cores per copy = %d, want 1", f.CoresPerCopy)
	}
	if f.MVMs != 112*112 {
		t.Fatalf("stem MVMs = %d, want 12544", f.MVMs)
	}
}

func TestFootprintRejectsNonCIM(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	relu := g.Nodes[2]
	if _, err := ComputeFootprint(relu, a); err == nil {
		t.Fatal("accepted non-CIM node")
	}
}

func TestFootprintRejectsTooNarrowCrossbar(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	a.XB.Cols = 2 // 4 cells per weight cannot fit
	if _, err := ComputeFootprint(g.Nodes[1], a); err == nil {
		t.Fatal("accepted crossbar narrower than one weight")
	}
}

// TestFootprintRejectsEmptyWeights: a copy of a CIM operator holds at least
// one crossbar, so an empty weight matrix, which would occupy none, has no
// footprint.
func TestFootprintRejectsEmptyWeights(t *testing.T) {
	a := arch.ToyExample()
	for _, w := range [][]int{{32, 0}, {0, 16}} {
		n := &graph.Node{ID: 1, Op: graph.OpDense, WeightShape: w, OutShape: []int{w[1]}}
		if f, err := ComputeFootprint(n, a); err == nil {
			t.Fatalf("a %d×%d weight matrix got footprint %+v", w[0], w[1], f)
		}
	}
}

func TestTileRowsAndCols(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	fps, _ := Footprints(g, a)
	f := fps[g.CIMNodeIDs()[0]] // 147×256 cells on 128×128 crossbars
	if f.TileRows(0, a) != 128 || f.TileRows(1, a) != 19 {
		t.Fatalf("tile rows = %d,%d want 128,19", f.TileRows(0, a), f.TileRows(1, a))
	}
	if f.TileRows(2, a) != 0 || f.TileRows(-1, a) != 0 {
		t.Fatal("out-of-range tile rows should be 0")
	}
	if f.TileCellCols(0) != 128 || f.TileCellCols(1) != 128 {
		t.Fatalf("tile cols = %d,%d want 128,128", f.TileCellCols(0), f.TileCellCols(1))
	}
	if f.TileCellCols(5) != 0 {
		t.Fatal("out-of-range tile cols should be 0")
	}
}

func TestTotalCores(t *testing.T) {
	a := arch.ISAACBaseline()
	// ResNet18 (11.7M weights × 4 cells ≈ 47M cells) fits the 201M-cell
	// baseline; VGG16 (138M weights, dominated by its classifier) does not
	// and must be segmented.
	rn, err := Footprints(models.ResNet18(), a)
	if err != nil {
		t.Fatal(err)
	}
	if total := TotalCores(rn); total <= 0 || total > a.Chip.CoreCount() {
		t.Fatalf("ResNet18 needs %d cores, expected to fit in 768", total)
	}
	vgg, err := Footprints(models.VGG16(), a)
	if err != nil {
		t.Fatal(err)
	}
	if total := TotalCores(vgg); total <= a.Chip.CoreCount() {
		t.Fatalf("VGG16 needs %d cores; expected to exceed 768 (needs segmentation)", total)
	}
}

func TestRoundsForOversizedOperator(t *testing.T) {
	g := models.VGG16()
	a := arch.PUMAAccelerator() // 276 crossbars in total
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// The first classifier layer (25088×4096) cannot fit even alone.
	var fc Footprint
	for _, id := range g.CIMNodeIDs() {
		n := g.MustNode(id)
		if n.Op == graph.OpDense && n.WeightShape[0] == 25088 {
			fc = fps[id]
		}
	}
	if fc.Node == 0 && fc.Rows == 0 {
		t.Fatal("did not find the 25088-input classifier layer")
	}
	if fc.Rounds <= 1 {
		t.Fatalf("fc1 rounds = %d on PUMA, want > 1", fc.Rounds)
	}
	// A small conv fits in one round.
	stem := fps[g.CIMNodeIDs()[0]]
	if stem.Rounds != 1 {
		t.Fatalf("stem rounds = %d, want 1", stem.Rounds)
	}
}

func TestPlaceOversizedOperatorWrapsIntoRounds(t *testing.T) {
	// One giant dense layer on the toy machine (4 crossbars).
	b := graph.NewBuilder("big", 1024)
	b.Dense(64)
	g := b.MustFinish()
	a := arch.ToyExample() // 32×128 crossbars, 4 of them
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	node := g.CIMNodeIDs()[0]
	f := fps[node]
	if f.Rounds <= 1 {
		t.Fatalf("expected oversized operator, got %d crossbars on a %d-crossbar chip", f.XBsPerCopy, a.TotalCrossbars())
	}
	p, err := Place(context.Background(), g, a, fps, nil, nil, oneSegment(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	maxRound := 0
	for _, tl := range p.TilesOf(node) {
		if tl.Round > maxRound {
			maxRound = tl.Round
		}
	}
	if maxRound == 0 {
		t.Fatal("oversized operator placed without rounds")
	}
	// Copies or a remap on an oversized operator must fail.
	if f.RowGroups < 2 {
		t.Fatalf("footprint %+v: want 2+ row groups", f)
	}
	for _, dr := range [][2][]int{{nodeTable(g, node, 2), nil}, {nil, nodeTable(g, node, 2)}} {
		if err := refusal(t, g, a, fps, dr[0], dr[1]); !strings.Contains(err.Error(), "exceeds chip capacity") {
			t.Fatalf("dup %v remap %v: %v, want a capacity refusal", dr[0], dr[1], err)
		}
	}
}

func TestPlaceSingleCopy(t *testing.T) {
	g, a, fps := toyFootprint(t)
	node := g.CIMNodeIDs()[0]
	p, err := Place(context.Background(), g, a, fps, nil, nil, oneSegment(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	tiles := p.TilesOf(node)
	if len(tiles) != 1 {
		t.Fatalf("tiles = %d, want 1", len(tiles))
	}
	if tiles[0].Core != 0 || tiles[0].XB != 0 {
		t.Fatalf("tile placed at core %d xb %d, want 0/0", tiles[0].Core, tiles[0].XB)
	}
	if p.SegmentCores[0] != 1 {
		t.Fatalf("segment cores = %d, want 1", p.SegmentCores[0])
	}
}

// §3.4 again: with the XBM interface the duplication rises to 4 — one copy
// per crossbar, filling both cores exactly.
func TestPlaceFourCopiesFillsToy(t *testing.T) {
	g, a, fps := toyFootprint(t)
	node := g.CIMNodeIDs()[0]
	p, err := Place(context.Background(), g, a, fps, nodeTable(g, node, 4), nil, oneSegment(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	tiles := p.TilesOf(node)
	if len(tiles) != 4 {
		t.Fatalf("tiles = %d, want 4", len(tiles))
	}
	if p.SegmentXBs[0] != 4 || p.SegmentCores[0] != 2 {
		t.Fatalf("xbs=%d cores=%d, want 4/2", p.SegmentXBs[0], p.SegmentCores[0])
	}
	// All four crossbars distinct.
	seen := map[int]bool{}
	for _, tl := range tiles {
		if seen[tl.XB] {
			t.Fatal("two copies share a crossbar")
		}
		seen[tl.XB] = true
	}
}

func TestPlaceOverflowErrors(t *testing.T) {
	g, a, fps := toyFootprint(t)
	node := g.CIMNodeIDs()[0]
	if _, err := Place(context.Background(), g, a, fps, nodeTable(g, node, 5), nil, oneSegment(g)); err == nil {
		t.Fatal("accepted 5 copies on a 4-crossbar chip")
	}
}

// The Figure 14 remap: with parallel row 16 on 32-row crossbars, remap
// factor 2 splits each copy's 27 rows over two crossbars of ≤16 rows so one
// activation covers everything.
func TestPlaceWithRemap(t *testing.T) {
	g, a, fps := toyFootprint(t)
	node := g.CIMNodeIDs()[0]
	p, err := Place(context.Background(), g, a, fps, nodeTable(g, node, 2), nodeTable(g, node, 2), oneSegment(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	tiles := p.TilesOf(node)
	if len(tiles) != 4 { // 2 copies × 2 sub-tiles
		t.Fatalf("tiles = %d, want 4", len(tiles))
	}
	for _, tl := range tiles {
		if tl.Rows > a.XB.ParallelRow {
			t.Fatalf("remapped tile still holds %d rows > parallel row %d", tl.Rows, a.XB.ParallelRow)
		}
	}
	// Sub-tiles of one copy must cover rows 0..27 disjointly.
	covered := 0
	for _, tl := range tiles {
		if tl.Copy == 0 {
			covered += tl.Rows
		}
	}
	if covered != 27 {
		t.Fatalf("copy 0 covers %d rows, want 27", covered)
	}
}

// refusal places g in one segment at (dup, remap), which must fail, and
// requires Occupancy and SegmentCores, the other folds of the packing rule,
// to fail with the same error; it returns that error.
func refusal(t *testing.T, g *graph.Graph, a *arch.Arch, fps []Footprint, dup, remap []int) error {
	t.Helper()
	_, err := Place(context.Background(), g, a, fps, dup, remap, oneSegment(g))
	if err == nil {
		t.Fatalf("Place accepted dup %v remap %v", dup, remap)
	}
	if _, _, _, oerr := Occupancy(context.Background(), g, a, fps, dup, remap, oneSegment(g)); oerr == nil || oerr.Error() != err.Error() {
		t.Fatalf("Occupancy: %v, Place: %v", oerr, err)
	}
	if _, serr := SegmentCores(g, a, fps, dup, remap, oneSegment(g)[0]); serr == nil || serr.Error() != err.Error() {
		t.Fatalf("SegmentCores: %v, Place: %v", serr, err)
	}
	return err
}

// TestRemapBeyondRowGroupsRefused: a remap past the footprint's row groups
// (2) is refused, not clamped, alike by every fold of the packing rule.
func TestRemapBeyondRowGroupsRefused(t *testing.T) {
	g, a, fps := toyFootprint(t)
	node := g.CIMNodeIDs()[0]
	if _, err := Place(context.Background(), g, a, fps, nil, nodeTable(g, node, 2), oneSegment(g)); err != nil {
		t.Fatalf("remap at the row groups refused: %v", err)
	}
	for _, m := range []int{3, 100} {
		err := refusal(t, g, a, fps, nil, nodeTable(g, node, m))
		if want := fmt.Sprintf("mapping: node %d remapped by %d beyond its 2 row groups", node, m); err.Error() != want {
			t.Fatalf("remap %d: %v, want %q", m, err, want)
		}
	}
}

func TestPlaceSegmentsReuseCores(t *testing.T) {
	// Two conv layers in separate segments both start at core 0.
	b := graph.NewBuilder("two", 3, 8, 8)
	b.Conv(8, 3, 1, 1).ReLU().Conv(8, 3, 1, 1)
	g := b.MustFinish()
	a := arch.ToyExample()
	a.XB.Rows = 128 // make both convs fit one crossbar
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.CIMNodeIDs()
	segs := [][]int{{ids[0]}, {ids[1]}}
	p, err := Place(context.Background(), g, a, fps, nil, nil, segs)
	if err != nil {
		t.Fatal(err)
	}
	if p.TilesOf(ids[0])[0].Core != 0 || p.TilesOf(ids[1])[0].Core != 0 {
		t.Fatal("segments should both start at core 0")
	}
	if len(p.SegmentCores) != 2 {
		t.Fatalf("segment count = %d", len(p.SegmentCores))
	}
}

func TestPlaceRejectsDuplicateNode(t *testing.T) {
	g, a, fps := toyFootprint(t)
	node := g.CIMNodeIDs()[0]
	if _, err := Place(context.Background(), g, a, fps, nil, nil, [][]int{{node}, {node}}); err == nil {
		t.Fatal("accepted node in two segments")
	}
}

func TestPlaceRejectsMissingNode(t *testing.T) {
	g, a, fps := toyFootprint(t)
	if _, err := Place(context.Background(), g, a, fps, nil, nil, [][]int{{0}}); err == nil { // segment without the conv
		t.Fatal("accepted placement missing a CIM node")
	}
}

func TestPlaceRejectsBadDup(t *testing.T) {
	g, a, fps := toyFootprint(t)
	node := g.CIMNodeIDs()[0]
	if _, err := Place(context.Background(), g, a, fps, nodeTable(g, node, -1), nil, oneSegment(g)); err == nil {
		t.Fatal("accepted dup -1")
	}
	if _, err := Place(context.Background(), g, a, fps, nil, nodeTable(g, node, -1), oneSegment(g)); err == nil {
		t.Fatal("accepted remap -1")
	}
}

func TestPlaceRejectsEmptySegments(t *testing.T) {
	g, a, fps := toyFootprint(t)
	if _, err := Place(context.Background(), g, a, fps, nil, nil, nil); err == nil {
		t.Fatal("accepted nil segments")
	}
}

// Property: for any dup within capacity, every copy's tiles cover the whole
// cell matrix exactly once (row coverage × column coverage).
func TestPlacementCoverageProperty(t *testing.T) {
	g := models.LeNet5()
	a := arch.ISAACBaseline()
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	f := func(dupSel, remapSel uint8) bool {
		dup := make([]int, len(g.Nodes))
		remap := make([]int, len(g.Nodes))
		for i, id := range g.CIMNodeIDs() {
			dup[id] = int(dupSel)%3 + 1
			if i%2 == 0 {
				remap[id] = int(remapSel)%2 + 1
			}
		}
		p, err := Place(context.Background(), g, a, fps, dup, remap, oneSegment(g))
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		for _, id := range g.CIMNodeIDs() {
			fp := fps[id]
			// Sum of Rows×CellCols over copy 0's tiles must equal the cell
			// matrix area.
			area := 0
			for _, tl := range p.TilesOf(id) {
				if tl.Copy == 0 {
					area += tl.Rows * tl.CellCols
				}
			}
			if area != fp.Rows*fp.CellCols {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
