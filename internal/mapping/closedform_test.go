package mapping

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
)

// copyTilesByStripe is CopyTiles as a walk over the copy's row stripes, each
// split into its sub-tiles at remap m: the definition the closed form is held
// to.
func copyTilesByStripe(f *Footprint, a *arch.Arch, m int) int {
	total := 0
	for tr := 0; tr < f.TilesR; tr++ {
		n, _ := subTiles(f.TileRows(tr, a), m)
		total += n * f.TilesC
	}
	return total
}

// validateByTile is the footprint's tiling check as a walk over every row
// stripe and column tile, reporting the first that fails: the definition
// validate is held to, rule, node and message.
func validateByTile(f *Footprint, a *arch.Arch) error {
	if f.TilesR < 1 || f.TilesC < 1 {
		return ruleErr(RuleTileBounds, f.Node, "node %d tiles %d×%d", f.Node, f.TilesR, f.TilesC)
	}
	for tr := 0; tr < f.TilesR; tr++ {
		if rows := f.TileRows(tr, a); rows <= 0 || rows > a.XB.Rows || tr*a.XB.Rows+rows > f.Rows {
			return ruleErr(RuleTileBounds, f.Node, "node %d row stripe %d holds rows [%d,%d) of a %d-row matrix, crossbar height %d", f.Node, tr, tr*a.XB.Rows, tr*a.XB.Rows+rows, f.Rows, a.XB.Rows)
		}
	}
	for tc := 0; tc < f.TilesC; tc++ {
		if cols := f.TileCellCols(tc); cols <= 0 || cols > a.XB.Cols || tc*f.UsableCols+cols > f.CellCols {
			return ruleErr(RuleTileBounds, f.Node, "node %d column tile %d holds cell columns [%d,%d) of a %d-column matrix, crossbar width %d", f.Node, tc, tc*f.UsableCols, tc*f.UsableCols+cols, f.CellCols, a.XB.Cols)
		}
	}
	return nil
}

// closedFormFaults holds CopyTiles at remaps 1 … RowGroups+1 (at most 64 of
// them on a corrupted footprint, and never below 1, where neither is
// defined) and validate to their stripe-by-stripe definitions on f, and
// describes each disagreement.
func closedFormFaults(f *Footprint, a *arch.Arch) []string {
	var faults []string
	remaps := []int{max(1, f.RowGroups+1)}
	for m := 1; m <= min(f.RowGroups, 64); m++ {
		remaps = append(remaps, m)
	}
	for _, m := range remaps {
		if got, want := f.CopyTiles(a, m), copyTilesByStripe(f, a, m); got != want {
			faults = append(faults, fmt.Sprintf("CopyTiles(%d) = %d, stripe by stripe %d", m, got, want))
		}
	}
	if got, want := f.validate(a), validateByTile(f, a); !reflect.DeepEqual(got, want) {
		faults = append(faults, fmt.Sprintf("validate = %v, tile by tile %v", got, want))
	}
	return faults
}

// TestClosedFormsMatchStripeWalks draws Dense and Conv operators on every
// preset, as shipped and with a crossbar cut to a few rows (many stripes,
// ragged last ones), and holds CopyTiles and validate to the stripe walks.
func TestClosedFormsMatchStripeWalks(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 1))
	checked := 0
	for _, name := range arch.PresetNames() {
		shipped, err := arch.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for variant := 0; variant < 8; variant++ {
			a := shipped.Clone()
			if variant > 0 {
				a.XB.Rows = 1 + rng.IntN(40)
				a.XB.ParallelRow = 1 + rng.IntN(a.XB.Rows)
				if err := a.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			for draw := 0; draw < 50; draw++ {
				n := &graph.Node{ID: draw, Op: graph.OpDense, WeightShape: []int{1 + rng.IntN(5000), 1 + rng.IntN(3000)}, OutShape: []int{1 + rng.IntN(200), 1}}
				if draw%2 == 1 {
					k := 1 + rng.IntN(7)
					n = &graph.Node{ID: draw, Op: graph.OpConv, WeightShape: []int{1 + rng.IntN(512), 1 + rng.IntN(512), k, k}, OutShape: []int{1, 1 + rng.IntN(64), 1 + rng.IntN(64)}}
				}
				f, err := ComputeFootprint(n, a)
				if err != nil {
					t.Fatal(err)
				}
				if faults := closedFormFaults(&f, a); len(faults) > 0 {
					t.Fatalf("%s (crossbar %d×%d) footprint %+v: %v", name, a.XB.Rows, a.XB.Cols, f, faults)
				}
				checked++
			}
		}
	}
	t.Logf("%d footprints", checked)
}

// TestClosedFormsOnHugeFootprint places a Dense operator of 2⁴⁰ rows on a
// one-row crossbar: 2⁴⁰ row stripes, one tile each, which a stripe-by-stripe
// walk would take hours over. CopyTiles, validate, packNode and with them
// Place, Placement.Validate and XBSpan must answer at once, and so must the
// wordlines its 2³⁸ rounds write (its segment's first round and the sum of
// the later ones) and those of two copies of it at remap 3 on a chip of
// 2²⁰ × 2²⁰ cores; CI runs this test under a one-minute timeout.
func TestClosedFormsOnHugeFootprint(t *testing.T) {
	const stripes = 1 << 40
	a, err := arch.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.XB.Rows, a.XB.ParallelRow = 1, 1
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.New("huge")
	in := g.AddInput("x", stripes)
	fc := g.AddNode("fc", graph.OpDense, []int{in}, graph.Attr{}, []int{stripes, 1})
	g.Nodes[fc].OutShape = []int{1}
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	f := &fps[fc]
	if f.TilesR != stripes || f.TilesC != 1 || f.RowGroups != 1 {
		t.Fatalf("footprint %+v, want %d one-row stripes of one tile", f, stripes)
	}
	for m := 1; m <= 2; m++ {
		if got := f.CopyTiles(a, m); got != stripes {
			t.Fatalf("CopyTiles(%d) = %d, want %d", m, got, stripes)
		}
	}
	if err := f.validate(a); err != nil {
		t.Fatal(err)
	}
	e, err := packNode(a, f, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.XBs != a.TotalCrossbars() || e.Cores != a.Chip.CoreCount() {
		t.Fatalf("extent %+v, want the whole chip, its tiles wrapping into rounds", e)
	}
	p, err := Place(context.Background(), g, a, fps, nil, nil, [][]int{{fc}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.XBSpan(); got != a.TotalCrossbars() {
		t.Fatalf("XBSpan = %d, want the chip's %d crossbars", got, a.TotalCrossbars())
	}
	// Every round fills the chip with one-row tiles: each core writes one
	// wordline per crossbar, in every one of the stripes / chip rounds.
	x, rounds := a.Core.XBCount(), stripes/a.TotalCrossbars()
	if first, later := f.Wordlines(a); first != x || later != (rounds-1)*x || p.SegmentWordlines[0] != x {
		t.Fatalf("%d rounds: Wordlines = %d, %d; the segment records %d; want %d, %d", rounds, first, later, p.SegmentWordlines[0], x, (rounds-1)*x)
	}
	// Two copies of it at remap 3 on three-row crossbars fill a chip of 2⁴⁰
	// cores without wrapping; every sub-tile is one row.
	big := a.Clone()
	big.Chip.CoreRows, big.Chip.CoreCols = 1<<20, 1<<20
	big.XB.Rows = 3
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	bf, err := ComputeFootprint(g.Nodes[fc], big)
	if err != nil {
		t.Fatal(err)
	}
	be, err := packNode(big, &bf, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := be.wordlines(big, &bf); got != x {
		t.Fatalf("two copies at remap 3 of %d stripes: %d wordlines on the busiest core, want %d", bf.TilesR, got, x)
	}
	// One stripe too many: the check finds the empty last stripe as fast.
	bad := *f
	bad.TilesR++
	want := ruleErr(RuleTileBounds, fc, "node %d row stripe %d holds rows [%d,%d) of a %d-row matrix, crossbar height %d", fc, stripes, stripes, stripes, stripes, 1)
	if err := bad.validate(a); !reflect.DeepEqual(err, want) {
		t.Fatalf("validate of %d stripes over %d rows = %v, want %v", bad.TilesR, bad.Rows, err, want)
	}
}
