package mapping

import (
	"context"
	"math/rand/v2"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
)

// roundWordlinesByTile is the busiest-core wordlines of every round of e, as
// a walk over its tiles: per round, the most Tile.Rows any one core sums.
func roundWordlinesByTile(a *arch.Arch, f *Footprint, e Extent) []int {
	perCore := map[[2]int]int{}
	var rounds []int
	e.tiles(a, f, func(t Tile) bool {
		k := [2]int{t.Round, t.Core}
		perCore[k] += t.Rows
		for len(rounds) <= t.Round {
			rounds = append(rounds, 0)
		}
		rounds[t.Round] = max(rounds[t.Round], perCore[k])
		return true
	})
	return rounds
}

// drawArch returns a preset cut down at random: a crossbar of a few rows and
// columns, a core of a few crossbars, a chip of a few cores, in any mode,
// so that footprints take many stripes, column tiles and copies and the
// cores cut them at every phase.
func drawArch(t *testing.T, rng *rand.Rand, shipped *arch.Arch) *arch.Arch {
	a := shipped.Clone()
	a.XB.Rows = 1 + rng.IntN(24)
	a.XB.ParallelRow = 1 + rng.IntN(a.XB.Rows)
	a.XB.Cols = a.CellsPerWeight() * (1 + rng.IntN(6))
	a.Core.XBRows, a.Core.XBCols = 1+rng.IntN(4), 1+rng.IntN(5)
	a.Chip.CoreRows, a.Chip.CoreCols = 1+rng.IntN(8), 1+rng.IntN(8)
	a.Mode = []arch.Mode{arch.CM, arch.XBM, arch.WLM}[rng.IntN(3)]
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// drawFootprint returns a Dense or Conv operator's footprint on a.
func drawFootprint(t *testing.T, rng *rand.Rand, a *arch.Arch, id int) Footprint {
	n := &graph.Node{ID: id, Op: graph.OpDense, WeightShape: []int{1 + rng.IntN(160), 1 + rng.IntN(24)}, OutShape: []int{1 + rng.IntN(200), 1}}
	if id%2 == 1 {
		k := 1 + rng.IntN(3)
		n = &graph.Node{ID: id, Op: graph.OpConv, WeightShape: []int{1 + rng.IntN(24), 1 + rng.IntN(16), k, k}, OutShape: []int{1, 1 + rng.IntN(16), 1 + rng.IntN(16)}}
	}
	f, err := ComputeFootprint(n, a)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWordlinesMatchTileWalks draws footprints on cut-down presets and packs
// them at every remap their row groups allow, with one copy, two, and as
// many as fit, from core 0 and from a later core: the wordlines an extent
// records for its first round must be its busiest core's, tile by tile.
// An undivided copy's first-round and later-round wordlines
// (Footprint.Wordlines) must be the walk's over every round it wraps into,
// and, when it does not wrap, the general search must agree with the
// closed form for one copy.
func TestWordlinesMatchTileWalks(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 1))
	extents, wrapped := 0, 0
	for _, name := range arch.PresetNames() {
		shipped, err := arch.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for variant := 0; variant < 40; variant++ {
			a := drawArch(t, rng, shipped)
			x := a.Core.XBCount()
			for draw := 0; draw < 25; draw++ {
				f := drawFootprint(t, rng, a, draw)
				tiles := f.CopyTiles(a, 1)
				if tiles > 1<<16 {
					continue
				}
				e, err := packNode(a, &f, 0, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := roundWordlinesByTile(a, &f, e)
				later := 0
				for _, w := range want[1:] {
					later += w
				}
				if first, gotLater := f.Wordlines(a); first != want[0] || gotLater != later {
					t.Fatalf("%s %+v: Wordlines = %d, %d; tile by tile %d, %d (rounds %v)", name, f, first, gotLater, want[0], later, want)
				}
				if len(want) > 1 {
					wrapped++
				} else {
					q := newRowSeq(a, &f, 1, 1, e.Stride)
					if got := q.busiest(x); got != want[0] {
						t.Fatalf("%s %+v: busiest = %d, roundRows and the walk %d", name, f, got, want[0])
					}
				}
				for m := 1; m <= f.RowGroups; m++ {
					most := a.TotalCrossbars() / max(1, f.XBsPerCopy*m)
					for _, d := range []int{1, 2, 3, max(1, most), 1 + rng.IntN(max(1, most))} {
						firstCore := 0
						if d%2 == 0 {
							firstCore = rng.IntN(a.Chip.CoreCount())
						}
						e, err := packNode(a, &f, firstCore, d, m)
						if err != nil {
							continue
						}
						got, want := e.wordlines(a, &f), roundWordlinesByTile(a, &f, e)[0]
						if got != want {
							t.Fatalf("%s (crossbar %d×%d, %d a core, %s) %+v at dup %d remap %d from core %d: %d wordlines, tile by tile %d",
								name, a.XB.Rows, a.XB.Cols, x, a.Mode, f, d, m, firstCore, got, want)
						}
						extents++
					}
				}
			}
		}
	}
	t.Logf("%d extents, %d wrapped copies", extents, wrapped)
}

// TestWordlinesOnPlacements: what Place records per segment is the most any
// extent of it writes on one core, and Occupancy records the same.
func TestWordlinesOnPlacements(t *testing.T) {
	a := arch.ToyExample()
	g := graph.New("two")
	in := g.AddInput("x", 100)
	fc1 := g.AddNode("fc1", graph.OpDense, []int{in}, graph.Attr{}, []int{100, 24})
	fc2 := g.AddNode("fc2", graph.OpDense, []int{fc1}, graph.Attr{}, []int{24, 10})
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	fps, err := Footprints(g, a)
	if err != nil {
		t.Fatal(err)
	}
	segs := [][]int{{fc1}, {fc2}}
	p, err := Place(context.Background(), g, a, fps, nil, nil, segs)
	if err != nil {
		t.Fatal(err)
	}
	_, _, wl, err := Occupancy(context.Background(), g, a, fps, nil, nil, segs)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		want := roundWordlinesByTile(a, &fps[seg[0]], p.Extents[i])[0]
		if p.SegmentWordlines[i] != want || wl[i] != want {
			t.Errorf("segment %d: Place records %d wordlines, Occupancy %d, tile by tile %d", i, p.SegmentWordlines[i], wl[i], want)
		}
	}
}
