package mapping

import (
	"iter"
	"slices"

	"cimmlc/internal/arch"
)

// Tiles derives every tile of the placement, extent by extent in TilesOf
// order: the tile-level view the tests hold the extent check against.
func (p *Placement) Tiles() iter.Seq[Tile] {
	return func(yield func(Tile) bool) {
		for i := range p.Extents {
			if !p.Extents[i].tiles(p.Arch, &p.fps[p.Extents[i].Node], yield) {
				return
			}
		}
	}
}

// Corruptible returns a deep copy of p and the private copy of its
// footprints the copy was packed from, for tests to corrupt field by field.
func (p *Placement) Corruptible() (*Placement, []Footprint) {
	fps := slices.Clone(p.fps)
	return &Placement{
		Arch:             p.Arch,
		Extents:          slices.Clone(p.Extents),
		SegmentCores:     slices.Clone(p.SegmentCores),
		SegmentXBs:       slices.Clone(p.SegmentXBs),
		SegmentWordlines: slices.Clone(p.SegmentWordlines),
		fps:              fps,
		extent:           slices.Clone(p.extent),
	}, fps
}

// ClosedFormFaults holds f's closed-form CopyTiles and tiling check to their
// stripe-by-stripe definitions (closedform_test.go) and describes each
// disagreement.
func ClosedFormFaults(f *Footprint, a *arch.Arch) []string { return closedFormFaults(f, a) }
