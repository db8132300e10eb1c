package sched

import (
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/models"
)

// TestFingerprintCanonical checks the decision digest is invariant to
// representation (explicit default entries, clone round-trips) and sensitive
// to every knob the autotuner mutates.
func TestFingerprintCanonical(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ISAACBaseline()
	s := sequential(g, a)
	base := s.Fingerprint()

	if got := s.Clone().Fingerprint(); got != base {
		t.Errorf("clone fingerprint %s differs from original %s", got, base)
	}

	// An explicit dup/remap of 1 is the default and must digest identically
	// — the tuner deletes default entries, the heuristics keep them.
	cim := g.CIMNodeIDs()[0]
	explicit := s.Clone()
	explicit.Dup[cim] = 1
	explicit.Remap[cim] = 1
	if got := explicit.Fingerprint(); got != base {
		t.Errorf("explicit default entries changed the fingerprint: %s vs %s", got, base)
	}

	mutations := map[string]func(*Schedule){
		"dup":      func(c *Schedule) { c.Dup[cim] = 2 },
		"remap":    func(c *Schedule) { c.Remap[cim] = 2 },
		"pipeline": func(c *Schedule) { c.Pipeline = true },
		"stagger":  func(c *Schedule) { c.Stagger = true },
		"segments": func(c *Schedule) {
			seg := c.Segments[0]
			c.Segments = [][]int{seg[:1], seg[1:]}
		},
		"levels": func(c *Schedule) { c.Levels = append(c.Levels, "TUNE") },
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		c := s.Clone()
		mutate(c)
		fp := c.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("mutation %q collides with %q: %s", name, prev, fp)
		}
		seen[fp] = name
	}
}
