package tuner

import (
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/cost"
	"cimmlc/internal/mapping"
	"cimmlc/internal/sched"
)

// Candidate is one neighbor schedule produced by a single bounded move.
type Candidate struct {
	Schedule *sched.Schedule
	// Move describes the mutation for reports and tuning traces.
	Move string
}

// Knobs selects which knob families the tuner may move. The compiler
// derives it from the effective optimization level minus any techniques
// the user disabled (WithoutPipeline, WithoutDuplication, …): the tuner
// must never re-enable an optimization the caller explicitly turned off.
type Knobs struct {
	Dup      bool // per-node duplication steps
	Remap    bool // per-node WLM remap steps
	Pipeline bool // inter-operator pipeline toggle
	Stagger  bool // staggered-activation toggle
	Segments bool // segment merges and splits
}

// KnobsFor returns every knob family the optimization level admits:
// duplication, pipelining and segmentation at any level, staggering at XBM
// and finer, remapping only at WLM.
func KnobsFor(level arch.Mode) Knobs {
	return Knobs{
		Dup:      true,
		Remap:    level.AtLeast(arch.WLM),
		Pipeline: true,
		Stagger:  level.AtLeast(arch.XBM),
		Segments: true,
	}
}

// Neighbors enumerates the one-step mutations of s that the knob space of
// §3.3 admits under k: per-node duplication and WLM-remap steps, pipeline
// and stagger toggles, and merges/splits of adjacent graph segments. The
// order is deterministic — nodes ascending by ID, move kinds in a fixed
// sequence — so candidate indices double as the search's tie-breaker. Moves
// the placement calculus rejects (footprint overflow, oversized operators,
// chip capacity) are pruned here, never emitted.
func Neighbors(s *sched.Schedule, m *cost.Model, k Knobs) []Candidate {
	var out []Candidate
	a := s.Arch

	// segOf[id] is 1 + the segment holding node id, 0 if none does.
	segOf := make([]int, len(s.Graph.Nodes))
	for i, seg := range s.Segments {
		for _, id := range seg {
			segOf[id] = i + 1
		}
	}

	// Per-node knob steps, nodes in ID order.
	for id := range m.FPs {
		f := &m.FPs[id]
		if !s.Graph.Nodes[id].Op.CIMSupported() || f.Rounds > 1 {
			continue // digital, or oversized: a single copy already wraps the chip
		}
		segIdx := segOf[id] - 1
		if segIdx < 0 {
			continue
		}
		d, r := s.DupOf(id), s.RemapOf(id)

		if k.Dup {
			if int64(d) < f.MVMs { // more copies than MVMs is wasted silicon
				if c := knobStep(s, m, segIdx, id, d+1, r); c != nil {
					out = append(out, Candidate{c, fmt.Sprintf("dup[%d] %d->%d", id, d, d+1)})
				}
			}
			if d > 1 {
				if c := knobStep(s, m, segIdx, id, d-1, r); c != nil {
					out = append(out, Candidate{c, fmt.Sprintf("dup[%d] %d->%d", id, d, d-1)})
				}
			}
		}
		if k.Remap {
			if r < f.RowGroups {
				if c := knobStep(s, m, segIdx, id, d, r+1); c != nil {
					out = append(out, Candidate{c, fmt.Sprintf("remap[%d] %d->%d", id, r, r+1)})
				}
			}
			if r > 1 {
				if c := knobStep(s, m, segIdx, id, d, r-1); c != nil {
					out = append(out, Candidate{c, fmt.Sprintf("remap[%d] %d->%d", id, r, r-1)})
				}
			}
		}
	}

	// Global toggles.
	if k.Pipeline {
		c := s.Clone()
		c.Pipeline = !c.Pipeline
		out = append(out, Candidate{c, fmt.Sprintf("pipeline %t->%t", s.Pipeline, c.Pipeline)})
	}
	if k.Stagger {
		c := s.Clone()
		c.Stagger = !c.Stagger
		out = append(out, Candidate{c, fmt.Sprintf("stagger %t->%t", s.Stagger, c.Stagger)})
	}

	if k.Segments {
		// Merge adjacent segments (drops one inter-segment weight reload)
		// when the combined segment still fits the chip.
		for i := 0; i+1 < len(s.Segments); i++ {
			merged := make([]int, 0, len(s.Segments[i])+len(s.Segments[i+1]))
			merged = append(merged, s.Segments[i]...)
			merged = append(merged, s.Segments[i+1]...)
			if _, err := mapping.SegmentCores(s.Graph, a, m.FPs, s.Dup, s.Remap, merged); err != nil {
				continue
			}
			c := s.Clone()
			c.Segments = append(append([][]int{}, c.Segments[:i]...), append([][]int{merged}, c.Segments[i+2:]...)...)
			out = append(out, Candidate{c, fmt.Sprintf("merge segments %d+%d", i, i+1)})
		}

		// Split a segment at its midpoint — rarely better alone, but it
		// frees per-segment core budget that later dup/remap steps can
		// spend.
		for i, seg := range s.Segments {
			if len(seg) < 2 {
				continue
			}
			mid := len(seg) / 2
			c := s.Clone()
			left, right := cloneInts(seg[:mid]), cloneInts(seg[mid:])
			c.Segments = append(append([][]int{}, c.Segments[:i]...), append([][]int{left, right}, c.Segments[i+1:]...)...)
			out = append(out, Candidate{c, fmt.Sprintf("split segment %d@%d", i, mid)})
		}
	}

	return out
}

// knobStep returns s with node's (dup, remap) set to (d, r) when the
// placement calculus accepts the node's segment afterwards, nil otherwise.
func knobStep(s *sched.Schedule, m *cost.Model, segIdx, node, d, r int) *sched.Schedule {
	if d == 1 {
		d = 0 // back to the default: unset the entry
	}
	if r == 1 {
		r = 0
	}
	c := s.Clone()
	c.SetDup(node, d)
	c.SetRemap(node, r)
	if _, err := mapping.SegmentCores(c.Graph, c.Arch, m.FPs, c.Dup, c.Remap, c.Segments[segIdx]); err != nil {
		return nil
	}
	return c
}

func cloneInts(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}
