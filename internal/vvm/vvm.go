// Package vvm implements the VVM-grained optimization of CIM-MLC (§3.3.4)
// for WLM-mode architectures: the data remapping strategy of Figure 14.
//
// When a crossbar can only activate parallel_row of its wordlines at once, a
// full-height MVM needs ceil(rows/parallel_row) sequential activations.
// Remapping distributes the rows that contribute to the same output across
// m different crossbars, so m row groups activate in one cycle — converting
// serial accumulation into parallel computation at the price of m× the
// crossbars. The optimizer spends whatever crossbars the duplication search
// left idle on the remappings with the best marginal latency gain.
package vvm

import (
	"fmt"

	"cimmlc/internal/cost"
	"cimmlc/internal/sched"
)

// Options selects which VVM techniques run.
type Options struct {
	// Remap enables the data remapping search.
	Remap bool
}

// Optimize refines an MVM-level schedule in place and returns it (appending
// "VVM" to Levels). The architecture must expose WLM.
func Optimize(s *sched.Schedule, m *cost.Model, opt Options) (*sched.Schedule, error) {
	if !s.Arch.Mode.AtLeast("WLM") {
		return nil, fmt.Errorf("vvm: architecture %q exposes %s; VVM-grained optimization needs WLM", s.Arch.Name, s.Arch.Mode)
	}
	if opt.Remap {
		for _, seg := range s.Segments {
			if err := remapSegment(s, m, seg); err != nil {
				return nil, err
			}
		}
	}
	s.Levels = append(s.Levels, "VVM")
	return s, nil
}

// remapSegment greedily raises remap factors within one segment while spare
// cores remain and a remapping still reduces the segment's summed runtime.
func remapSegment(s *sched.Schedule, m *cost.Model, seg []int) error {
	type cand struct {
		id  int
		dup int
	}
	var cands []cand
	coresUsed := 0
	for _, id := range seg {
		if !s.Graph.Nodes[id].Op.CIMSupported() {
			continue
		}
		f := &m.FPs[id]
		if f.Rounds > 1 {
			coresUsed = s.Arch.Chip.CoreCount()
			continue
		}
		dup := s.DupOf(id)
		coresUsed += coresFor(f.XBsPerCopy*dup*s.RemapOf(id), s.Arch.Core.XBCount())
		if f.RowGroups > 1 {
			cands = append(cands, cand{id: id, dup: dup})
		}
	}
	budget := s.Arch.Chip.CoreCount()
	for {
		bestID, bestGain, bestCost := -1, 0.0, 0
		for _, c := range cands {
			f := &m.FPs[c.id]
			cur := s.RemapOf(c.id)
			if cur >= f.RowGroups {
				continue
			}
			curCores := coresFor(f.XBsPerCopy*c.dup*cur, s.Arch.Core.XBCount())
			nextCores := coresFor(f.XBsPerCopy*c.dup*(cur+1), s.Arch.Core.XBCount())
			extra := nextCores - curCores
			if coresUsed+extra > budget {
				continue
			}
			curCost, err := m.CIMOp(c.id, c.dup, cur)
			if err != nil {
				return err
			}
			nextCost, err := m.CIMOp(c.id, c.dup, cur+1)
			if err != nil {
				return err
			}
			gain := curCost.Run() - nextCost.Run()
			if gain <= 0 {
				continue
			}
			// Prefer the best gain per extra core (gain alone when free).
			score := gain
			if extra > 0 {
				score = gain / float64(extra)
			} else {
				score = gain * 1e6
			}
			if score > bestGain {
				bestGain = score
				bestID = c.id
				bestCost = extra
			}
		}
		if bestID < 0 {
			break
		}
		s.SetRemap(bestID, s.RemapOf(bestID)+1)
		coresUsed += bestCost
	}
	return nil
}

func coresFor(xbs, perCore int) int {
	if xbs <= 0 {
		return 0
	}
	return (xbs + perCore - 1) / perCore
}
