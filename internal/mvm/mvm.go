// Package mvm implements the MVM-grained optimization of CIM-MLC (§3.3.3)
// for XBM- and WLM-mode architectures: it refines the CG-grained operator
// duplication from core granularity to crossbar granularity (Equation 1) and
// enables the staggered crossbar-activation pipeline of Figure 12 that cuts
// peak power by activating each copy's row-stripes as their inputs arrive
// instead of all at once.
package mvm

import (
	"fmt"

	"cimmlc/internal/cost"
	"cimmlc/internal/sched"
)

// Options selects which MVM techniques run.
type Options struct {
	// Duplicate enables the Equation-1 duplication update.
	Duplicate bool
	// Stagger enables the MVM-grained computing pipeline.
	Stagger bool
}

// Optimize refines a CG-level schedule in place and returns it (appending
// "MVM" to Levels). The schedule's architecture must expose at least XBM.
func Optimize(s *sched.Schedule, m *cost.Model, opt Options) (*sched.Schedule, error) {
	if !s.Arch.Mode.AtLeast("XBM") {
		return nil, fmt.Errorf("mvm: architecture %q exposes %s; MVM-grained optimization needs XBM or WLM", s.Arch.Name, s.Arch.Mode)
	}
	if opt.Duplicate {
		if err := updateDuplication(s, m); err != nil {
			return nil, err
		}
	}
	if opt.Stagger {
		s.Stagger = true
	}
	s.Levels = append(s.Levels, "MVM")
	return s, nil
}

// updateDuplication applies Equation 1 (mapping.Footprint.RepackedCopies) to
// every CIM operator: its copies are repacked at crossbar granularity into the
// same core allocation the CG level granted.
func updateDuplication(s *sched.Schedule, m *cost.Model) error {
	for _, seg := range s.Segments {
		for _, id := range seg {
			if !s.Graph.Nodes[id].Op.CIMSupported() {
				continue // digital operator
			}
			d := s.DupOf(id)
			if dPrime := m.FPs[id].RepackedCopies(s.Arch, d); dPrime != d {
				s.SetDup(id, dPrime)
			}
		}
	}
	return nil
}
