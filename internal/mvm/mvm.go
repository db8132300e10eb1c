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

// updateDuplication applies Equation 1 to every CIM operator:
//
//	D′ = ⌊ numCores · D · CoreVXB / numVXB ⌋
//
// where numCores is the cores one copy occupies, D the CG duplication,
// CoreVXB the crossbars per core, and numVXB the crossbars one copy needs —
// i.e. the copies are repacked at crossbar granularity into the same core
// allocation the CG level granted (the §3.4 walkthrough's step from
// duplication 2 to 4).
func updateDuplication(s *sched.Schedule, m *cost.Model) error {
	for _, seg := range s.Segments {
		for _, id := range seg {
			if !s.Graph.Nodes[id].Op.CIMSupported() {
				continue // digital operator
			}
			f := &m.FPs[id]
			if f.Rounds > 1 {
				continue // oversized: cannot duplicate
			}
			d := s.DupOf(id)
			coresPerCopy := f.CoresPerCopy
			totalXBs := coresPerCopy * d * s.Arch.Core.XBCount()
			dPrime := totalXBs / f.XBsPerCopy
			if dPrime < d {
				dPrime = d
			}
			// More copies than MVMs is wasted silicon.
			if int64(dPrime) > f.MVMs {
				dPrime = int(f.MVMs)
			}
			if dPrime < 1 {
				dPrime = 1
			}
			s.SetDup(id, dPrime)
		}
	}
	return nil
}
