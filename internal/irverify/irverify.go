// Package irverify is the static IR legality verifier of the compilation
// pipeline: under Options.VerifyIR it checks the compiler's intermediate
// state after every stage, so an illegal schedule, an overlapping crossbar
// mapping or a use-before-def flow becomes a compile-time error instead of a
// wrong number out of the simulator.
//
// Four rule families mirror the pipeline's artifacts:
//
//	graph/* — well-formedness of the computation graph (DAG, shapes)
//	sched/* — schedule legality against the computing-mode level (Table 1)
//	map/*   — mapping soundness (grid, tile bounds, overlap, coverage, drift)
//	flow/*  — meta-operator flow checks on codegen output (def-before-use,
//	          endpoint existence, parallel write conflicts)
//
// Every violation carries a stable rule name so tests and the `cimmlc vet`
// subcommand can assert on the class of defect, not the message text.
//
// After each stage the compiler checks only what the stage can have written:
// a level pass's schedule (VerifySchedule), the placement (VerifyPlacement),
// everything after a user pass (CheckState). Each check folds the schedule
// once by mapping's one placement calculus (Occupancy), so the checker and
// the placer cannot disagree, and reports a refusal under the rule it
// carries. A placement is checked by its own check, Placement.Validate, plus
// what only the schedule decides: every CIM node placed once in its segment,
// and the recorded occupancy the fold's (map/plan-drift). No tile is derived,
// and a defect is reported once.
package irverify

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"cimmlc/internal/arch"
	"cimmlc/internal/flowdata"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/sched"
)

// Rule names. These are stable identifiers: tests, fixtures and the vet
// subcommand match on them.
const (
	RuleGraphStructure = "graph/structure"
	RuleGraphAcyclic   = "graph/acyclic"
	RuleGraphShapes    = "graph/shapes"

	RuleSchedStructure  = "sched/structure"
	RuleSchedLevelRemap = "sched/level-remap"
	RuleSchedLevelStag  = "sched/level-stagger"
	RuleSchedCapacity   = "sched/capacity"

	// The map/* family and the remap bound live in internal/mapping, beside
	// the placement calculus that decides them, and the flow/* family in
	// internal/flowdata (the dataflow framework that computes them); all are
	// aliased here so every stable rule identifier is still reachable from
	// one package.
	RuleSchedRemapBounds = mapping.RuleRemapBounds
	RuleMapGrid          = mapping.RuleGrid
	RuleMapTileBounds    = mapping.RuleTileBounds
	RuleMapOverlap       = mapping.RuleOverlap
	RuleMapCoverage      = mapping.RuleCoverage
	RuleMapPlanDrift     = mapping.RulePlanDrift

	RuleFlowStructure    = flowdata.RuleStructure
	RuleFlowEndpoint     = flowdata.RuleEndpoint
	RuleFlowUnknownNode  = flowdata.RuleUnknownNode
	RuleFlowUseBeforeDef = flowdata.RuleUseBeforeDef
	RuleFlowUnprogrammed = flowdata.RuleUnprogrammed
	RuleFlowRegionBounds = flowdata.RuleRegionBounds
	RuleFlowScratchLap   = flowdata.RuleScratchLap
	RuleFlowParallel     = flowdata.RuleParallel
	RuleFlowOutputUndef  = flowdata.RuleOutputUndef
	RuleFlowDeadMOP      = flowdata.RuleDeadMOP
	RuleFlowRedundant    = flowdata.RuleRedundant
)

// Violation is one rule breach found by the verifier.
type Violation struct {
	Rule string
	Node int // graph node ID, or -1 when not node-specific
	Msg  string
}

func (v Violation) String() string {
	if v.Node >= 0 {
		return fmt.Sprintf("%s [node %d]: %s", v.Rule, v.Node, v.Msg)
	}
	return fmt.Sprintf("%s: %s", v.Rule, v.Msg)
}

// Error wraps the violations found after one pipeline stage.
type Error struct {
	Stage      string
	Violations []Violation
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "irverify: %d violation(s) after stage %q:", len(e.Violations), e.Stage)
	for i, v := range e.Violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  … and %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// maxViolations bounds how many violations a single verification reports: a
// corrupted artifact tends to break one rule thousands of times, and the
// first few are what diagnose it.
const maxViolations = 64

// VerifyGraph checks the graph IR: node IDs dense and ordered, edges
// strictly backward (the DAG property this representation encodes
// positionally), structural arity/weight invariants, and shape inference.
// It infers g's shapes into g — under the verifier, the compilation's one
// inference of its input — so callers must pass a private copy; the pipeline
// already compiles on one.
func VerifyGraph(g *graph.Graph) []Violation {
	if g == nil {
		return []Violation{{Rule: RuleGraphStructure, Node: -1, Msg: "nil graph"}}
	}
	var vs []Violation
	for i, n := range g.Nodes {
		if n == nil {
			vs = append(vs, Violation{RuleGraphStructure, i, "nil node"})
			continue
		}
		if n.ID != i {
			vs = append(vs, Violation{RuleGraphStructure, n.ID, fmt.Sprintf("node ID %d at index %d", n.ID, i)})
		}
		for _, in := range n.Inputs {
			switch {
			case in < 0 || in >= len(g.Nodes):
				vs = append(vs, Violation{RuleGraphStructure, n.ID, fmt.Sprintf("input %d outside the graph", in)})
			case in >= i:
				vs = append(vs, Violation{RuleGraphAcyclic, n.ID,
					fmt.Sprintf("input %d does not precede the node: edges must point backward in ID order (a cycle cannot be expressed)", in)})
			}
		}
	}
	if len(vs) > 0 {
		return vs
	}
	if err := g.Validate(); err != nil {
		return []Violation{{Rule: RuleGraphStructure, Node: -1, Msg: err.Error()}}
	}
	if err := g.InferValidShapes(); err != nil {
		return []Violation{{Rule: RuleGraphShapes, Node: -1, Msg: err.Error()}}
	}
	return nil
}

// VerifySchedule checks one schedule's legality: structure (sched.Validate),
// the level gates of Table 1 (remap needs WLM, stagger XBM or finer), and,
// by one fold of mapping.Occupancy, what placement refuses: chip capacity, a
// divided oversized node, a remap beyond the row groups. level is the
// effective ceiling (the arch's mode capped by MaxLevel); capacity uses the
// physical mode of s.Arch.
func VerifySchedule(g *graph.Graph, a *arch.Arch, level arch.Mode, fps []mapping.Footprint, s *sched.Schedule) []Violation {
	vs, _ := verifySchedule(g, a, level, fps, s)
	return vs
}

// occupancy is what mapping.Occupancy folds from a schedule, per segment.
type occupancy struct{ cores, xbs, wordlines []int }

// verifySchedule is VerifySchedule, also returning what each segment
// occupies by the schedule's fold (nil when it never folds or is refused).
func verifySchedule(g *graph.Graph, a *arch.Arch, level arch.Mode, fps []mapping.Footprint, s *sched.Schedule) ([]Violation, *occupancy) {
	var vs []Violation
	if err := s.Validate(); err != nil {
		return []Violation{{Rule: RuleSchedStructure, Node: -1, Msg: err.Error()}}, nil
	}
	if s.Stagger && !level.AtLeast(arch.XBM) {
		vs = append(vs, Violation{RuleSchedLevelStag, -1,
			fmt.Sprintf("stagger enabled but level %s exposes no crossbar-granularity control (needs %s)", level, arch.XBM)})
	}
	for id, m := range s.Remap {
		if m > 1 && !level.AtLeast(arch.WLM) {
			vs = append(vs, Violation{RuleSchedLevelRemap, id,
				fmt.Sprintf("remap %d but level %s exposes no wordline control (needs %s)", m, level, arch.WLM)})
		}
	}
	var occ occupancy
	var err error
	occ.cores, occ.xbs, occ.wordlines, err = mapping.Occupancy(context.Background(), g, a, fps, s.Dup, s.Remap, s.Segments)
	if err != nil {
		re := &mapping.RuleError{Rule: RuleSchedCapacity, Node: -1, Msg: err.Error()}
		errors.As(err, &re)
		return append(vs, Violation{re.Rule, re.Node, re.Msg}), nil
	}
	return vs, &occ
}

// VerifyPlacement checks mapping soundness at the cost of the extents:
// Placement.Validate, then the schedule-relative rules — each CIM node holds
// exactly one extent, in its scheduled segment, and each segment's recorded
// cores, crossbars and busiest-core wordlines equal what mapping.Occupancy
// derives from the schedule.
func VerifyPlacement(g *graph.Graph, a *arch.Arch, fps []mapping.Footprint, s *sched.Schedule, p *mapping.Placement) []Violation {
	var occ occupancy
	var err error
	occ.cores, occ.xbs, occ.wordlines, err = mapping.Occupancy(context.Background(), g, a, fps, s.Dup, s.Remap, s.Segments)
	return verifyPlacement(g, s, p, &occ, err)
}

// verifyPlacement is VerifyPlacement against the schedule's fold occ, or the
// fold's refusal foldErr.
func verifyPlacement(g *graph.Graph, s *sched.Schedule, p *mapping.Placement, occ *occupancy, foldErr error) []Violation {
	if err := p.Validate(); err != nil {
		re := &mapping.RuleError{Rule: RuleMapCoverage, Node: -1, Msg: err.Error()}
		errors.As(err, &re)
		return []Violation{{re.Rule, re.Node, re.Msg}}
	}
	var vs []Violation
	report := func(rule string, node int, format string, args ...any) {
		if len(vs) < maxViolations {
			vs = append(vs, Violation{rule, node, fmt.Sprintf(format, args...)})
		}
	}
	// Coverage: every CIM node holds one extent, in its scheduled segment.
	// By node ID: 1 + the segment the schedule gives it (0 for none), and
	// its extents.
	segOf, placed := make([]int, len(g.Nodes)), make([]int, len(g.Nodes))
	for segIdx, seg := range s.Segments {
		for _, id := range seg {
			if id >= 0 && id < len(segOf) {
				segOf[id] = segIdx + 1
			}
		}
	}
	for _, e := range p.Extents {
		if n, err := g.Node(e.Node); err != nil || !n.Op.CIMSupported() {
			report(RuleMapCoverage, e.Node, "extent of a non-CIM or unknown node")
			continue
		}
		placed[e.Node]++
		if seg := segOf[e.Node]; seg == 0 || seg != e.Segment+1 {
			report(RuleMapCoverage, e.Node, "placed in segment %d, not in the one the schedule gives it", e.Segment)
		}
	}
	for _, id := range g.CIMNodeIDs() {
		if placed[id] != 1 {
			report(RuleMapCoverage, id, "CIM node holds %d extents, want 1", placed[id])
		}
	}
	if foldErr != nil {
		report(RuleMapPlanDrift, -1, "schedule was placed but the placement calculus rejects it: %v", foldErr)
	} else if !slices.Equal(p.SegmentCores, occ.cores) || !slices.Equal(p.SegmentXBs, occ.xbs) || !slices.Equal(p.SegmentWordlines, occ.wordlines) {
		report(RuleMapPlanDrift, -1, "placement records cores %v / crossbars %v / busiest-core wordlines %v per segment, the schedule occupies %v / %v / %v",
			p.SegmentCores, p.SegmentXBs, p.SegmentWordlines, occ.cores, occ.xbs, occ.wordlines)
	}
	return vs
}

// CheckState verifies everything a pass can have rewritten — the graph, the
// schedule and, once placement ran (p non-nil), the placement — folding the
// schedule once for both. A broken graph is reported alone, and a placement
// is not compared with a schedule its fold rejects.
func CheckState(g *graph.Graph, a *arch.Arch, level arch.Mode, fps []mapping.Footprint, s *sched.Schedule, p *mapping.Placement) []Violation {
	if vs := VerifyGraph(g); len(vs) > 0 {
		return vs
	}
	vs, occ := verifySchedule(g, a, level, fps, s)
	if p != nil && occ != nil {
		vs = append(vs, verifyPlacement(g, s, p, occ, nil)...)
	}
	return vs
}
