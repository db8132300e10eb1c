// Package irverify is the static IR legality verifier of the compilation
// pipeline: a pass-sandwich checker that validates the compiler's
// intermediate state after every stage, so an illegal schedule, an
// overlapping crossbar mapping or a use-before-def flow becomes a
// compile-time error instead of a wrong number out of the simulator.
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
// subcommand can assert on the class of defect, not the message text. The
// capacity rules fold mapping's one placement calculus (SegmentCores,
// Occupancy) — the fold Place keeps its extents from — so the checker and
// the placer cannot disagree. A placement is checked at the cost of its
// extents: mapping.Placement.Validate, the one placement check, plus the two
// rules only the schedule can decide — every CIM node placed once in its
// scheduled segment, and the recorded occupancy what the schedule's fold
// yields (map/plan-drift). No tile is derived.
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

	RuleSchedStructure   = "sched/structure"
	RuleSchedLevelRemap  = "sched/level-remap"
	RuleSchedLevelStag   = "sched/level-stagger"
	RuleSchedRemapBounds = "sched/remap-bounds"
	RuleSchedCapacity    = "sched/capacity"

	// The map/* family lives in internal/mapping, beside the placement
	// calculus it checks, and the flow/* family in internal/flowdata (the
	// dataflow framework that computes them); both are aliased here so every
	// stable rule identifier is still reachable from one package.
	RuleMapGrid       = mapping.RuleGrid
	RuleMapTileBounds = mapping.RuleTileBounds
	RuleMapOverlap    = mapping.RuleOverlap
	RuleMapCoverage   = mapping.RuleCoverage
	RuleMapPlanDrift  = mapping.RulePlanDrift

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
// It may run shape inference on g, so callers must pass a private copy —
// the pipeline already compiles on one.
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
	if err := g.InferShapes(); err != nil {
		return []Violation{{Rule: RuleGraphShapes, Node: -1, Msg: err.Error()}}
	}
	return nil
}

// VerifySchedule checks one schedule's legality: structural coverage (via
// sched.Validate), the computing-mode level gates of Table 1 (remap needs
// WLM, stagger needs XBM or finer), remap factors within each footprint's
// row-group bound, and per-segment chip capacity via mapping.SegmentCores —
// the fold placement itself runs.
// level is the compilation's effective optimization ceiling (the arch's mode
// capped by MaxLevel); capacity uses the arch's physical mode via s.Arch.
func VerifySchedule(g *graph.Graph, a *arch.Arch, level arch.Mode, fps []mapping.Footprint, s *sched.Schedule) []Violation {
	if s == nil {
		return []Violation{{Rule: RuleSchedStructure, Node: -1, Msg: "nil schedule"}}
	}
	if err := s.Validate(); err != nil {
		return []Violation{{Rule: RuleSchedStructure, Node: -1, Msg: err.Error()}}
	}
	var vs []Violation
	if s.Stagger && !level.AtLeast(arch.XBM) {
		vs = append(vs, Violation{RuleSchedLevelStag, -1,
			fmt.Sprintf("stagger enabled but level %s exposes no crossbar-granularity control (needs %s)", level, arch.XBM)})
	}
	for id, m := range s.Remap {
		if m <= 1 {
			continue
		}
		if !level.AtLeast(arch.WLM) {
			vs = append(vs, Violation{RuleSchedLevelRemap, id,
				fmt.Sprintf("remap %d but level %s exposes no wordline control (needs %s)", m, level, arch.WLM)})
		}
		if m > fps[id].RowGroups {
			vs = append(vs, Violation{RuleSchedRemapBounds, id,
				fmt.Sprintf("remap %d exceeds the footprint's %d row groups: finer splitting activates nothing extra", m, fps[id].RowGroups)})
		}
	}
	for segIdx, seg := range s.Segments {
		if _, err := mapping.SegmentCores(g, a, fps, s.Dup, s.Remap, seg); err != nil {
			vs = append(vs, Violation{RuleSchedCapacity, -1, fmt.Sprintf("segment %d: %v", segIdx, err)})
		}
	}
	return vs
}

// VerifyPlacement checks mapping soundness at the cost of the extents:
// Placement.Validate, then the schedule-relative rules — each CIM node holds
// exactly one extent, in its scheduled segment, and each segment's recorded
// cores and crossbars equal what mapping.Occupancy derives from the schedule.
func VerifyPlacement(g *graph.Graph, a *arch.Arch, fps []mapping.Footprint, s *sched.Schedule, p *mapping.Placement) []Violation {
	if p == nil {
		return []Violation{{Rule: RuleMapCoverage, Node: -1, Msg: "nil placement"}}
	}
	var vs []Violation
	report := func(rule string, node int, format string, args ...any) {
		if len(vs) < maxViolations {
			vs = append(vs, Violation{rule, node, fmt.Sprintf(format, args...)})
		}
	}
	if err := p.Validate(); err != nil {
		re := &mapping.RuleError{Rule: RuleMapCoverage, Node: -1, Msg: err.Error()}
		errors.As(err, &re)
		vs = append(vs, Violation{re.Rule, re.Node, re.Msg})
	}
	if nSegs := len(s.Segments); len(p.SegmentCores) != nSegs || len(p.SegmentXBs) != nSegs {
		report(RuleMapCoverage, -1, "placement records %d/%d segments, schedule has %d", len(p.SegmentCores), len(p.SegmentXBs), nSegs)
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
	cores, xbs, err := mapping.Occupancy(context.Background(), g, a, fps, s.Dup, s.Remap, s.Segments)
	if err != nil {
		report(RuleMapPlanDrift, -1, "schedule was placed but the placement calculus rejects it: %v", err)
	} else if !slices.Equal(p.SegmentCores, cores) || !slices.Equal(p.SegmentXBs, xbs) {
		report(RuleMapPlanDrift, -1, "placement records cores %v / crossbars %v per segment, the schedule occupies %v / %v", p.SegmentCores, p.SegmentXBs, cores, xbs)
	}
	return vs
}

// CheckState verifies everything the pipeline has produced so far: the
// graph always, the schedule once a scheduling pass set one, the placement
// once the placement pass ran. Nil schedule/placement are simply skipped —
// early stages have not produced them yet.
func CheckState(g *graph.Graph, a *arch.Arch, level arch.Mode, fps []mapping.Footprint, s *sched.Schedule, p *mapping.Placement) []Violation {
	vs := VerifyGraph(g)
	if s != nil {
		vs = append(vs, VerifySchedule(g, a, level, fps, s)...)
	}
	if s != nil && p != nil {
		vs = append(vs, VerifyPlacement(g, a, fps, s, p)...)
	}
	return vs
}
