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
//	map/*   — mapping soundness (tile bounds, overlap, occupancy drift)
//	flow/*  — meta-operator flow checks on codegen output (def-before-use,
//	          endpoint existence, parallel write conflicts)
//
// Every violation carries a stable rule name so tests and the `cimmlc vet`
// subcommand can assert on the class of defect, not the message text. The
// capacity rules fold mapping's one placement calculus (SegmentCores,
// Occupancy) — the fold PlaceCtx keeps its extents from — so the checker and
// the placer cannot disagree; the map/plan-drift rule checks a placement
// against that calculus: the cores and crossbars it recorded, and the ones
// the tiles derived from its extents actually touch, must be what the
// schedule's fold yields.
package irverify

import (
	"context"
	"fmt"
	"slices"
	"sort"
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

	RuleMapGrid       = "map/grid"
	RuleMapTileBounds = "map/tile-bounds"
	RuleMapOverlap    = "map/overlap"
	RuleMapCoverage   = "map/coverage"
	RuleMapPlanDrift  = "map/plan-drift"

	// The flow/* family lives in internal/flowdata (the dataflow framework
	// that computes them); aliased here so every stable rule identifier is
	// still reachable from one package.
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
func VerifySchedule(g *graph.Graph, a *arch.Arch, level arch.Mode, fps map[int]mapping.Footprint, s *sched.Schedule) []Violation {
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
	for _, id := range sortedIntKeys(s.Remap) {
		m := s.Remap[id]
		if m <= 1 {
			continue
		}
		if !level.AtLeast(arch.WLM) {
			vs = append(vs, Violation{RuleSchedLevelRemap, id,
				fmt.Sprintf("remap %d but level %s exposes no wordline control (needs %s)", m, level, arch.WLM)})
		}
		if f, ok := fps[id]; ok && m > f.RowGroups {
			vs = append(vs, Violation{RuleSchedRemapBounds, id,
				fmt.Sprintf("remap %d exceeds the footprint's %d row groups: finer splitting activates nothing extra", m, f.RowGroups)})
		}
	}
	for segIdx, seg := range s.Segments {
		if _, err := mapping.SegmentCores(g, a, fps, s.Dup, s.Remap, seg); err != nil {
			vs = append(vs, Violation{RuleSchedCapacity, -1, fmt.Sprintf("segment %d: %v", segIdx, err)})
		}
	}
	return vs
}

// VerifyPlacement checks mapping soundness over the tiles the placement's
// extents generate: every tile inside the core/crossbar grid and its node's
// cell matrix, no two tiles of one (segment, round) sharing a crossbar, every
// CIM node covered in its scheduled segment, and — the drift check — each
// segment's recorded and generated cores and crossbars equal to what
// mapping.Occupancy derives from the schedule.
func VerifyPlacement(g *graph.Graph, a *arch.Arch, fps map[int]mapping.Footprint, s *sched.Schedule, p *mapping.Placement) []Violation {
	if p == nil {
		return []Violation{{Rule: RuleMapCoverage, Node: -1, Msg: "nil placement"}}
	}
	var vs []Violation
	report := func(rule string, node int, format string, args ...any) {
		if len(vs) < maxViolations {
			vs = append(vs, Violation{rule, node, fmt.Sprintf(format, args...)})
		}
	}
	nSegs := len(s.Segments)
	if len(p.SegmentCores) != nSegs || len(p.SegmentXBs) != nSegs {
		report(RuleMapCoverage, -1, "placement records %d/%d segments, schedule has %d", len(p.SegmentCores), len(p.SegmentXBs), nSegs)
	}
	xbPerCore := a.Core.XBCount()
	type slot struct{ seg, round, xb int }
	seen := map[slot]int{}
	// What the tiles themselves touch per segment: highest core + 1, and
	// distinct crossbars (every crossbar a segment uses is used in round 0).
	tileCores, tileXBs := make([]int, nSegs), make([]int, nSegs)
	tiled := map[int]bool{} // nodes with at least one tile; tiles arrive node by node
	i, lastNode := -1, -1
	for t := range p.Tiles() {
		i++
		n, err := g.Node(t.Node)
		if err != nil || !n.Op.CIMSupported() {
			report(RuleMapCoverage, t.Node, "tile %d references a non-CIM or unknown node", i)
			continue
		}
		if t.Node != lastNode {
			tiled[t.Node], lastNode = true, t.Node
		}
		if t.Segment < 0 || t.Segment >= nSegs {
			report(RuleMapCoverage, t.Node, "tile %d in segment %d of %d", i, t.Segment, nSegs)
		} else if want := s.SegmentOf(t.Node); want != t.Segment {
			report(RuleMapCoverage, t.Node, "tile %d placed in segment %d but the node is scheduled in %d", i, t.Segment, want)
		}
		if t.Core < 0 || t.Core >= a.Chip.CoreCount() {
			report(RuleMapGrid, t.Node, "tile %d on core %d outside the %d-core chip", i, t.Core, a.Chip.CoreCount())
		}
		if t.XB < 0 || t.XB >= a.TotalCrossbars() {
			report(RuleMapGrid, t.Node, "tile %d on crossbar %d outside the chip's %d crossbars", i, t.XB, a.TotalCrossbars())
		} else if t.XB/xbPerCore != t.Core {
			report(RuleMapGrid, t.Node, "tile %d crossbar %d does not belong to core %d", i, t.XB, t.Core)
		}
		if t.RowStart < 0 || t.Rows <= 0 || t.RowStart+t.Rows > a.XB.Rows {
			report(RuleMapTileBounds, t.Node, "tile %d wordlines [%d,%d) exceed crossbar height %d", i, t.RowStart, t.RowStart+t.Rows, a.XB.Rows)
		}
		if t.CellCols <= 0 || t.CellCols > a.XB.Cols {
			report(RuleMapTileBounds, t.Node, "tile %d holds %d cell columns, crossbar width %d", i, t.CellCols, a.XB.Cols)
		}
		f, ok := fps[t.Node]
		if !ok {
			report(RuleMapCoverage, t.Node, "tile %d references a node without a footprint", i)
			continue
		}
		if t.CellRowOff < 0 || t.CellRowOff+t.Rows > f.Rows {
			report(RuleMapTileBounds, t.Node, "tile %d cell rows [%d,%d) exceed the %d-row cell matrix", i, t.CellRowOff, t.CellRowOff+t.Rows, f.Rows)
		}
		if t.CellColOff < 0 || t.CellColOff+t.CellCols > f.CellCols {
			report(RuleMapTileBounds, t.Node, "tile %d cell cols [%d,%d) exceed the %d-col cell matrix", i, t.CellColOff, t.CellColOff+t.CellCols, f.CellCols)
		}
		k := slot{t.Segment, t.Round, t.XB}
		if prev, dup := seen[k]; dup {
			report(RuleMapOverlap, t.Node, "tiles %d and %d both claim crossbar %d in segment %d round %d", prev, i, t.XB, t.Segment, t.Round)
		} else {
			seen[k] = i
			if t.Segment >= 0 && t.Segment < nSegs {
				tileCores[t.Segment] = max(tileCores[t.Segment], t.Core+1)
				if t.Round == 0 {
					tileXBs[t.Segment]++
				}
			}
		}
	}
	for _, id := range g.CIMNodeIDs() {
		if !tiled[id] {
			report(RuleMapCoverage, id, "CIM node has no tiles")
		}
		if e, ok := p.ExtentOf(id); !ok {
			report(RuleMapCoverage, id, "CIM node has no core range")
		} else if first, last := e.FirstCore, e.FirstCore+e.Cores-1; first < 0 || last < first || last >= a.Chip.CoreCount() {
			report(RuleMapGrid, id, "core range [%d,%d] outside the %d-core chip", first, last, a.Chip.CoreCount())
		}
	}
	cores, xbs, err := mapping.Occupancy(context.Background(), g, a, fps, s.Dup, s.Remap, s.Segments)
	if err != nil {
		report(RuleMapPlanDrift, -1, "schedule was placed but the placement calculus rejects it: %v", err)
		return vs
	}
	if !slices.Equal(p.SegmentCores, cores) || !slices.Equal(p.SegmentXBs, xbs) {
		report(RuleMapPlanDrift, -1, "placement records cores %v / crossbars %v per segment, the schedule occupies %v / %v", p.SegmentCores, p.SegmentXBs, cores, xbs)
	}
	if !slices.Equal(tileCores, cores) || !slices.Equal(tileXBs, xbs) {
		report(RuleMapPlanDrift, -1, "tiles reach cores %v / crossbars %v per segment, the schedule occupies %v / %v", tileCores, tileXBs, cores, xbs)
	}
	return vs
}

// CheckState verifies everything the pipeline has produced so far: the
// graph always, the schedule once a scheduling pass set one, the placement
// once the placement pass ran. Nil schedule/placement are simply skipped —
// early stages have not produced them yet.
func CheckState(g *graph.Graph, a *arch.Arch, level arch.Mode, fps map[int]mapping.Footprint, s *sched.Schedule, p *mapping.Placement) []Violation {
	vs := VerifyGraph(g)
	if s != nil {
		vs = append(vs, VerifySchedule(g, a, level, fps, s)...)
	}
	if s != nil && p != nil {
		vs = append(vs, VerifyPlacement(g, a, fps, s, p)...)
	}
	return vs
}

// sortedIntKeys returns m's keys ascending (deterministic rule order).
func sortedIntKeys(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
