// Package flowdata is the dataflow-analysis framework over the lowered
// meta-operator flow IR: the one place in the stack where crossbar
// programming, buffer regions and gather-scratch lifetimes are all explicit.
//
// Build interprets a generated flow abstractly, in program order, and
// produces an Analysis artifact with
//
//   - the rule breaches the flow-sensitive verifier found (the flow/* rule
//     catalog internal/irverify re-exports), dead MOPs (scratch writes
//     never read) and redundant transfers (identical re-moves of unchanged
//     data) among them: a generated flow carries nothing that could be
//     removed,
//   - backward liveness for scratch words and region-granular live ranges
//     for every buffer region, and
//   - static resource facts: peak live scratch words, peak live crossbar
//     regions, transfer-word totals and a live-range pressure histogram.
//
// Everything is deterministic by construction: flows are straight-line
// programs, so each dataflow problem converges in a single forward pass
// plus a single backward pass over the instruction stream in node-ID /
// program order — the fixpoint is the first iterate. No map is ranged
// bare; region construction follows sorted node IDs.
//
// What each operator touches is not this package's knowledge: operand
// resolution — the words and regions an operator reads and writes, the
// crossbar programming record with its reprogram-reset rule, cim.readcore's
// destination geometry, and every endpoint check — lives once in
// internal/codegen's Resolver (operands.go), which internal/funcsim compiles
// its kernels from too. The analysis folds the resolved operands into its
// dataflow state and maps the resolver's typed errors to Problems, so a flow
// the analysis accepts runs on the simulator, a flow it proves facts about
// behaves as those facts say, and an operand it rejects the simulator rejects
// with the same diagnosis.
package flowdata

import (
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
)

// Rule names of the flow/* catalog. internal/irverify aliases these so the
// stable identifiers tests and `cimmlc vet` match on live in one place; the
// ones an operand alone can break are the resolver's.
const (
	RuleStructure    = codegen.RuleStructure
	RuleEndpoint     = codegen.RuleEndpoint
	RuleUnknownNode  = codegen.RuleUnknownNode
	RuleUseBeforeDef = "flow/use-before-def"
	RuleUnprogrammed = codegen.RuleUnprogrammed
	RuleRegionBounds = codegen.RuleRegionBounds
	RuleScratchLap   = codegen.RuleScratchLap
	RuleParallel     = "flow/parallel-conflict"
	RuleOutputUndef  = "flow/output-undefined"
	RuleDeadMOP      = "flow/dead-mop"
	RuleRedundant    = "flow/redundant-transfer"
)

// MaxProblems bounds how many problems one analysis reports: a corrupted
// flow tends to break one rule thousands of times, and the first few are
// what diagnose it.
const MaxProblems = 64

// Problem is one rule breach found by the analysis.
type Problem struct {
	Rule string
	Node int // graph node ID, or -1 when not node-specific
	Msg  string
}

func (p Problem) String() string {
	if p.Node >= 0 {
		return fmt.Sprintf("%s [node %d]: %s", p.Rule, p.Node, p.Msg)
	}
	return fmt.Sprintf("%s: %s", p.Rule, p.Msg)
}

// Region is one contiguous slice of the flat buffer space: a node's output
// or a CIM node's gather scratch. Node regions are always pairwise
// disjoint; scratch regions alias each other in codegen's shared arena,
// which is legal exactly when no two CIM nodes consume the same gathered
// words — the word-level owner attribution in the forward pass checks that.
type Region struct {
	codegen.Region

	defined int64 // words of this region defined so far (forward state)
}

// Instr is one leaf operation of the flattened flow. Members of a
// cim.parallel group share a Group id; top-level ops have Group -1.
type Instr struct {
	Op    mop.Op
	Sec   string // "init" or "body"
	Group int
}

// Interval is a closed live range over instruction indices. First == -1
// means the region is never accessed.
type Interval struct {
	First, Last int
}

func (iv Interval) Live() bool { return iv.First >= 0 }

// Analysis is the queryable dataflow artifact of one flow.
type Analysis struct {
	// Problems is the flow-sensitive verification outcome: the flow/* rule
	// breaches found, a dead MOP or a redundant transfer included. All
	// other fields are meaningful only when Problems is empty and Truncated
	// is false.
	Problems  []Problem
	Truncated bool

	// Instrs is the flattened instruction stream in execution order: the
	// init section, then the body, parallel groups inlined member by
	// member (the order funcsim executes them).
	Instrs []Instr
	// Regions lists every buffer region, node regions and scratch, sorted
	// by base address.
	Regions []*Region

	// Operands holds what each instruction touches (parallel to Instrs), as
	// the resolver funcsim compiles its kernels from resolved it. A weight
	// write touches no buffer word: its entry is zero.
	Operands []codegen.Operands

	// Dead marks instructions whose only effect is writing scratch words
	// no later instruction reads; deleting them cannot change any node
	// output. Redundant marks top-level transfers that re-move data an
	// identical earlier transfer already moved from an unchanged source.
	// Each is also a problem (flow/dead-mop, flow/redundant-transfer).
	Dead      []bool
	Redundant []bool

	// Intervals holds region live ranges (parallel to Regions) over
	// instruction indices, with Dead and Redundant instructions excluded.
	// Graph-input regions start live at 0 (preloaded); graph-output
	// regions stay live through the end of the flow.
	Intervals []Interval

	// PeakLiveScratchWords is the maximum, over the instruction timeline,
	// of the summed sizes of simultaneously live scratch regions.
	PeakLiveScratchWords int64
	// PeakLiveRegions is the maximum number of simultaneously live buffer
	// regions (node outputs and scratch).
	PeakLiveRegions int
	// PeakLiveCrossbars is the maximum number of crossbars holding a
	// programming that still has reads ahead of it.
	PeakLiveCrossbars int
	// TransferWords totals the words moved by DMOV operators (mov and
	// mov_window), the flow's static data-movement volume.
	TransferWords int64
	// Pressure is the live-range pressure histogram: Pressure[b] counts
	// the instructions whose live-region count falls in bucket b of
	// PressureBuckets.
	Pressure [len(PressureBuckets)]int64

	arch *arch.Arch
	g    *graph.Graph
}

// PressureBuckets labels the live-range pressure histogram: bucket b
// counts instructions with a live-region count in the named range.
var PressureBuckets = [...]string{"0", "1", "2", "3-4", "5-8", "9-16", "17-32", "33+"}

// pressureBucket maps a live-region count to its histogram bucket.
func pressureBucket(n int) int {
	switch {
	case n <= 2:
		return n
	case n <= 4:
		return 3
	case n <= 8:
		return 4
	case n <= 16:
		return 5
	case n <= 32:
		return 6
	default:
		return 7
	}
}

// DeadCount and RedundantCount total the removable instructions.
func (an *Analysis) DeadCount() int      { return countTrue(an.Dead) }
func (an *Analysis) RedundantCount() int { return countTrue(an.Redundant) }

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// Build analyzes one generated flow against its layout. Truncated flows
// (MaxWindowsPerOp) are not executable by design and analyze vacuously. The
// graph must be shape-inferred; callers pass the graph codegen consumed, which
// Build only reads.
func Build(g *graph.Graph, a *arch.Arch, fr *codegen.Result) *Analysis {
	an := &Analysis{arch: a, g: g}
	if fr == nil || fr.Flow == nil || fr.Layout == nil {
		an.Problems = []Problem{{Rule: RuleStructure, Node: -1, Msg: "nil flow result"}}
		return an
	}
	if fr.Truncated {
		an.Truncated = true
		return an
	}
	if err := fr.Flow.Validate(); err != nil {
		an.Problems = []Problem{{Rule: RuleStructure, Node: -1, Msg: err.Error()}}
		return an
	}
	m := newMachine(g, a, fr.Layout)
	if len(m.problems) > 0 {
		an.Problems = m.problems // the region map itself is broken; op checks would cascade
		an.Regions = m.regions
		return an
	}
	m.section(fr.Flow.Init, "init")
	m.section(fr.Flow.Body, "body")
	if !m.full() {
		for _, id := range g.Outputs() {
			if r := m.nodeRegion(id); r.defined != r.Size {
				m.report(RuleOutputUndef, id, "output region has %d of %d words undefined when the flow ends", r.Size-r.defined, r.Size)
			}
		}
	}
	an.Problems = m.problems
	an.Instrs = m.instrs
	an.Regions = m.regions
	if len(an.Problems) > 0 {
		return an
	}
	an.Operands = m.effects
	an.Redundant = m.redundant
	an.TransferWords = m.transferWords
	m.backwardLiveness(an)
	m.liveRanges(an)
	m.crossbarPressure(an)
	for i, in := range an.Instrs {
		switch {
		case len(an.Problems) >= MaxProblems:
			return an
		case an.Dead[i]:
			an.Problems = append(an.Problems, Problem{RuleDeadMOP, -1, fmt.Sprintf("instr %d writes scratch no later instruction reads: %s", i, in.Op)})
		case an.Redundant[i]:
			an.Problems = append(an.Problems, Problem{RuleRedundant, -1, fmt.Sprintf("instr %d re-transfers unchanged data an identical earlier transfer moved: %s", i, in.Op)})
		}
	}
	return an
}
