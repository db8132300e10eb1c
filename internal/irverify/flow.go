package irverify

import (
	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/flowdata"
	"cimmlc/internal/graph"
)

// VerifyFlow checks the generated meta-operator flow with flow-sensitive
// precision: it runs internal/flowdata's abstract interpretation — the same
// def-use, region and crossbar-programming tracking the analyze report
// consumes — and converts its problems to violations. The flow/* rules this
// reports (use-before-def, unprogrammed-read, scratch-overlap, region-bounds,
// endpoint, parallel-conflict, output-undefined, dead-mop,
// redundant-transfer, …) are exact over the single execution the
// straight-line flow denotes, not syntactic approximations; in particular,
// codegen's shared scratch arena is accepted as long as no two CIM nodes
// ever consume the same gathered data, and a flow that carries a removable
// transfer is rejected.
//
// Truncated flows (MaxWindowsPerOp) are not executable by design and verify
// vacuously. The graph must be shape-inferred; callers pass the same
// private clone codegen consumed.
func VerifyFlow(g *graph.Graph, a *arch.Arch, fr *codegen.Result) []Violation {
	return FlowViolations(flowdata.Build(g, a, fr))
}

// FlowViolations is VerifyFlow over an analysis already built, for a caller
// that keeps the analysis.
func FlowViolations(an *flowdata.Analysis) []Violation {
	ps := an.Problems
	if len(ps) == 0 {
		return nil
	}
	vs := make([]Violation, len(ps))
	for i, p := range ps {
		vs[i] = Violation{Rule: p.Rule, Node: p.Node, Msg: p.Msg}
	}
	return vs
}
