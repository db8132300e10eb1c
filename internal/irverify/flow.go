package irverify

import (
	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/flowdata"
	"cimmlc/internal/graph"
)

// VerifyFlow checks the generated meta-operator flow with flow-sensitive
// precision: it runs internal/flowdata's abstract interpretation — the same
// def-use, region and crossbar-programming tracking the optimizer and the
// analyze report consume — and converts its problems to violations. The
// flow/* rules this reports (use-before-def, unprogrammed-read,
// scratch-overlap, region-bounds, endpoint, parallel-conflict,
// output-undefined, …) are exact over the single execution the
// straight-line flow denotes, not syntactic approximations; in particular,
// address-aliased scratch slots (legal after liveness-based slot reuse) are
// accepted as long as no two CIM nodes ever consume the same gathered data.
//
// Truncated flows (MaxWindowsPerOp) are not executable by design and verify
// vacuously. The graph must be shape-inferred; callers pass the same
// private clone codegen consumed.
func VerifyFlow(g *graph.Graph, a *arch.Arch, fr *codegen.Result) []Violation {
	return problemsToViolations(flowdata.Build(g, a, fr).Problems)
}

// VerifyFlowStrict is VerifyFlow plus the advisory dataflow rules promoted
// to violations: flow/dead-mop for transfers whose written scratch no later
// instruction reads, and flow/redundant-transfer for re-transfers of
// unchanged data. The strict tier is what internal/flowopt requires of its
// own output — an optimized flow must have nothing left to delete — and
// what the seeded-corruption fixtures assert. It is not the default
// compilation gate: unoptimized multi-round flows legitimately re-gather
// unchanged data every round.
func VerifyFlowStrict(g *graph.Graph, a *arch.Arch, fr *codegen.Result) []Violation {
	return problemsToViolations(flowdata.Build(g, a, fr).StrictProblems())
}

func problemsToViolations(ps []flowdata.Problem) []Violation {
	if len(ps) == 0 {
		return nil
	}
	vs := make([]Violation, len(ps))
	for i, p := range ps {
		vs[i] = Violation{Rule: p.Rule, Node: p.Node, Msg: p.Msg}
	}
	return vs
}
