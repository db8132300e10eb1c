package partition

import (
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/perfsim"
)

// ChipStages splits g into consecutive pipeline stages for multi-chip
// execution: walking the nodes in ID (topological) order, it accumulates a
// stage until adding the next CIM operator would push the stage's crossbar
// footprint past one chip's capacity, then cuts. Every stage therefore
// satisfies the stationary-weights placement constraint on its own chip —
// one copy of every operator resident, no weight reloading — which is
// exactly the per-chip condition cg's segmentation enforces, so each stage
// graph compiles single-segment under core.Options.Stationary.
//
// Input nodes ride with their first consumer's stage; digital (non-CIM)
// operators consume no crossbars and ride with the current stage. The cut
// edges between stages become Transfers on the perf model's chip-link tier.
//
// maxChips bounds the stage count when positive. A graph containing
// host-only operators is rejected — cross-chip pipelining composes with the
// pure-CIM pipeline only. A single operator larger than the whole chip is
// rejected too: node granularity is the finest this pass splits at.
func ChipStages(g *graph.Graph, a *arch.Arch, maxChips int) (*Plan, error) {
	gc := g.Clone()
	if err := gc.InferShapes(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	for _, n := range gc.Nodes {
		if n.Op.HostOnly() {
			return nil, fmt.Errorf("partition: ChipStages: node %d (%s) is host-only; cross-chip pipelining requires a pure-CIM graph", n.ID, n.Op)
		}
	}
	fps, err := mapping.Footprints(gc, a)
	if err != nil {
		return nil, fmt.Errorf("partition: ChipStages: %w", err)
	}
	budget := a.Chip.CoreCount()

	// Greedy stage assignment over non-input nodes in ID order. stageOf is
	// monotonically non-decreasing in node ID, so producers never land in a
	// later stage than their consumers.
	stageOf := make([]int, len(gc.Nodes))
	stage, used := 0, 0
	for _, n := range gc.Nodes {
		if n.Op == graph.OpInput {
			stageOf[n.ID] = -1 // filled from the first consumer below
			continue
		}
		cores := 0
		if f, ok := fps[n.ID]; ok {
			cores = f.CoresPerCopy
			if cores > budget {
				return nil, fmt.Errorf("partition: ChipStages: node %d needs %d cores but one chip has %d; a single operator cannot be split across chips", n.ID, cores, budget)
			}
		}
		if used+cores > budget && used > 0 {
			stage++
			used = 0
		}
		used += cores
		stageOf[n.ID] = stage
	}
	stages := stage + 1
	if maxChips > 0 && stages > maxChips {
		return nil, fmt.Errorf("partition: ChipStages: model needs %d chips but the fleet allows %d", stages, maxChips)
	}

	cons := gc.Consumers()
	for _, n := range gc.Nodes {
		if n.Op != graph.OpInput {
			continue
		}
		stageOf[n.ID] = 0
		if cs := cons[n.ID]; len(cs) > 0 {
			stageOf[n.ID] = stageOf[cs[0]]
		}
	}

	runs := make([]run, stages)
	for i := range runs {
		runs[i].target = graph.TargetCIM
	}
	for id := range gc.Nodes {
		s := stageOf[id]
		runs[s].ids = append(runs[s].ids, id)
	}
	for _, n := range gc.Nodes {
		n.Target = graph.TargetCIM
	}
	return assemble(gc, runs, perfsim.ChipLink)
}
