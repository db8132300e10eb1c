// Package hostexec executes graph partitions on the host CPU.
//
// It is the fallback target of the multi-target pipeline: subgraphs the CIM
// stack cannot lower (host-only operators, or nodes evicted by ForceHost)
// compile here into a trivially-scheduled program that replays the reference
// kernels in internal/tensor. The package deliberately has no notion of
// quantisation or crossbars — host maths is float32 end to end, exactly the
// reference semantics the functional simulator is verified against.
package hostexec

import (
	"context"
	"fmt"

	"cimmlc/internal/graph"
	"cimmlc/internal/tensor"
)

// Program is a compiled host subgraph: the graph plus its weights. Run is safe
// for concurrent use — execution never mutates the graph or the weights.
type Program struct {
	g *graph.Graph
	w graph.Weights
}

// Compile prepares a host program for g, which must be shape-inferred (the
// partitioner's subgraphs are) and is kept, not copied: concurrent Runs share
// it read-only.
func Compile(g *graph.Graph, w graph.Weights) *Program {
	return &Program{g: g, w: w}
}

// Run executes one forward pass. inputs maps the graph's Input-node IDs to
// tensors; the result maps every node ID to its output tensor. The context
// is polled between nodes so cancellation interrupts long host chains.
func (p *Program) Run(ctx context.Context, inputs map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	vals := make(map[int]*tensor.Tensor, len(p.g.Nodes))
	for _, n := range p.g.Nodes {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("hostexec: %w", ctx.Err())
		default:
		}
		out, err := graph.ExecNode(p.g, n, p.w, inputs, vals)
		if err != nil {
			return nil, fmt.Errorf("hostexec: %w", err)
		}
		vals[n.ID] = out
	}
	return vals, nil
}

// Ops returns a deterministic scalar-operation estimate for one forward pass
// of g — the host-side analogue of the CIM cost model, used to charge host
// subgraphs in the aggregate performance report. Shapes must be inferred.
func Ops(g *graph.Graph) int64 {
	var total int64
	for _, n := range g.Nodes {
		elems := graph.NumElements(n.OutShape)
		switch n.Op {
		case graph.OpInput, graph.OpIdentity, graph.OpFlatten:
			// data movement only
		case graph.OpConv:
			// 2·inC·kH·kW multiply-accumulates per output element
			k := int64(n.WeightShape[1]) * int64(n.WeightShape[2]) * int64(n.WeightShape[3])
			total += elems * 2 * k
		case graph.OpDense:
			total += elems * 2 * int64(n.WeightShape[0])
		case graph.OpMatMul:
			if len(n.OutShape) == 2 && len(n.Inputs) == 2 {
				inner := graph.NumElements(g.Nodes[n.Inputs[0]].OutShape) / int64(n.OutShape[0])
				total += elems * 2 * inner
			}
		case graph.OpMaxPool, graph.OpAvgPool:
			total += elems * int64(n.Attr.KernelH) * int64(n.Attr.KernelW)
		case graph.OpSoftmax, graph.OpLayerNorm, graph.OpGELU:
			total += elems * 8 // exp/rsqrt-class transcendentals
		case graph.OpSigmoid, graph.OpTanh:
			total += elems * 8
		default:
			total += elems // elementwise: ReLU, Add, Mul, Concat, ...
		}
	}
	return total
}
