package graph

import (
	"fmt"

	"cimmlc/internal/tensor"
)

// Weights maps a weighted node's ID to its weight tensor (Conv:
// [outC,inC,kH,kW], Dense: [in,out]).
type Weights map[int]*tensor.Tensor

// RandomWeights returns deterministic pseudo-random weights for every
// CIM-supported node, scaled to keep activations numerically tame through
// deep stacks.
func RandomWeights(g *Graph, seed uint64) Weights {
	w := Weights{}
	for _, n := range g.Nodes {
		if !n.Op.CIMSupported() {
			continue
		}
		t := tensor.New(n.WeightShape...)
		fanIn := 1
		for _, d := range n.WeightShape[1:] {
			fanIn *= d
		}
		if n.Op == OpDense {
			fanIn = n.WeightShape[0]
		}
		bound := float32(1)
		if fanIn > 0 {
			bound = 1 / float32(fanIn)
		}
		t.Rand(seed+uint64(n.ID)*7919+1, bound*4)
		w[n.ID] = t
	}
	return w
}

// Execute runs a reference forward pass over the graph using the kernels in
// internal/tensor, returning the output tensor of every node. It is the
// golden model (the paper's PyTorch stand-in) that the functional simulator
// is verified against. g must be shape-inferred (InferShapes); Execute reads
// it and never writes it, so concurrent executions may share one graph.
func Execute(g *Graph, w Weights, inputs map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	vals := make(map[int]*tensor.Tensor, len(g.Nodes))
	for _, n := range g.Nodes {
		out, err := ExecNode(g, n, w, inputs, vals)
		if err != nil {
			return nil, err
		}
		vals[n.ID] = out
	}
	return vals, nil
}

// ExecNode evaluates one node with the reference kernels, reading operand
// tensors from vals (and Input tensors from inputs). It is the single-step
// form of Execute: internal/hostexec drives it in topological order.
func ExecNode(g *Graph, n *Node, w Weights, inputs, vals map[int]*tensor.Tensor) (*tensor.Tensor, error) {
	out, err := executeNode(g, n, w, inputs, vals)
	if err != nil {
		return nil, fmt.Errorf("graph %q: node %q (%s): %w", g.Name, n.Name, n.Op, err)
	}
	return out, nil
}

func executeNode(g *Graph, n *Node, w Weights, inputs, vals map[int]*tensor.Tensor) (*tensor.Tensor, error) {
	if n.Op == OpInput {
		v, ok := inputs[n.ID]
		if !ok {
			return nil, fmt.Errorf("no input tensor provided for node %d", n.ID)
		}
		if v == nil {
			return nil, fmt.Errorf("input tensor for node %d is nil", n.ID)
		}
		want := n.OutShape
		got := v.Shape()
		if !equalShape(want, got) {
			return nil, fmt.Errorf("input tensor shape %v does not match declared %v", got, want)
		}
		return v, nil
	}
	in := make([]*tensor.Tensor, len(n.Inputs))
	for i, id := range n.Inputs {
		v, ok := vals[id]
		if !ok {
			return nil, fmt.Errorf("missing value for input node %d", id)
		}
		in[i] = v
	}
	return n.Kernel(in, w[n.ID])
}

// Kernel runs the node's float reference kernel on already-resolved operand
// tensors; wt is the node's weight tensor (nil for weightless operators). It
// is the one op→kernel table: the reference executor above and the functional
// simulator's digital-compute operators both call it.
func (n *Node) Kernel(in []*tensor.Tensor, wt *tensor.Tensor) (*tensor.Tensor, error) {
	switch n.Op {
	case OpConv:
		if wt == nil {
			return nil, fmt.Errorf("no weights for conv node %d", n.ID)
		}
		return tensor.Conv2D(in[0], wt, nil, tensor.ConvParams{Stride: n.Attr.Stride, Padding: n.Attr.Padding})
	case OpDense:
		if wt == nil {
			return nil, fmt.Errorf("no weights for dense node %d", n.ID)
		}
		if in[0].Rank() == 1 {
			return tensor.VecMat(in[0], wt)
		}
		return tensor.MatMul(in[0], wt)
	case OpMatMul:
		return tensor.MatMul(in[0], in[1])
	case OpReLU:
		return tensor.ReLU(in[0]), nil
	case OpGELU:
		return tensor.GELU(in[0]), nil
	case OpMaxPool:
		return tensor.MaxPool2D(in[0], n.Attr.KernelH, n.Attr.Stride)
	case OpAvgPool:
		return tensor.AvgPool2D(in[0], n.Attr.KernelH, n.Attr.Stride)
	case OpGlobalAvgPool:
		return tensor.GlobalAvgPool(in[0])
	case OpAdd:
		return tensor.Add(in[0], in[1])
	case OpConcat:
		return concatTensors(in, n.Attr.Axis)
	case OpTranspose:
		return tensor.Transpose2D(in[0])
	case OpFlatten:
		return in[0].Reshape(in[0].Len())
	case OpSoftmax:
		return tensor.Softmax(in[0]), nil
	case OpLayerNorm:
		return tensor.LayerNorm(in[0], nil, nil, n.Attr.Eps)
	case OpIdentity:
		return in[0].Clone(), nil
	case OpSigmoid:
		return tensor.Sigmoid(in[0]), nil
	case OpTanh:
		return tensor.Tanh(in[0]), nil
	case OpMul:
		return tensor.Mul(in[0], in[1])
	}
	return nil, fmt.Errorf("unknown op %q", n.Op)
}

func concatTensors(in []*tensor.Tensor, axis int) (*tensor.Tensor, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("concat of zero tensors")
	}
	base := in[0].Shape()
	if axis < 0 || axis >= len(base) {
		return nil, fmt.Errorf("concat axis %d out of range for %v", axis, base)
	}
	outShape := cloneShape(base)
	outShape[axis] = 0
	for _, t := range in {
		s := t.Shape()
		if len(s) != len(base) {
			return nil, fmt.Errorf("concat rank mismatch %v vs %v", base, s)
		}
		for d := range s {
			if d != axis && s[d] != base[d] {
				return nil, fmt.Errorf("concat dimension mismatch %v vs %v", base, s)
			}
		}
		outShape[axis] += s[axis]
	}
	out := tensor.New(outShape...)
	// Treat the tensor as [outer, axisDim, inner] blocks.
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= base[d]
	}
	for d := axis + 1; d < len(base); d++ {
		inner *= base[d]
	}
	pos := 0
	for _, t := range in {
		axisDim := t.Shape()[axis]
		src := t.Data()
		for o := 0; o < outer; o++ {
			dstOff := (o*outShape[axis] + pos) * inner
			srcOff := o * axisDim * inner
			copy(out.Data()[dstOff:dstOff+axisDim*inner], src[srcOff:srcOff+axisDim*inner])
		}
		pos += axisDim
	}
	return out, nil
}
