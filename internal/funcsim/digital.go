package funcsim

import (
	"fmt"

	"cimmlc/internal/graph"
	"cimmlc/internal/tensor"
)

// digitalKernel runs the reference float kernel for a digital node.
func digitalKernel(n *graph.Node, ins []*tensor.Tensor) (*tensor.Tensor, error) {
	switch n.Op {
	case graph.OpReLU:
		return tensor.ReLU(ins[0]), nil
	case graph.OpGELU:
		return tensor.GELU(ins[0]), nil
	case graph.OpAdd:
		return tensor.Add(ins[0], ins[1])
	case graph.OpMaxPool:
		return tensor.MaxPool2D(ins[0], n.Attr.KernelH, n.Attr.Stride)
	case graph.OpAvgPool:
		return tensor.AvgPool2D(ins[0], n.Attr.KernelH, n.Attr.Stride)
	case graph.OpGlobalAvgPool:
		return tensor.GlobalAvgPool(ins[0])
	case graph.OpSoftmax:
		return tensor.Softmax(ins[0]), nil
	case graph.OpLayerNorm:
		return tensor.LayerNorm(ins[0], nil, nil, n.Attr.Eps)
	case graph.OpMatMul:
		return tensor.MatMul(ins[0], ins[1])
	case graph.OpTranspose:
		return tensor.Transpose2D(ins[0])
	case graph.OpConcat:
		return concatKernel(ins, n.Attr.Axis)
	}
	return nil, fmt.Errorf("no digital kernel for %s", n.Op)
}

func concatKernel(ins []*tensor.Tensor, axis int) (*tensor.Tensor, error) {
	// Reuse the reference executor's concat by building a throwaway graph is
	// overkill; re-implement the block copy here.
	base := ins[0].Shape()
	outShape := make([]int, len(base))
	copy(outShape, base)
	outShape[axis] = 0
	for _, t := range ins {
		outShape[axis] += t.Shape()[axis]
	}
	out := tensor.New(outShape...)
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= base[d]
	}
	for d := axis + 1; d < len(base); d++ {
		inner *= base[d]
	}
	pos := 0
	for _, t := range ins {
		ad := t.Shape()[axis]
		for o := 0; o < outer; o++ {
			dstOff := (o*outShape[axis] + pos) * inner
			srcOff := o * ad * inner
			copy(out.Data()[dstOff:dstOff+ad*inner], t.Data()[srcOff:srcOff+ad*inner])
		}
		pos += ad
	}
	return out, nil
}
