package graph

import "fmt"

// InferShapes validates g, then fills every node's OutShape from the input
// nodes' shapes (InferValidShapes). It returns an error on any structural
// fault or shape incompatibility. Shapes use the conventions of
// internal/tensor: feature maps are [C,H,W], token matrices
// [tokens,features], vectors [n].
func (g *Graph) InferShapes() error {
	if err := g.Validate(); err != nil {
		return err
	}
	return g.InferValidShapes()
}

// InferValidShapes is InferShapes for a graph its caller has validated
// (Validate): it walks the nodes in topological order without checking the
// structure again. A node's shape is written into the OutShape it already
// holds when that has room for the rank (a graph that was inferred before, or
// a Clone of one, allocates nothing), so no two nodes may share OutShape
// storage.
func (g *Graph) InferValidShapes() error {
	for _, n := range g.Nodes {
		if err := g.inferValid(n); err != nil {
			return err
		}
	}
	return nil
}

// inferValid is InferValidShapes' step for one node, whose inputs' shapes
// are already inferred.
func (g *Graph) inferValid(n *Node) error {
	if n.Op == OpInput {
		if len(n.OutShape) == 0 {
			return fmt.Errorf("graph %q: input %q has no shape", g.Name, n.Name)
		}
		return nil
	}
	shape, err := g.inferNode(n, n.OutShape[:0])
	if err != nil {
		return fmt.Errorf("graph %q: node %q (%s): %w", g.Name, n.Name, n.Op, err)
	}
	n.OutShape = shape
	return nil
}

// inferNode appends n's output shape to dst. dst may be n's own OutShape: the
// inputs' shapes are read from other nodes only.
func (g *Graph) inferNode(n *Node, dst []int) ([]int, error) {
	var buf [2][]int // every op but Concat takes at most two inputs
	in := buf[:0]
	for _, id := range n.Inputs {
		s := g.Nodes[id].OutShape
		if len(s) == 0 {
			return nil, fmt.Errorf("input node %d has no inferred shape", id)
		}
		in = append(in, s)
	}
	switch n.Op {
	case OpConv:
		return inferConv(dst, in[0], n)
	case OpDense:
		return inferDense(dst, in[0], n)
	case OpMatMul:
		return inferMatMul(dst, in[0], in[1])
	case OpReLU, OpGELU, OpSoftmax, OpLayerNorm, OpIdentity, OpSigmoid, OpTanh:
		return append(dst, in[0]...), nil
	case OpMaxPool, OpAvgPool:
		return inferPool(dst, in[0], n)
	case OpGlobalAvgPool:
		if len(in[0]) != 3 {
			return nil, fmt.Errorf("GlobalAvgPool needs [C,H,W], got %v", in[0])
		}
		return append(dst, in[0][0]), nil
	case OpAdd, OpMul:
		if !equalShape(in[0], in[1]) {
			return nil, fmt.Errorf("%s shape mismatch %v vs %v", n.Op, in[0], in[1])
		}
		return append(dst, in[0]...), nil
	case OpConcat:
		return inferConcat(dst, in, n.Attr.Axis)
	case OpTranspose:
		if len(in[0]) != 2 {
			return nil, fmt.Errorf("Transpose needs rank-2 input, got %v", in[0])
		}
		return append(dst, in[0][1], in[0][0]), nil
	case OpFlatten:
		total := 1
		for _, d := range in[0] {
			total *= d
		}
		return append(dst, total), nil
	}
	return nil, fmt.Errorf("unknown op %q", n.Op)
}

func inferConv(dst, in []int, n *Node) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("Conv input must be [C,H,W], got %v", in)
	}
	outC, inC, kh, kw := n.WeightShape[0], n.WeightShape[1], n.WeightShape[2], n.WeightShape[3]
	if in[0] != inC {
		return nil, fmt.Errorf("Conv channel mismatch: input %d vs weights %d", in[0], inC)
	}
	if kh != n.Attr.KernelH || kw != n.Attr.KernelW {
		return nil, fmt.Errorf("Conv kernel attrs (%d,%d) disagree with weight shape (%d,%d)", n.Attr.KernelH, n.Attr.KernelW, kh, kw)
	}
	outH := (in[1]+2*n.Attr.Padding-kh)/n.Attr.Stride + 1
	outW := (in[2]+2*n.Attr.Padding-kw)/n.Attr.Stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("Conv output empty: input %v kernel (%d,%d) stride %d pad %d", in, kh, kw, n.Attr.Stride, n.Attr.Padding)
	}
	return append(dst, outC, outH, outW), nil
}

func inferDense(dst, in []int, n *Node) ([]int, error) {
	inF, outF := n.WeightShape[0], n.WeightShape[1]
	switch len(in) {
	case 1:
		if in[0] != inF {
			return nil, fmt.Errorf("Dense feature mismatch: input %d vs weights %d", in[0], inF)
		}
		return append(dst, outF), nil
	case 2:
		if in[1] != inF {
			return nil, fmt.Errorf("Dense feature mismatch: input %v vs weights in=%d", in, inF)
		}
		return append(dst, in[0], outF), nil
	default:
		return nil, fmt.Errorf("Dense input must be [n] or [tokens,n], got %v", in)
	}
}

func inferMatMul(dst, a, b []int) ([]int, error) {
	if len(a) != 2 || len(b) != 2 {
		return nil, fmt.Errorf("MatMul needs rank-2 inputs, got %v and %v", a, b)
	}
	if a[1] != b[0] {
		return nil, fmt.Errorf("MatMul inner dimension mismatch %v vs %v", a, b)
	}
	return append(dst, a[0], b[1]), nil
}

func inferPool(dst, in []int, n *Node) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("pool input must be [C,H,W], got %v", in)
	}
	k, s := n.Attr.KernelH, n.Attr.Stride
	outH := (in[1]-k)/s + 1
	outW := (in[2]-k)/s + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("pool output empty for input %v kernel %d stride %d", in, k, s)
	}
	return append(dst, in[0], outH, outW), nil
}

func inferConcat(dst []int, in [][]int, axis int) ([]int, error) {
	base := append(dst, in[0]...)
	if axis < 0 || axis >= len(base) {
		return nil, fmt.Errorf("Concat axis %d out of range for %v", axis, base)
	}
	for _, s := range in[1:] {
		if len(s) != len(base) {
			return nil, fmt.Errorf("Concat rank mismatch %v vs %v", base, s)
		}
		for d := range s {
			if d == axis {
				continue
			}
			if s[d] != base[d] {
				return nil, fmt.Errorf("Concat non-axis dimension mismatch %v vs %v", base, s)
			}
		}
		base[axis] += s[axis]
	}
	return base, nil
}

func cloneShape(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

func equalShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumElements returns the element count of a shape.
func NumElements(shape []int) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}

// MVMCount returns the number of matrix-vector products a CIM-supported node
// performs for one inference: the sliding-window count for convolutions
// (outH×outW), the token count for token-matrix Dense layers, and 1 for
// vector Dense layers. It returns 0 for non-CIM nodes. Shapes must have been
// inferred first.
func (n *Node) MVMCount() int64 {
	switch n.Op {
	case OpConv:
		if len(n.OutShape) == 3 {
			return int64(n.OutShape[1]) * int64(n.OutShape[2])
		}
	case OpDense:
		if len(n.OutShape) == 2 {
			return int64(n.OutShape[0])
		}
		if len(n.OutShape) == 1 {
			return 1
		}
	}
	return 0
}

// WeightMatrixDims returns the (rows, cols) of the weight matrix a
// CIM-supported node programs into crossbars: Conv lowers to
// [inC·kH·kW, outC], Dense to [in, out]. ok is false for other ops.
func (n *Node) WeightMatrixDims() (rows, cols int, ok bool) {
	switch n.Op {
	case OpConv:
		return n.WeightShape[1] * n.WeightShape[2] * n.WeightShape[3], n.WeightShape[0], true
	case OpDense:
		return n.WeightShape[0], n.WeightShape[1], true
	}
	return 0, 0, false
}
