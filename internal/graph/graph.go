// Package graph defines the DNN computation-graph intermediate representation
// consumed by the CIM-MLC compiler.
//
// The paper ingests ONNX models; this reproduction substitutes a small,
// self-contained IR with the same information content: a DAG of operator
// nodes carrying tensor shapes and operator attributes. Nodes correspond to
// operators and edges to data dependencies (§3.3.1). Shape inference fills in
// every node's output shape from the input shapes so the schedulers can
// compute resource demands (weight-matrix dimensions, sliding-window counts)
// without executing the network.
package graph

import (
	"fmt"
	"sort"
)

// Op identifies an operator type.
type Op string

// Operator types. Conv, Dense and the projection layers inside attention are
// CIM-supported (they own a static weight matrix that can be programmed into
// crossbars); the rest execute on the chip/core digital ALUs (DCOM
// meta-operators) or are pure data movement.
const (
	OpInput         Op = "Input"
	OpConv          Op = "Conv"
	OpDense         Op = "Dense"
	OpMatMul        Op = "MatMul" // dynamic activation×activation product (attention)
	OpReLU          Op = "Relu"
	OpGELU          Op = "Gelu"
	OpMaxPool       Op = "MaxPool"
	OpAvgPool       Op = "AvgPool"
	OpGlobalAvgPool Op = "GlobalAvgPool"
	OpAdd           Op = "Add"
	OpConcat        Op = "Concat"
	OpFlatten       Op = "Flatten"
	OpSoftmax       Op = "Softmax"
	OpLayerNorm     Op = "LayerNorm"
	OpIdentity      Op = "Identity"
	OpTranspose     Op = "Transpose" // 2-D transpose (attention K^T)

	// Host-only operators: no CIM lowering exists for them (no crossbar
	// mapping and no digital-ALU meta-operator), so they execute on the host
	// CPU via internal/hostexec. Compiling a graph that contains one requires
	// cimmlc.WithHostFallback, which partitions the graph around them.
	OpSigmoid Op = "Sigmoid"
	OpTanh    Op = "Tanh"
	OpMul     Op = "Mul" // elementwise product (gating)
)

// CIMSupported reports whether the operator owns a static weight matrix that
// maps onto CIM crossbars (the paper's "CIM-supported operator").
func (o Op) CIMSupported() bool {
	return o == OpConv || o == OpDense
}

// HostOnly reports whether the operator has no CIM lowering at all — neither
// a crossbar mapping nor a digital-ALU meta-operator — and must execute on
// the host CPU. Graphs containing host-only operators compile only under
// host fallback, which partitions them around the accelerator.
func (o Op) HostOnly() bool {
	switch o {
	case OpSigmoid, OpTanh, OpMul:
		return true
	}
	return false
}

// CIMLowerableOps lists every operator the CIM pipeline can lower (all known
// ops except the host-only ones), sorted — the "supported op set" quoted by
// the unsupported-op compile error.
func CIMLowerableOps() []Op {
	ops := []Op{
		OpInput, OpConv, OpDense, OpMatMul, OpReLU, OpGELU, OpMaxPool,
		OpAvgPool, OpGlobalAvgPool, OpAdd, OpConcat, OpFlatten, OpSoftmax,
		OpLayerNorm, OpIdentity, OpTranspose,
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// Target names the execution target a node is assigned to by the
// partitioning pass: the CIM accelerator or the host CPU. The empty string
// means "not yet assigned" (a monolithic, unpartitioned compilation).
type Target string

// Execution targets.
const (
	TargetCIM  Target = "cim"
	TargetHost Target = "host"
)

// Attr carries the per-operator attributes. Zero values mean "not
// applicable"; Validate for each op checks the fields it needs.
type Attr struct {
	KernelH int     `json:"kernel_h,omitempty"`
	KernelW int     `json:"kernel_w,omitempty"`
	Stride  int     `json:"stride,omitempty"`
	Padding int     `json:"padding,omitempty"`
	Axis    int     `json:"axis,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
}

// Node is one operator in the graph. ID equals the node's index in
// Graph.Nodes. Inputs lists producer node IDs in argument order.
type Node struct {
	ID          int    `json:"id"`
	Name        string `json:"name"`
	Op          Op     `json:"op"`
	Inputs      []int  `json:"inputs"`
	Attr        Attr   `json:"attr"`
	WeightShape []int  `json:"weight_shape,omitempty"`
	OutShape    []int  `json:"out_shape,omitempty"`
	// Target is the execution-target annotation written by the partitioning
	// pass (internal/partition); empty on unpartitioned graphs, so the JSON
	// encoding of monolithic graphs is unchanged.
	Target Target `json:"target,omitempty"`
}

// Graph is a DAG of operator nodes. Nodes must be stored in a valid
// topological order (producers before consumers), which the builders in this
// package and in internal/models guarantee and Validate enforces.
type Graph struct {
	Name  string  `json:"name"`
	Nodes []*Node `json:"nodes"`
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddInput appends an input node with the given tensor shape and returns its ID.
func (g *Graph) AddInput(name string, shape ...int) int {
	s := make([]int, len(shape))
	copy(s, shape)
	n := &Node{ID: len(g.Nodes), Name: name, Op: OpInput, OutShape: s}
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// AddNode appends an operator node and returns its ID. Inputs must reference
// already-added nodes.
func (g *Graph) AddNode(name string, op Op, inputs []int, attr Attr, weightShape []int) int {
	in := make([]int, len(inputs))
	copy(in, inputs)
	var ws []int
	if weightShape != nil {
		ws = make([]int, len(weightShape))
		copy(ws, weightShape)
	}
	n := &Node{ID: len(g.Nodes), Name: name, Op: op, Inputs: in, Attr: attr, WeightShape: ws}
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// Node returns the node with the given ID, or an error if out of range.
func (g *Graph) Node(id int) (*Node, error) {
	if id < 0 || id >= len(g.Nodes) {
		return nil, fmt.Errorf("graph %q: node id %d out of range [0,%d)", g.Name, id, len(g.Nodes))
	}
	return g.Nodes[id], nil
}

// MustNode is Node but panics on a bad ID; for internal traversals that have
// already validated the graph.
func (g *Graph) MustNode(id int) *Node {
	n, err := g.Node(id)
	if err != nil {
		panic(err)
	}
	return n
}

// Validate checks structural invariants: IDs match indices, inputs reference
// earlier nodes (topological order), input nodes have no inputs, non-input
// nodes have the right arity, and weighted ops carry weight shapes.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("graph %q: empty", g.Name)
	}
	for i := range g.Nodes {
		if err := g.validateNode(i); err != nil {
			return err
		}
	}
	return nil
}

// validateNode is Validate's check of node i alone.
func (g *Graph) validateNode(i int) error {
	n := g.Nodes[i]
	if n == nil {
		return fmt.Errorf("graph %q: nil node at %d", g.Name, i)
	}
	if n.ID != i {
		return fmt.Errorf("graph %q: node %q has ID %d at index %d", g.Name, n.Name, n.ID, i)
	}
	for _, in := range n.Inputs {
		if in < 0 || in >= i {
			return fmt.Errorf("graph %q: node %q input %d violates topological order", g.Name, n.Name, in)
		}
	}
	if err := n.validateArity(); err != nil {
		return fmt.Errorf("graph %q: %w", g.Name, err)
	}
	return nil
}

// arity gives every operator's {min, max} input count.
var arity = map[Op][2]int{
	OpInput:         {0, 0},
	OpConv:          {1, 1},
	OpDense:         {1, 1},
	OpMatMul:        {2, 2},
	OpReLU:          {1, 1},
	OpGELU:          {1, 1},
	OpMaxPool:       {1, 1},
	OpAvgPool:       {1, 1},
	OpGlobalAvgPool: {1, 1},
	OpAdd:           {2, 2},
	OpConcat:        {2, 1 << 20},
	OpFlatten:       {1, 1},
	OpSoftmax:       {1, 1},
	OpLayerNorm:     {1, 1},
	OpIdentity:      {1, 1},
	OpTranspose:     {1, 1},
	OpSigmoid:       {1, 1},
	OpTanh:          {1, 1},
	OpMul:           {2, 2},
}

func (n *Node) validateArity() error {
	a, ok := arity[n.Op]
	if !ok {
		return fmt.Errorf("node %q: unknown op %q", n.Name, n.Op)
	}
	if len(n.Inputs) < a[0] || len(n.Inputs) > a[1] {
		return fmt.Errorf("node %q (%s): has %d inputs, want [%d,%d]", n.Name, n.Op, len(n.Inputs), a[0], a[1])
	}
	switch n.Op {
	case OpConv:
		if len(n.WeightShape) != 4 {
			return fmt.Errorf("node %q: Conv weight shape must be [outC,inC,kH,kW], got %v", n.Name, n.WeightShape)
		}
		if n.Attr.Stride <= 0 {
			return fmt.Errorf("node %q: Conv stride must be positive", n.Name)
		}
	case OpDense:
		if len(n.WeightShape) != 2 {
			return fmt.Errorf("node %q: Dense weight shape must be [in,out], got %v", n.Name, n.WeightShape)
		}
	case OpMaxPool, OpAvgPool:
		if n.Attr.KernelH <= 0 || n.Attr.Stride <= 0 {
			return fmt.Errorf("node %q: pool needs positive kernel and stride", n.Name)
		}
	default:
		if len(n.WeightShape) != 0 && !n.Op.CIMSupported() {
			return fmt.Errorf("node %q (%s): unexpected weight shape %v", n.Name, n.Op, n.WeightShape)
		}
	}
	return nil
}

// Consumers returns, for every node ID, the IDs of the nodes that consume its
// output, in ascending order.
func (g *Graph) Consumers() [][]int {
	out := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n.ID)
		}
	}
	for _, c := range out {
		sort.Ints(c)
	}
	return out
}

// Outputs returns the IDs of nodes whose output is consumed by no other node
// (the graph's results).
func (g *Graph) Outputs() []int {
	cons := g.Consumers()
	var out []int
	for id, c := range cons {
		if len(c) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// InputIDs returns the IDs of all Input nodes.
func (g *Graph) InputIDs() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Op == OpInput {
			out = append(out, n.ID)
		}
	}
	return out
}

// CIMNodeIDs returns the IDs of all CIM-supported (weight-bearing) nodes in
// topological order.
func (g *Graph) CIMNodeIDs() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Op.CIMSupported() {
			out = append(out, n.ID)
		}
	}
	return out
}

// HostOnlyNodeIDs returns the IDs of all host-only nodes (operators without
// a CIM lowering) in topological order. An empty result means the graph is
// fully CIM-lowerable and compiles monolithically.
func (g *Graph) HostOnlyNodeIDs() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Op.HostOnly() {
			out = append(out, n.ID)
		}
	}
	return out
}

// WeightCount returns the total number of weight elements across all
// CIM-supported nodes.
func (g *Graph) WeightCount() int64 {
	var total int64
	for _, n := range g.Nodes {
		if !n.Op.CIMSupported() {
			continue
		}
		c := int64(1)
		for _, d := range n.WeightShape {
			c *= int64(d)
		}
		total += c
	}
	return total
}

func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%s, %d nodes, %d weights)", g.Name, len(g.Nodes), g.WeightCount())
}
