package graph

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func smallConvReluGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("convrelu")
	in := g.AddInput("input", 3, 32, 32)
	conv := g.AddNode("conv", OpConv, []int{in},
		Attr{KernelH: 3, KernelW: 3, Stride: 1, Padding: 1}, []int{32, 3, 3, 3})
	g.AddNode("relu", OpReLU, []int{conv}, Attr{}, nil)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	g := smallConvReluGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("accepted empty graph")
	}
}

func TestValidateRejectsForwardReference(t *testing.T) {
	g := New("bad")
	g.AddInput("in", 4)
	// Manually corrupt: node referencing itself.
	g.Nodes = append(g.Nodes, &Node{ID: 1, Name: "x", Op: OpReLU, Inputs: []int{1}})
	if err := g.Validate(); err == nil {
		t.Fatal("accepted forward/self reference")
	}
}

func TestValidateRejectsBadID(t *testing.T) {
	g := New("bad")
	g.AddInput("in", 4)
	g.Nodes[0].ID = 5
	if err := g.Validate(); err == nil {
		t.Fatal("accepted mismatched ID")
	}
}

func TestValidateRejectsWrongArity(t *testing.T) {
	g := New("bad")
	in := g.AddInput("in", 4)
	g.AddNode("add", OpAdd, []int{in}, Attr{}, nil) // Add needs 2 inputs
	if err := g.Validate(); err == nil {
		t.Fatal("accepted 1-input Add")
	}
}

func TestValidateRejectsConvWithoutWeights(t *testing.T) {
	g := New("bad")
	in := g.AddInput("in", 3, 8, 8)
	g.AddNode("conv", OpConv, []int{in}, Attr{KernelH: 3, KernelW: 3, Stride: 1}, nil)
	if err := g.Validate(); err == nil {
		t.Fatal("accepted conv without weight shape")
	}
}

func TestValidateRejectsUnknownOp(t *testing.T) {
	g := New("bad")
	in := g.AddInput("in", 4)
	g.AddNode("x", Op("Bogus"), []int{in}, Attr{}, nil)
	if err := g.Validate(); err == nil {
		t.Fatal("accepted unknown op")
	}
}

func TestNodeAccessors(t *testing.T) {
	g := smallConvReluGraph(t)
	if _, err := g.Node(99); err == nil {
		t.Fatal("Node accepted out-of-range ID")
	}
	n, err := g.Node(1)
	if err != nil || n.Op != OpConv {
		t.Fatalf("Node(1) = %v, %v", n, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNode did not panic")
		}
	}()
	g.MustNode(-1)
}

func TestConsumersAndOutputs(t *testing.T) {
	g := smallConvReluGraph(t)
	cons := g.Consumers()
	if len(cons[0]) != 1 || cons[0][0] != 1 {
		t.Fatalf("consumers of input = %v", cons[0])
	}
	outs := g.Outputs()
	if len(outs) != 1 || outs[0] != 2 {
		t.Fatalf("outputs = %v, want [2]", outs)
	}
}

func TestInputIDsAndCIMNodeIDs(t *testing.T) {
	g := smallConvReluGraph(t)
	if ids := g.InputIDs(); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("InputIDs = %v", ids)
	}
	if ids := g.CIMNodeIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("CIMNodeIDs = %v", ids)
	}
}

func TestWeightCount(t *testing.T) {
	g := smallConvReluGraph(t)
	if got := g.WeightCount(); got != 32*3*3*3 {
		t.Fatalf("WeightCount = %d, want %d", got, 32*3*3*3)
	}
}

func TestOpClassification(t *testing.T) {
	if !OpConv.CIMSupported() || !OpDense.CIMSupported() {
		t.Fatal("Conv/Dense must be CIM-supported")
	}
	if OpReLU.CIMSupported() || OpMatMul.CIMSupported() {
		t.Fatal("ReLU/MatMul must not be CIM-supported")
	}
	lowerable := CIMLowerableOps()
	// The digital-ALU operators lower to the chip without crossbars.
	for _, op := range []Op{OpReLU, OpGELU, OpMaxPool, OpAvgPool, OpGlobalAvgPool, OpAdd, OpSoftmax, OpLayerNorm, OpMatMul, OpTranspose} {
		if op.CIMSupported() || op.HostOnly() || !slices.Contains(lowerable, op) {
			t.Fatalf("%s should lower to the digital ALU", op)
		}
	}
	for _, op := range []Op{OpSigmoid, OpTanh, OpMul} {
		if !op.HostOnly() || op.CIMSupported() || slices.Contains(lowerable, op) {
			t.Fatalf("%s should be host-only", op)
		}
	}
	if OpConv.HostOnly() || !slices.Contains(lowerable, OpConv) || !slices.Contains(lowerable, OpInput) {
		t.Fatal("Conv/Input must lower to the chip")
	}
}

// Property: any graph built with the Builder validates and has a consistent
// consumer relation (every edge appears exactly once).
func TestBuilderGraphsValidProperty(t *testing.T) {
	f := func(layers uint8, channels uint8) bool {
		nl := int(layers%4) + 1
		ch := int(channels%8) + 1
		b := NewBuilder("prop", 3, 16, 16)
		for i := 0; i < nl; i++ {
			b.Conv(ch*(i+1), 3, 1, 1).ReLU()
		}
		g, err := b.Flatten().Dense(10).Finish()
		if err != nil {
			return false
		}
		edges := 0
		for _, n := range g.Nodes {
			edges += len(n.Inputs)
		}
		consEdges := 0
		for _, c := range g.Consumers() {
			consEdges += len(c)
		}
		return edges == consEdges && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderLatchesInvalidPrefix: the first node the builder cannot infer
// is the one Finish names, in InferShapes' own words, and the chain after it
// stays panic-free.
func TestBuilderLatchesInvalidPrefix(t *testing.T) {
	b := NewBuilder("bad", 3, 4, 4).Conv(8, 7, 1, 0)
	b.ReLU().Conv(8, 3, 1, 1).Flatten().Dense(10)
	_, err := b.Finish()
	want := `graph: builder produced invalid prefix: graph "bad": node "conv_1" (Conv): `
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Finish err = %v, want prefix %q", err, want)
	}
}
