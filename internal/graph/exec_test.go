package graph

import (
	"math"
	"strings"
	"testing"

	"cimmlc/internal/tensor"
)

func TestExecuteConvRelu(t *testing.T) {
	g := smallConvReluGraph(t)
	w := RandomWeights(g, 1)
	in := tensor.New(3, 32, 32)
	in.Rand(2, 1)
	vals, err := Execute(g, w, map[int]*tensor.Tensor{0: in})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against direct tensor ops.
	conv, err := tensor.Conv2D(in, w[1], nil, tensor.ConvParams{Stride: 1, Padding: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.ReLU(conv)
	if !tensor.AllClose(vals[2], want, 1e-5) {
		t.Fatal("Execute disagrees with direct tensor computation")
	}
	// ReLU output must be non-negative.
	for _, v := range vals[2].Data() {
		if v < 0 {
			t.Fatalf("negative value %v after relu", v)
		}
	}
}

func TestExecuteResidualAdd(t *testing.T) {
	g := New("residual")
	in := g.AddInput("in", 4, 8, 8)
	conv := g.AddNode("conv", OpConv, []int{in},
		Attr{KernelH: 3, KernelW: 3, Stride: 1, Padding: 1}, []int{4, 4, 3, 3})
	g.AddNode("add", OpAdd, []int{conv, in}, Attr{}, nil)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 3)
	x := tensor.New(4, 8, 8)
	x.Rand(4, 1)
	vals, err := Execute(g, w, map[int]*tensor.Tensor{0: x})
	if err != nil {
		t.Fatal(err)
	}
	convOut, _ := tensor.Conv2D(x, w[1], nil, tensor.ConvParams{Stride: 1, Padding: 1})
	want, _ := tensor.Add(convOut, x)
	if !tensor.AllClose(vals[2], want, 1e-5) {
		t.Fatal("residual add wrong")
	}
}

// tensorOf is tensor.FromSlice for literals: a shape error fails the test.
func tensorOf(t *testing.T, data []float32, shape ...int) *tensor.Tensor {
	t.Helper()
	x, err := tensor.FromSlice(data, shape...)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestExecuteDenseVectorAndMatrix(t *testing.T) {
	// Vector path.
	g := New("densevec")
	in := g.AddInput("in", 16)
	g.AddNode("fc", OpDense, []int{in}, Attr{}, []int{16, 4})
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 5)
	x := tensor.New(16)
	x.Rand(6, 1)
	vals, err := Execute(g, w, map[int]*tensor.Tensor{0: x})
	if err != nil {
		t.Fatal(err)
	}
	// y[j] = sum_i x[i] * W[i][j]
	for j := 0; j < 4; j++ {
		sum := float32(0)
		for i := 0; i < 16; i++ {
			sum += x.Data()[i] * w[1].Data()[i*4+j]
		}
		if math.Abs(float64(vals[1].Data()[j]-sum)) > 1e-4 {
			t.Fatalf("dense vector output %d = %v, want %v", j, vals[1].Data()[j], sum)
		}
	}

	// Token-matrix path.
	g2 := New("densemat")
	in2 := g2.AddInput("in", 5, 16)
	g2.AddNode("fc", OpDense, []int{in2}, Attr{}, []int{16, 4})
	if err := g2.InferShapes(); err != nil {
		t.Fatal(err)
	}
	w2 := RandomWeights(g2, 7)
	x2 := tensor.New(5, 16)
	x2.Rand(8, 1)
	vals2, err := Execute(g2, w2, map[int]*tensor.Tensor{0: x2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.MatMul(x2, w2[1])
	if !tensor.AllClose(vals2[1], want, 1e-5) {
		t.Fatal("dense matrix output wrong")
	}
}

func TestExecuteMissingInputErrors(t *testing.T) {
	g := smallConvReluGraph(t)
	w := RandomWeights(g, 1)
	for name, inputs := range map[string]map[int]*tensor.Tensor{"missing": nil, "nil": {0: nil}} {
		if _, err := Execute(g, w, inputs); err == nil || !strings.Contains(err.Error(), "node 0") {
			t.Fatalf("%s input tensor: err = %v, want one naming node 0", name, err)
		}
	}
}

func TestExecuteWrongInputShapeErrors(t *testing.T) {
	g := smallConvReluGraph(t)
	w := RandomWeights(g, 1)
	bad := tensor.New(3, 16, 16)
	if _, err := Execute(g, w, map[int]*tensor.Tensor{0: bad}); err == nil {
		t.Fatal("accepted wrong input shape")
	}
}

func TestExecuteMissingWeightsErrors(t *testing.T) {
	g := smallConvReluGraph(t)
	in := tensor.New(3, 32, 32)
	if _, err := Execute(g, Weights{}, map[int]*tensor.Tensor{0: in}); err == nil {
		t.Fatal("accepted missing weights")
	}
}

func TestExecuteConcatFlattenPipeline(t *testing.T) {
	g := New("cat")
	a := g.AddInput("a", 2, 3)
	b := g.AddInput("b", 2, 3)
	cat := g.AddNode("cat", OpConcat, []int{a, b}, Attr{Axis: 0}, nil)
	g.AddNode("flat", OpFlatten, []int{cat}, Attr{}, nil)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	ta := tensorOf(t, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	tb := tensorOf(t, []float32{7, 8, 9, 10, 11, 12}, 2, 3)
	vals, err := Execute(g, nil, map[int]*tensor.Tensor{0: ta, 1: tb})
	if err != nil {
		t.Fatal(err)
	}
	want := tensorOf(t, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 12)
	if !tensor.AllClose(vals[3], want, 0) {
		t.Fatalf("concat+flatten = %v", vals[3].Data())
	}
}

func TestExecuteConcatAxis1(t *testing.T) {
	g := New("cat1")
	a := g.AddInput("a", 2, 2)
	b := g.AddInput("b", 2, 3)
	g.AddNode("cat", OpConcat, []int{a, b}, Attr{Axis: 1}, nil)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	ta := tensorOf(t, []float32{1, 2, 3, 4}, 2, 2)
	tb := tensorOf(t, []float32{5, 6, 7, 8, 9, 10}, 2, 3)
	vals, err := Execute(g, nil, map[int]*tensor.Tensor{0: ta, 1: tb})
	if err != nil {
		t.Fatal(err)
	}
	want := tensorOf(t, []float32{1, 2, 5, 6, 7, 3, 4, 8, 9, 10}, 2, 5)
	if !tensor.AllClose(vals[2], want, 0) {
		t.Fatalf("axis-1 concat = %v", vals[2].Data())
	}
}

func TestExecuteAttentionFragment(t *testing.T) {
	// Tiny single-head attention: softmax(Q·K^T)·V with Q,K^T,V as inputs.
	g := New("attn")
	q := g.AddInput("q", 4, 8)
	kt := g.AddInput("kt", 8, 4)
	v := g.AddInput("v", 4, 8)
	qk := g.AddNode("qk", OpMatMul, []int{q, kt}, Attr{}, nil)
	sm := g.AddNode("sm", OpSoftmax, []int{qk}, Attr{}, nil)
	g.AddNode("av", OpMatMul, []int{sm, v}, Attr{}, nil)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	tq, tk, tv := tensor.New(4, 8), tensor.New(8, 4), tensor.New(4, 8)
	tq.Rand(1, 1)
	tk.Rand(2, 1)
	tv.Rand(3, 1)
	vals, err := Execute(g, nil, map[int]*tensor.Tensor{0: tq, 1: tk, 2: tv})
	if err != nil {
		t.Fatal(err)
	}
	qkw, _ := tensor.MatMul(tq, tk)
	smw := tensor.Softmax(qkw)
	want, _ := tensor.MatMul(smw, tv)
	if !tensor.AllClose(vals[5], want, 1e-5) {
		t.Fatal("attention fragment wrong")
	}
}

func TestRandomWeightsCoverAllCIMNodes(t *testing.T) {
	b := NewBuilder("zoocheck", 3, 16, 16)
	g := b.Conv(8, 3, 1, 1).ReLU().Conv(16, 3, 2, 1).ReLU().Flatten().Dense(10).MustFinish()
	w := RandomWeights(g, 9)
	for _, id := range g.CIMNodeIDs() {
		wt, ok := w[id]
		if !ok {
			t.Fatalf("no weights for node %d", id)
		}
		ws := wt.Shape()
		ns := g.Nodes[id].WeightShape
		if len(ws) != len(ns) {
			t.Fatalf("weight rank mismatch for node %d", id)
		}
		for i := range ws {
			if ws[i] != ns[i] {
				t.Fatalf("weight shape mismatch for node %d: %v vs %v", id, ws, ns)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := smallConvReluGraph(t)
	data, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes) != len(g.Nodes) || g2.Name != g.Name {
		t.Fatal("round trip changed structure")
	}
	for i := range g.Nodes {
		if g.Nodes[i].Op != g2.Nodes[i].Op || g.Nodes[i].Name != g2.Nodes[i].Name {
			t.Fatalf("node %d changed in round trip", i)
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode([]byte(`{"name":"x","nodes":[]}`)); err == nil {
		t.Fatal("accepted empty graph JSON")
	}
	if _, err := Decode([]byte(`{`)); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := Encode(New("empty")); err == nil {
		t.Fatal("encoded invalid graph")
	}
}
