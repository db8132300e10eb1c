package models

import (
	"slices"
	"strings"
	"testing"

	"cimmlc/internal/graph"
	"cimmlc/internal/tensor"
)

func TestAllModelsValidateAndInfer(t *testing.T) {
	for _, name := range Names() {
		g, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.InferShapes(); err != nil {
			t.Errorf("model %q fails shape inference: %v", name, err)
		}
		if g.Name != name {
			t.Errorf("model %q reports name %q", name, g.Name)
		}
	}
}

// TestBuilderShapesMatchInferShapes replays every zoo model through a
// Builder node by node and holds the shape the builder infers for each node,
// as it is appended, to what one InferShapes over the finished graph gives.
func TestBuilderShapesMatchInferShapes(t *testing.T) {
	for _, name := range Names() {
		g, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.InferShapes(); err != nil {
			t.Fatal(err)
		}
		b := graph.NewBuilder(name, g.Nodes[0].OutShape...)
		for _, n := range g.Nodes[1:] {
			if n.Op == graph.OpInput {
				b.Last = b.G.AddInput(n.Name, n.OutShape...)
			} else {
				b.Last = b.G.AddNode(n.Name, n.Op, n.Inputs, n.Attr, n.WeightShape)
			}
			if got := b.CurrentShape(); !slices.Equal(got, n.OutShape) {
				_, err := b.Finish()
				t.Fatalf("%s: node %d (%s): builder infers %v, InferShapes %v (%v)", name, n.ID, n.Name, got, n.OutShape, err)
			}
		}
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := Build("alexnet-9000"); err == nil {
		t.Fatal("accepted unknown model")
	}
}

func TestConvReLUMatchesSection34(t *testing.T) {
	g := ConvReLU()
	convs := g.CIMNodeIDs()
	if len(convs) != 1 {
		t.Fatalf("conv-relu has %d CIM nodes, want 1", len(convs))
	}
	n := g.MustNode(convs[0])
	wantW := []int{32, 3, 3, 3}
	for i, d := range wantW {
		if n.WeightShape[i] != d {
			t.Fatalf("conv weights %v, want %v", n.WeightShape, wantW)
		}
	}
	if n.Attr.Stride != 1 || n.Attr.Padding != 1 {
		t.Fatal("conv attrs disagree with §3.4")
	}
	// Output 32×32×32, so 1024 sliding windows.
	if n.MVMCount() != 1024 {
		t.Fatalf("MVMCount = %d, want 1024", n.MVMCount())
	}
}

// Parameter counts cross-checked against the torchvision models (conv+fc
// weights only — biases and affine BN parameters are excluded because the
// IR folds them).
func TestParameterCounts(t *testing.T) {
	cases := []struct {
		name string
		want int64
		tol  float64 // relative tolerance
	}{
		{"resnet18", 11_679_912, 0.02},
		{"resnet34", 21_788_072, 0.02},
		{"resnet50", 25_500_000, 0.03},
		{"resnet101", 44_500_000, 0.03},
		{"vgg16", 138_000_000, 0.03},
		{"vit-base", 86_000_000, 0.05},
	}
	for _, c := range cases {
		g, err := Build(c.name)
		if err != nil {
			t.Fatal(err)
		}
		got := g.WeightCount()
		lo := float64(c.want) * (1 - c.tol)
		hi := float64(c.want) * (1 + c.tol)
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("%s weight count = %d, want %d ±%.0f%%", c.name, got, c.want, c.tol*100)
		}
	}
}

func TestVGG16LayerStructure(t *testing.T) {
	g := VGG16()
	convs, denses := 0, 0
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpConv:
			convs++
		case graph.OpDense:
			denses++
		}
	}
	if convs != 13 || denses != 3 {
		t.Fatalf("VGG16 has %d convs and %d denses, want 13 and 3", convs, denses)
	}
	// Final feature map must be 512×7×7 before the classifier.
	for _, n := range g.Nodes {
		if n.Op == graph.OpFlatten {
			if in := g.MustNode(n.Inputs[0]); !equalInts(in.OutShape, []int{512, 7, 7}) {
				t.Fatalf("pre-flatten shape %v, want [512 7 7]", in.OutShape)
			}
		}
	}
}

func TestVGG7Structure(t *testing.T) {
	g := VGG7()
	convs, denses := 0, 0
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpConv:
			convs++
		case graph.OpDense:
			denses++
		}
	}
	if convs != 6 || denses != 2 {
		t.Fatalf("VGG7 has %d convs and %d denses, want 6 and 2", convs, denses)
	}
}

func TestResNetBlockCounts(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		convs int
	}{
		// torchvision conv counts including projection shortcuts:
		// R18: 17+3proj, R34: 33+3proj, R50: 49+4proj, R101: 100+4proj.
		{ResNet18(), 20},
		{ResNet34(), 36},
		{ResNet50(), 53},
		{ResNet101(), 104},
	}
	for _, c := range cases {
		convs := 0
		for _, n := range c.g.Nodes {
			if n.Op == graph.OpConv {
				convs++
			}
		}
		if convs != c.convs {
			t.Errorf("%s has %d convs, want %d", c.g.Name, convs, c.convs)
		}
	}
}

func TestResNet18Shapes(t *testing.T) {
	g := ResNet18()
	// Stage output channel progression 64→128→256→512 and the head.
	last := g.Nodes[len(g.Nodes)-1]
	if last.Op != graph.OpDense || last.WeightShape[1] != 1000 {
		t.Fatalf("final node %v, want Dense→1000", last)
	}
	gapSeen := false
	for _, n := range g.Nodes {
		if n.Op == graph.OpGlobalAvgPool {
			gapSeen = true
			if in := g.MustNode(n.Inputs[0]); !equalInts(in.OutShape, []int{512, 7, 7}) {
				t.Fatalf("pre-GAP shape %v, want [512 7 7]", in.OutShape)
			}
		}
	}
	if !gapSeen {
		t.Fatal("no GlobalAvgPool in ResNet18")
	}
}

func TestResNetHasResiduals(t *testing.T) {
	g := ResNet18()
	adds := 0
	for _, n := range g.Nodes {
		if n.Op == graph.OpAdd {
			adds++
		}
	}
	if adds != 8 { // 2 blocks × 4 stages
		t.Fatalf("ResNet18 has %d residual adds, want 8", adds)
	}
}

func TestViTStructure(t *testing.T) {
	g := ViTBase()
	denses, matmuls, lns := 0, 0, 0
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpDense:
			denses++
		case graph.OpMatMul:
			matmuls++
		case graph.OpLayerNorm:
			lns++
		}
	}
	// Patch embed + 12 × (Q,K,V,O,fc1,fc2) + head = 1 + 72 + 1.
	if denses != 74 {
		t.Fatalf("ViT-Base has %d denses, want 74", denses)
	}
	if matmuls != 24 { // 2 per block
		t.Fatalf("ViT-Base has %d matmuls, want 24", matmuls)
	}
	if lns != 25 { // 2 per block + final
		t.Fatalf("ViT-Base has %d layernorms, want 25", lns)
	}
	// §4.4.2: numerous matrices with row size 768.
	count768 := 0
	for _, id := range g.CIMNodeIDs() {
		r, _, _ := g.MustNode(id).WeightMatrixDims()
		if r == 768 {
			count768++
		}
	}
	if count768 < 48 {
		t.Fatalf("only %d weight matrices with 768 rows", count768)
	}
}

func TestViTExecutes(t *testing.T) {
	// A forward pass of the tiny variant exercises the full attention
	// wiring (transpose, matmuls, softmax, residuals).
	g := ViTTiny()
	w := graph.RandomWeights(g, 42)
	in := tensor.New(196, 768)
	in.Rand(43, 1)
	vals, err := graph.Execute(g, w, map[int]*tensor.Tensor{0: in})
	if err != nil {
		t.Fatal(err)
	}
	out := vals[g.Outputs()[0]]
	if out.Len() != 196*1000 {
		t.Fatalf("ViT output length %d, want 196000", out.Len())
	}
}

func TestLeNetAndMLPExecute(t *testing.T) {
	for _, name := range []string{"lenet5", "mlp"} {
		g, _ := Build(name)
		w := graph.RandomWeights(g, 7)
		var in *tensor.Tensor
		if strings.HasPrefix(name, "lenet") {
			in = tensor.New(1, 28, 28)
		} else {
			in = tensor.New(784)
		}
		in.Rand(8, 1)
		vals, err := graph.Execute(g, w, map[int]*tensor.Tensor{0: in})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vals[g.Outputs()[0]].Len() != 10 {
			t.Fatalf("%s output length != 10", name)
		}
	}
}

func TestBuildReturnsFreshCopies(t *testing.T) {
	a, _ := Build("resnet18")
	b, _ := Build("resnet18")
	if a == b {
		t.Fatal("Build returned shared instance")
	}
	a.Nodes[0].Name = "mutated"
	if b.Nodes[0].Name == "mutated" {
		t.Fatal("Build instances share nodes")
	}
}

func equalInts(a, b []int) bool {
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
