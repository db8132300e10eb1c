package cimmlc

import (
	"context"
	"testing"

	"cimmlc/internal/graph"
	"cimmlc/internal/irverify"
)

// TestGeneratedFlowIsLean holds codegen to the flow it is meant to emit, on
// every CIM stage of the executed models (the mixed ones included) over the
// five presets forced to each computing mode: a flow that verifies clean —
// so carries no dead MOP and no redundant transfer — and, in crossbar
// modes, one scratch arena at the end of the node regions, as large as the
// largest operator's gather area; in CM, no scratch at all.
func TestGeneratedFlowIsLean(t *testing.T) {
	ctx := context.Background()
	flows := 0
	for _, model := range append([]string{"conv-relu", "mlp", "lenet5"}, MixedModelNames()...) {
		for _, archName := range Presets() {
			for _, mode := range []Mode{CM, XBM, WLM} {
				g, err := Model(model)
				if err != nil {
					t.Fatal(err)
				}
				a, err := Preset(archName)
				if err != nil {
					t.Fatal(err)
				}
				a.Mode = mode
				c, err := New(a, WithCache(0), WithHostFallback(), WithoutVerifyIR())
				if err != nil {
					t.Fatal(err)
				}
				p, err := c.Build(ctx, g, RandomWeights(g, 1), CodegenOptions{})
				if err != nil {
					t.Fatalf("%s.%s.%s: %v", model, archName, mode, err)
				}
				for i, st := range p.stages {
					if st.fr == nil {
						continue
					}
					flows++
					cell := model + "." + archName + "." + string(mode)
					gc := st.sub.G
					if vs := irverify.VerifyFlow(gc, a, st.fr); len(vs) > 0 {
						t.Errorf("%s stage %d: %d violations, first %s", cell, i, len(vs), vs[0])
					}
					lay := st.fr.Layout
					var nodeWords, arena int64
					for _, r := range lay.Region {
						nodeWords += r.Size
					}
					if len(lay.Scratch) != len(gc.Nodes) {
						t.Fatalf("%s stage %d: scratch table of %d entries for %d nodes", cell, i, len(lay.Scratch), len(gc.Nodes))
					}
					for id, area := range lay.Scratch {
						if gather := mode != CM && gc.Nodes[id].Op.CIMSupported(); gather != (area.Size > 0) || gather && area.Base != nodeWords {
							t.Errorf("%s stage %d: node %d scratch %+v, want the arena at %d for CIM nodes alone, none in CM", cell, i, id, area, nodeWords)
						}
						arena = max(arena, area.Size)
					}
					if lay.Total != nodeWords+arena {
						t.Errorf("%s stage %d: layout of %d words, want %d node words + a %d-word arena", cell, i, lay.Total, nodeWords, arena)
					}
				}
			}
		}
	}
	t.Logf("%d flows", flows)
}

// TestDenseHeadsGatherApart: two dense operators reading one input gather
// identical vectors. Sharing the arena's words, the second gather would
// repeat the first (a redundant transfer) and its reads would consume the
// first operator's gather (a scratch overlap); codegen stacks their areas
// instead, so both flows verify and run bit-exact.
func TestDenseHeadsGatherApart(t *testing.T) {
	ctx := context.Background()
	for _, width := range []int{16, 256} {
		b := graph.NewBuilder("dense-heads", width)
		in := b.Last
		b.Dense(8)
		head := b.Last
		b.Last = in
		b.Dense(8).AddFrom(head)
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		req := map[int]*Tensor{}
		for _, id := range g.InputIDs() {
			req[id] = NewTensor(g.MustNode(id).OutShape...)
			req[id].Rand(3, 1)
		}
		for _, archName := range Presets() {
			for _, mode := range []Mode{XBM, WLM} {
				a, err := Preset(archName)
				if err != nil {
					t.Fatal(err)
				}
				a.Mode = mode
				c, err := New(a, WithCache(0), WithVerifyIR())
				if err != nil {
					t.Fatal(err)
				}
				p, err := c.Build(ctx, g, RandomWeights(g, 1), CodegenOptions{}, WithCalibration(req))
				if err != nil {
					t.Fatalf("width %d %s.%s: %v", width, archName, mode, err)
				}
				if err := p.Verify(ctx, req, 0.05); err != nil {
					t.Errorf("width %d %s.%s: %v", width, archName, mode, err)
				}
			}
		}
	}
}
