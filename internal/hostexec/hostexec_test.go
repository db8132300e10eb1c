package hostexec

import (
	"context"
	"sync"
	"testing"

	"cimmlc/internal/graph"
	"cimmlc/internal/tensor"
)

func testGraph() (*graph.Graph, graph.Weights) {
	g := graph.NewBuilder("host", 16).
		Dense(8).Sigmoid().Tanh().
		MustFinish()
	return g, graph.RandomWeights(g, 3)
}

func testInput(g *graph.Graph, seed uint64) map[int]*tensor.Tensor {
	in := map[int]*tensor.Tensor{}
	for _, id := range g.InputIDs() {
		t := tensor.New(g.MustNode(id).OutShape...)
		t.Rand(seed, 1)
		in[id] = t
	}
	return in
}

// TestRunMatchesReference pins hostexec to the reference executor exactly —
// same kernels, so bit-identical.
func TestRunMatchesReference(t *testing.T) {
	g, w := testGraph()
	p := Compile(g, w)
	in := testInput(g, 1)
	got, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.Execute(g, w, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.g.Nodes {
		if !tensor.AllClose(got[n.ID], want[n.ID], 0) {
			t.Errorf("node %d (%s): hostexec diverges from reference", n.ID, n.Op)
		}
	}
}

// TestConcurrentRuns exercises the data-race hazard the package exists to
// avoid: many Runs over one shared Program (meaningful under -race).
func TestConcurrentRuns(t *testing.T) {
	g, w := testGraph()
	p := Compile(g, w)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := p.Run(context.Background(), testInput(g, seed)); err != nil {
				t.Error(err)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
}

func TestRunCancellation(t *testing.T) {
	g, w := testGraph()
	p := Compile(g, w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, testInput(g, 1)); err == nil {
		t.Fatal("run completed under a cancelled context")
	}
}

func TestOpsEstimate(t *testing.T) {
	g, _ := testGraph()
	ops := Ops(g)
	// dense 16→8: 8·2·16 = 256; sigmoid + tanh: 8·8 each.
	if want := int64(256 + 64 + 64); ops != want {
		t.Errorf("Ops = %d, want %d", ops, want)
	}
}
