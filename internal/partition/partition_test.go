package partition

import (
	"reflect"
	"testing"

	"cimmlc/internal/graph"
	"cimmlc/internal/perfsim"
)

// allCIM builds input→conv→relu→flatten→dense.
func allCIM() *graph.Graph {
	return graph.NewBuilder("allcim", 3, 8, 8).
		Conv(4, 3, 1, 1).ReLU().Flatten().Dense(10).
		MustFinish()
}

// allHost builds input→sigmoid→tanh (no weighted node anywhere, so the
// whole graph folds onto the host).
func allHost() *graph.Graph {
	return graph.NewBuilder("allhost", 16).
		Sigmoid().Tanh().
		MustFinish()
}

// alternating builds dense→sigmoid→dense→tanh→dense: CIM/host runs strictly
// alternate.
func alternating() *graph.Graph {
	return graph.NewBuilder("alternating", 32).
		Dense(16).Sigmoid().Dense(16).Tanh().Dense(8).
		MustFinish()
}

// diamond builds a gated diamond: relu feeds both a sigmoid branch and a
// Mul join, cutting one producer into two consumer subgraphs.
func diamond() *graph.Graph {
	b := graph.NewBuilder("diamond", 3, 8, 8).
		Conv(4, 3, 1, 1).ReLU()
	trunk := b.Last
	gate := b.Sigmoid().Last
	b.Last = trunk
	return b.MulFrom(gate).Flatten().Dense(10).MustFinish()
}

type subSummary struct {
	Target  graph.Target
	NodeIDs []int
	Exports []int
}

func summarize(p *Plan) (subs []subSummary, transfers []Transfer) {
	for _, s := range p.Subs {
		subs = append(subs, subSummary{Target: s.Target, NodeIDs: s.NodeIDs, Exports: s.Exports})
	}
	return subs, p.Transfers
}

func TestPartitionShapes(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *graph.Graph
		opts      Options
		wantSubs  []subSummary
		wantXfers []Transfer
	}{
		{
			name:  "all-cim",
			build: allCIM,
			wantSubs: []subSummary{
				{Target: graph.TargetCIM, NodeIDs: []int{0, 1, 2, 3, 4}, Exports: []int{4}},
			},
		},
		{
			name:  "all-host",
			build: allHost,
			wantSubs: []subSummary{
				{Target: graph.TargetHost, NodeIDs: []int{0, 1, 2}, Exports: []int{2}},
			},
		},
		{
			name:  "alternating",
			build: alternating,
			wantSubs: []subSummary{
				{Target: graph.TargetCIM, NodeIDs: []int{0, 1}, Exports: []int{1}},
				{Target: graph.TargetHost, NodeIDs: []int{2}, Exports: []int{1}},
				{Target: graph.TargetCIM, NodeIDs: []int{3}, Exports: []int{1}},
				{Target: graph.TargetHost, NodeIDs: []int{4}, Exports: []int{1}},
				{Target: graph.TargetCIM, NodeIDs: []int{5}, Exports: []int{1}},
			},
			wantXfers: []Transfer{
				{FromNode: 1, FromSub: 0, ToSub: 1, Elems: 16},
				{FromNode: 2, FromSub: 1, ToSub: 2, Elems: 16},
				{FromNode: 3, FromSub: 2, ToSub: 3, Elems: 16},
				{FromNode: 4, FromSub: 3, ToSub: 4, Elems: 16},
			},
		},
		{
			// input(0) conv(1) relu(2) | sigmoid(3) mul(4) | flatten(5) dense(6)
			name:  "diamond",
			build: diamond,
			wantSubs: []subSummary{
				{Target: graph.TargetCIM, NodeIDs: []int{0, 1, 2}, Exports: []int{2}},
				{Target: graph.TargetHost, NodeIDs: []int{3, 4}, Exports: []int{2}},
				{Target: graph.TargetCIM, NodeIDs: []int{5, 6}, Exports: []int{2}},
			},
			wantXfers: []Transfer{
				{FromNode: 2, FromSub: 0, ToSub: 1, Elems: 256},
				{FromNode: 4, FromSub: 1, ToSub: 2, Elems: 256},
			},
		},
		{
			// ForceHost evicts the conv (its Input rides along); the rest
			// stays CIM because the trailing run still owns the dense.
			name:  "force-host-conv",
			build: allCIM,
			opts:  Options{ForceHost: []int{1}},
			wantSubs: []subSummary{
				{Target: graph.TargetHost, NodeIDs: []int{0, 1}, Exports: []int{1}},
				{Target: graph.TargetCIM, NodeIDs: []int{2, 3, 4}, Exports: []int{3}},
			},
			wantXfers: []Transfer{
				{FromNode: 1, FromSub: 0, ToSub: 1, Elems: 256},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			plan, err := Partition(g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			subs, xfers := summarize(plan)
			for i := range tc.wantXfers {
				// The target policy alone keeps every node on one chip: the
				// host link is the only tier a cut edge can cross.
				tc.wantXfers[i].Link = perfsim.HostLink
			}
			if !reflect.DeepEqual(subs, tc.wantSubs) {
				t.Errorf("subgraphs:\n got %+v\nwant %+v", subs, tc.wantSubs)
			}
			if tc.wantXfers == nil {
				if len(xfers) != 0 {
					t.Errorf("unexpected transfers %+v", xfers)
				}
			} else if !reflect.DeepEqual(xfers, tc.wantXfers) {
				t.Errorf("transfers:\n got %+v\nwant %+v", xfers, tc.wantXfers)
			}
			// Every node annotated, matching its subgraph's target.
			for _, s := range plan.Subs {
				for _, gid := range s.NodeIDs {
					if got := plan.Graph.Nodes[gid].Target; got != s.Target {
						t.Errorf("node %d annotated %q inside %s subgraph", gid, got, s.Target)
					}
				}
			}
			// The input graph must not be annotated or otherwise mutated.
			for _, n := range g.Nodes {
				if n.Target != "" {
					t.Errorf("input graph node %d was annotated %q", n.ID, n.Target)
				}
			}
		})
	}
}

// TestPartitionDeterminism re-partitions each fixture and requires deep
// equality of the entire plan — the property the compiler cache and the
// conformance rebuild checks rely on.
func TestPartitionDeterminism(t *testing.T) {
	for _, build := range []func() *graph.Graph{allCIM, allHost, alternating, diamond} {
		g := build()
		p1, err := Partition(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Partition(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Errorf("%s: two partitions of the same graph differ", g.Name)
		}
	}
}

func TestPartitionOptionValidation(t *testing.T) {
	if _, err := Partition(allCIM(), Options{ForceHost: []int{99}}); err == nil {
		t.Error("accepted out-of-range ForceHost ID")
	}
	if _, err := Partition(allCIM(), Options{ForceHost: []int{0}}); err == nil {
		t.Error("accepted Input node in ForceHost")
	}
}

func TestSubWeights(t *testing.T) {
	g := alternating()
	w := graph.RandomWeights(g, 1)
	plan, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, s := range plan.Subs {
		sw := s.SubWeights(w)
		for _, gid := range s.NodeIDs {
			if wt, ok := w[gid]; ok {
				seen++
				if sw[s.LocalOf[gid]] != wt {
					t.Errorf("subgraph %d: weight of node %d not remapped", s.Index, gid)
				}
			}
		}
		if len(sw) != countWeighted(s) {
			t.Errorf("subgraph %d: %d weights for %d weighted nodes", s.Index, len(sw), countWeighted(s))
		}
	}
	if seen != len(w) {
		t.Errorf("only %d of %d weights covered by subgraphs", seen, len(w))
	}
}

func countWeighted(s *Subgraph) int {
	n := 0
	for _, nd := range s.G.Nodes {
		if nd.Op.CIMSupported() {
			n++
		}
	}
	return n
}
