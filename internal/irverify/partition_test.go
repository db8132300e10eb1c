package irverify

import (
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/partition"
	"cimmlc/internal/perfsim"
)

func mixedPlan(t *testing.T) *partition.Plan {
	t.Helper()
	g := graph.NewBuilder("mixed", 32).
		Dense(16).Sigmoid().Dense(8).
		MustFinish()
	p, err := partition.Partition(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chipPlan cuts a stack across toy-table2 chips shrunk to one core (each
// Dense(16) occupies one): the chip policy's plan shape, alone on a pure-CIM
// stack or, with gated set, on top of the target policy's cut at a Sigmoid.
func chipPlan(t *testing.T, gated bool) *partition.Plan {
	t.Helper()
	b := graph.NewBuilder("stack", 16).Dense(16)
	if gated {
		b.Sigmoid()
	} else {
		b.ReLU()
	}
	g := b.Dense(16).Dense(16).MustFinish()
	a := arch.ToyExample()
	a.Chip.CoreRows = 1
	p, err := partition.Partition(g, partition.Options{Chip: a})
	if err != nil {
		t.Fatal(err)
	}
	if last := p.Subs[len(p.Subs)-1]; last.Chip != 2 || gated != (len(p.Subs) == 4) {
		t.Fatalf("stack cut into %d stages on %d chips, want 3 chips and a host stage only when gated", len(p.Subs), last.Chip+1)
	}
	return p
}

// bothPlans runs check on a fresh plan from each policy, and from both at once.
func bothPlans(t *testing.T, check func(t *testing.T, fresh func() *partition.Plan)) {
	t.Run("host-cut", func(t *testing.T) { check(t, func() *partition.Plan { return mixedPlan(t) }) })
	t.Run("chip-cut", func(t *testing.T) { check(t, func() *partition.Plan { return chipPlan(t, false) }) })
	t.Run("mixed", func(t *testing.T) { check(t, func() *partition.Plan { return chipPlan(t, true) }) })
}

func rules(vs []Violation) string {
	var ss []string
	for _, v := range vs {
		ss = append(ss, v.Rule)
	}
	return strings.Join(ss, ",")
}

func TestVerifyPartitionClean(t *testing.T) {
	bothPlans(t, func(t *testing.T, fresh func() *partition.Plan) {
		if vs := VerifyPartition(fresh()); len(vs) > 0 {
			t.Fatalf("clean plan reported violations: %s", rules(vs))
		}
	})
}

func TestVerifyPartitionCoverage(t *testing.T) {
	bothPlans(t, func(t *testing.T, fresh func() *partition.Plan) {
		p := fresh()
		// Drop a node from its subgraph: coverage must flag it.
		s := p.Subs[0]
		s.NodeIDs = s.NodeIDs[:len(s.NodeIDs)-1]
		vs := VerifyPartition(p)
		if !strings.Contains(rules(vs), RulePartCoverage) {
			t.Fatalf("missing node not flagged; got %s", rules(vs))
		}
	})
}

func TestVerifyPartitionTarget(t *testing.T) {
	p := mixedPlan(t)
	// Flip one node's annotation against its subgraph's target.
	p.Graph.Nodes[p.Subs[0].NodeIDs[0]].Target = graph.TargetHost
	vs := VerifyPartition(p)
	if !strings.Contains(rules(vs), RulePartTarget) {
		t.Fatalf("target mismatch not flagged; got %s", rules(vs))
	}
	// Chips must not go backwards along the plan: an executor per chip runs a
	// run of consecutive stages.
	p = chipPlan(t, true)
	p.Subs[len(p.Subs)-1].Chip = 0
	if vs := VerifyPartition(p); !strings.Contains(rules(vs), RulePartTarget) {
		t.Fatalf("chip order not flagged; got %s", rules(vs))
	}
}

func TestVerifyPartitionHostOnlyOnCIM(t *testing.T) {
	p := mixedPlan(t)
	// Claim the host subgraph is a CIM subgraph: its Sigmoid must be
	// rejected from the accelerator.
	for _, s := range p.Subs {
		if s.Target == graph.TargetHost {
			s.Target = graph.TargetCIM
			for _, gid := range s.NodeIDs {
				p.Graph.Nodes[gid].Target = graph.TargetCIM
			}
		}
	}
	vs := VerifyPartition(p)
	if !strings.Contains(rules(vs), RulePartTarget) {
		t.Fatalf("host-only op on CIM not flagged; got %s", rules(vs))
	}
}

func TestVerifyPartitionCutEdges(t *testing.T) {
	bothPlans(t, func(t *testing.T, fresh func() *partition.Plan) {
		p := fresh()
		dropped := p.Transfers[0]
		p.Transfers = p.Transfers[1:]
		vs := VerifyPartition(p)
		if !strings.Contains(rules(vs), RulePartCut) {
			t.Fatalf("missing transfer not flagged; got %s", rules(vs))
		}

		p2 := fresh()
		dropped.Elems++
		p2.Transfers = append(p2.Transfers, dropped)
		vs = VerifyPartition(p2)
		if !strings.Contains(rules(vs), RulePartCut) {
			t.Fatalf("duplicate/wrong-volume transfer not flagged; got %s", rules(vs))
		}

		// A transfer costed on the tier it does not cross.
		p3 := fresh()
		x := &p3.Transfers[len(p3.Transfers)-1]
		x.Link = map[perfsim.Link]perfsim.Link{perfsim.HostLink: perfsim.ChipLink, perfsim.ChipLink: perfsim.HostLink}[x.Link]
		if vs := VerifyPartition(p3); rules(vs) != RulePartCut {
			t.Fatalf("wrong link tier not flagged alone; got %s", rules(vs))
		}
	})
}

// TestVerifyPartitionLocalMap breaks the local maps one way at a time: an
// entry dropped or pointing elsewhere, and either table cut short.
func TestVerifyPartitionLocalMap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(s *partition.Subgraph)
	}{
		{"local-dropped", func(s *partition.Subgraph) { s.LocalOf[s.NodeIDs[0]] = -1 }},
		{"local-moved", func(s *partition.Subgraph) { s.LocalOf[s.NodeIDs[0]] = s.LocalOf[s.NodeIDs[1]] }},
		{"local-short", func(s *partition.Subgraph) { s.LocalOf = s.LocalOf[:s.NodeIDs[0]] }},
		{"global-short", func(s *partition.Subgraph) { s.GlobalOf = s.GlobalOf[:len(s.GlobalOf)-1] }},
	} {
		p := mixedPlan(t)
		tc.corrupt(p.Subs[0])
		for _, v := range VerifyPartition(p) {
			if v.Rule != RulePartLocal {
				t.Errorf("%s: flagged %s", tc.name, v)
			}
		}
		if vs := VerifyPartition(p); len(vs) == 0 {
			t.Errorf("%s: broken local map not flagged", tc.name)
		}
	}
}
