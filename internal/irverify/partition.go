package irverify

import (
	"fmt"

	"cimmlc/internal/graph"
	"cimmlc/internal/partition"
)

// Partition-soundness rule names. Stable identifiers like the graph/sched/map
// families: the vet CLI and the selftest fixtures quote them verbatim.
const (
	RulePartCoverage = "part/coverage"  // every node in exactly one subgraph
	RulePartTarget   = "part/target"    // node target matches its subgraph; host-only never on CIM; chips in order
	RulePartCut      = "part/cut-edge"  // transfers exactly at cross-subgraph edges, each on the link it crosses
	RulePartLocal    = "part/local-map" // LocalOf/GlobalOf are consistent inverse maps
)

// VerifyPartition checks the soundness of a partition plan against its
// annotated graph: coverage (every global node appears in exactly one
// subgraph), target consistency (a subgraph's nodes carry its target, no
// host-only operator is assigned to the accelerator, and chips never decrease
// along the plan), cut edges (the transfer list is exactly the set of
// cross-subgraph (producer, consumer subgraph) pairs, each on the link tier
// its endpoints call for), and local-map integrity.
func VerifyPartition(p *partition.Plan) []Violation {
	if p == nil || p.Graph == nil {
		return []Violation{{Rule: RulePartCoverage, Node: -1, Msg: "nil plan"}}
	}
	var vs []Violation
	add := func(rule string, node int, format string, args ...any) {
		if len(vs) < maxViolations {
			vs = append(vs, Violation{Rule: rule, Node: node, Msg: fmt.Sprintf(format, args...)})
		}
	}

	owner := make([]int, len(p.Graph.Nodes))
	for i := range owner {
		owner[i] = -1
	}
	for _, s := range p.Subs {
		for _, gid := range s.NodeIDs {
			if gid < 0 || gid >= len(owner) {
				add(RulePartCoverage, gid, "subgraph %d claims out-of-range node", s.Index)
				continue
			}
			if owner[gid] >= 0 {
				add(RulePartCoverage, gid, "node assigned to subgraphs %d and %d", owner[gid], s.Index)
				continue
			}
			owner[gid] = s.Index
		}
	}
	for id, o := range owner {
		if o < 0 {
			add(RulePartCoverage, id, "node assigned to no subgraph")
		}
	}

	for i, s := range p.Subs {
		if i > 0 && s.Chip < p.Subs[i-1].Chip {
			add(RulePartTarget, -1, "subgraph %d on chip %d follows chip %d", s.Index, s.Chip, p.Subs[i-1].Chip)
		}
		for _, gid := range s.NodeIDs {
			if gid < 0 || gid >= len(p.Graph.Nodes) {
				continue
			}
			n := p.Graph.Nodes[gid]
			if n.Target != s.Target {
				add(RulePartTarget, gid, "node target %q inside %s subgraph %d", n.Target, s.Target, s.Index)
			}
			if s.Target == graph.TargetCIM && n.Op.HostOnly() {
				add(RulePartTarget, gid, "host-only op %s assigned to CIM subgraph %d", n.Op, s.Index)
			}
		}
		// LocalOf/GlobalOf must be mutual inverses covering every real node
		// and every local one.
		if s.G != nil && len(s.GlobalOf) != len(s.G.Nodes) {
			add(RulePartLocal, -1, "subgraph %d: GlobalOf covers %d of %d local nodes", s.Index, len(s.GlobalOf), len(s.G.Nodes))
		}
		for lid, gid := range s.GlobalOf {
			if gid < 0 || gid >= len(s.LocalOf) || s.LocalOf[gid] != lid {
				add(RulePartLocal, gid, "subgraph %d: GlobalOf[%d]=%d but LocalOf inverse missing", s.Index, lid, gid)
			}
		}
		for _, gid := range s.NodeIDs {
			if gid < 0 || gid >= len(s.LocalOf) || s.LocalOf[gid] < 0 {
				add(RulePartLocal, gid, "subgraph %d: real node missing from LocalOf", s.Index)
				continue
			}
			if lid := s.LocalOf[gid]; s.G == nil || lid >= len(s.G.Nodes) {
				add(RulePartLocal, gid, "subgraph %d: local ID %d out of range", s.Index, lid)
			}
		}
	}

	// Transfers must be exactly the cross-subgraph cut edges.
	want := map[[2]int]bool{}
	for _, n := range p.Graph.Nodes {
		if owner[n.ID] < 0 {
			continue
		}
		for _, in := range n.Inputs {
			if owner[in] >= 0 && owner[in] != owner[n.ID] {
				want[[2]int{in, owner[n.ID]}] = true
			}
		}
	}
	got := map[[2]int]bool{}
	for _, t := range p.Transfers {
		key := [2]int{t.FromNode, t.ToSub}
		if got[key] {
			add(RulePartCut, t.FromNode, "duplicate transfer to subgraph %d", t.ToSub)
			continue
		}
		got[key] = true
		if !want[key] {
			add(RulePartCut, t.FromNode, "transfer to subgraph %d does not match any cut edge", t.ToSub)
			continue
		}
		if t.FromNode >= 0 && t.FromNode < len(p.Graph.Nodes) {
			if elems := graph.NumElements(p.Graph.Nodes[t.FromNode].OutShape); t.Elems != elems {
				add(RulePartCut, t.FromNode, "transfer volume %d, tensor has %d elements", t.Elems, elems)
			}
		}
		if owner[t.FromNode] != t.FromSub {
			add(RulePartCut, t.FromNode, "transfer FromSub %d, node lives in subgraph %d", t.FromSub, owner[t.FromNode])
		} else if max(t.FromSub, t.ToSub) < len(p.Subs) {
			if link := partition.LinkBetween(p.Subs[t.FromSub], p.Subs[t.ToSub]); t.Link != link {
				add(RulePartCut, t.FromNode, "transfer to subgraph %d on the %s link, its endpoints call for %s", t.ToSub, t.Link, link)
			}
		}
	}
	// Deterministic sweep over the expected cut edges for missing transfers:
	// walk nodes in ID order rather than ranging over the map.
	for _, n := range p.Graph.Nodes {
		if owner[n.ID] < 0 {
			continue
		}
		for _, in := range n.Inputs {
			key := [2]int{in, owner[n.ID]}
			if want[key] && !got[key] {
				add(RulePartCut, in, "cut edge to subgraph %d has no transfer", owner[n.ID])
				got[key] = true // report once
			}
		}
	}
	return vs
}
