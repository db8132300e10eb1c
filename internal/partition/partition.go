// Package partition splits a computation graph into maximal single-target
// subgraphs for mixed CPU/CIM execution.
//
// The CIM pipeline (cg/mvm/vvm scheduling, placement, flow optimisation) can
// only lower the operator set in graph.CIMLowerableOps. Graphs that contain
// host-only operators (Sigmoid, Tanh, Mul, ...) are partitioned here: every
// node is assigned an execution target, consecutive same-target runs become
// subgraphs, and the cut edges between subgraphs become explicit transfers
// whose data volume the performance model charges to the plan's link tier.
//
// The pass is deterministic: targets derive only from the operator taxonomy
// and Options, runs are grouped in node-ID (topological) order, and all
// emitted slices are in ascending ID order. A graph with no host-assigned
// node yields a single CIM subgraph that is the whole graph, so fully
// supported models compile and execute bit-identically to the monolithic
// path.
package partition

import (
	"fmt"
	"sort"

	"cimmlc/internal/graph"
	"cimmlc/internal/perfsim"
)

// Options tunes the partitioning pass.
type Options struct {
	// ForceHost lists global node IDs to assign to the host even though a
	// CIM lowering exists — the relief valve for capacity-pressured nodes.
	// Host-only operators go to the host regardless.
	ForceHost []int
}

// Transfer is one cut edge of the partition: the value of global node
// FromNode (computed by subgraph FromSub) is consumed by at least one node
// of subgraph ToSub. Multiple consumers inside ToSub share one transfer.
type Transfer struct {
	FromNode int   `json:"from_node"`
	FromSub  int   `json:"from_sub"`
	ToSub    int   `json:"to_sub"`
	Elems    int64 `json:"elems"` // element count of the transferred tensor
}

// Subgraph is one maximal single-target run of the partitioned graph,
// extracted as a self-contained graph. Boundary values produced by earlier
// subgraphs appear as synthetic Input nodes named "in_n<globalID>".
type Subgraph struct {
	Index   int          // position in Plan.Subs (execution order)
	Target  graph.Target // where every node of this subgraph executes
	G       *graph.Graph // extracted graph (synthetic inputs + real nodes)
	NodeIDs []int        // global IDs of the real nodes, ascending
	// LocalOf maps global node IDs to local IDs in G. It covers the real
	// nodes and the external producers feeding the synthetic inputs.
	LocalOf map[int]int
	// GlobalOf is the inverse of LocalOf (synthetic inputs map back to
	// their external producer's global ID).
	GlobalOf map[int]int
	// Exports lists the local IDs whose values leave the subgraph — they
	// feed a later subgraph or are outputs of the full graph. Ascending.
	Exports []int
}

// Plan is the result of partitioning: the annotated graph, the subgraphs in
// execution (topological) order, the cut-edge transfers, and the link tier
// those transfers cross (set by the cutter that made the plan).
type Plan struct {
	Graph     *graph.Graph // clone of the input with Node.Target filled in
	Subs      []*Subgraph
	Transfers []Transfer
	Link      perfsim.Link
}

// Partition assigns every node an execution target and splits the graph into
// maximal single-target subgraphs. The input graph is not mutated.
func Partition(g *graph.Graph, opts Options) (*Plan, error) {
	gc := g.Clone()
	if err := gc.InferShapes(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	force := make(map[int]bool, len(opts.ForceHost))
	for _, id := range opts.ForceHost {
		if id < 0 || id >= len(gc.Nodes) {
			return nil, fmt.Errorf("partition: ForceHost id %d out of range [0,%d)", id, len(gc.Nodes))
		}
		if gc.Nodes[id].Op == graph.OpInput {
			return nil, fmt.Errorf("partition: ForceHost id %d is an Input node", id)
		}
		force[id] = true
	}

	// Per-node targets. Input nodes adopt their first consumer's target so
	// they stay in the subgraph that reads them.
	tgt := make([]graph.Target, len(gc.Nodes))
	for _, n := range gc.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		if n.Op.HostOnly() || force[n.ID] {
			tgt[n.ID] = graph.TargetHost
		} else {
			tgt[n.ID] = graph.TargetCIM
		}
	}
	cons := gc.Consumers()
	for _, n := range gc.Nodes {
		if n.Op != graph.OpInput {
			continue
		}
		tgt[n.ID] = graph.TargetCIM
		if cs := cons[n.ID]; len(cs) > 0 {
			tgt[n.ID] = tgt[cs[0]]
		}
	}

	// Group consecutive same-target runs in ID (topological) order.
	var runs []run
	for id := range gc.Nodes {
		if len(runs) > 0 && runs[len(runs)-1].target == tgt[id] {
			runs[len(runs)-1].ids = append(runs[len(runs)-1].ids, id)
			continue
		}
		runs = append(runs, run{target: tgt[id], ids: []int{id}})
	}

	mixed := false
	for _, r := range runs {
		if r.target == graph.TargetHost {
			mixed = true
			break
		}
	}
	if mixed {
		// A CIM run with no weighted (crossbar-mapped) node buys nothing
		// from the accelerator but still pays two transfers; fold it into
		// the host. Only in already-mixed plans — fully supported graphs
		// must keep the monolithic single-subgraph shape.
		for i := range runs {
			if runs[i].target != graph.TargetCIM {
				continue
			}
			weighted := false
			for _, id := range runs[i].ids {
				if gc.Nodes[id].Op.CIMSupported() {
					weighted = true
					break
				}
			}
			if !weighted {
				runs[i].target = graph.TargetHost
				for _, id := range runs[i].ids {
					tgt[id] = graph.TargetHost
				}
			}
		}
		// Re-merge adjacent same-target runs created by the folding.
		merged := runs[:1]
		for _, r := range runs[1:] {
			if merged[len(merged)-1].target == r.target {
				merged[len(merged)-1].ids = append(merged[len(merged)-1].ids, r.ids...)
				continue
			}
			merged = append(merged, r)
		}
		runs = merged
	}

	for id, n := range gc.Nodes {
		n.Target = tgt[id]
	}
	return assemble(gc, runs, perfsim.HostLink)
}

// run is one maximal single-target (or single-chip) stretch of node IDs in
// topological order, the unit assemble turns into a Subgraph.
type run struct {
	target graph.Target
	ids    []int
}

// assemble turns the grouped runs into a Plan: every run becomes a
// self-contained Subgraph, and every edge crossing a run boundary becomes a
// Transfer (one per {producer, consuming run} pair) costed on link.
func assemble(gc *graph.Graph, runs []run, link perfsim.Link) (*Plan, error) {
	// subOf maps every global node to its subgraph index.
	subOf := make([]int, len(gc.Nodes))
	for i, r := range runs {
		for _, id := range r.ids {
			subOf[id] = i
		}
	}

	// consumedLater[id] = true when some node in a later subgraph reads id.
	consumedLater := make([]bool, len(gc.Nodes))
	for _, n := range gc.Nodes {
		for _, in := range n.Inputs {
			if subOf[in] != subOf[n.ID] {
				consumedLater[in] = true
			}
		}
	}
	isOutput := make([]bool, len(gc.Nodes))
	for _, id := range gc.Outputs() {
		isOutput[id] = true
	}

	plan := &Plan{Graph: gc, Link: link}
	seenTransfer := map[[2]int]bool{} // {producer global ID, consumer sub}
	for i, r := range runs {
		sub, err := extract(gc, i, r.target, r.ids, subOf, consumedLater, isOutput)
		if err != nil {
			return nil, err
		}
		plan.Subs = append(plan.Subs, sub)
		for _, gid := range r.ids {
			for _, in := range gc.Nodes[gid].Inputs {
				if subOf[in] == i {
					continue
				}
				key := [2]int{in, i}
				if seenTransfer[key] {
					continue
				}
				seenTransfer[key] = true
				plan.Transfers = append(plan.Transfers, Transfer{
					FromNode: in,
					FromSub:  subOf[in],
					ToSub:    i,
					Elems:    graph.NumElements(gc.Nodes[in].OutShape),
				})
			}
		}
	}
	return plan, nil
}

// extract builds the self-contained graph for one run: synthetic Input nodes
// for every external producer (in ascending global-ID order), then the real
// nodes in global-ID order with remapped input references.
func extract(gc *graph.Graph, idx int, target graph.Target, ids []int, subOf []int, consumedLater, isOutput []bool) (*Subgraph, error) {
	sub := &Subgraph{
		Index:    idx,
		Target:   target,
		NodeIDs:  append([]int(nil), ids...),
		LocalOf:  map[int]int{},
		GlobalOf: map[int]int{},
	}
	sg := graph.New(fmt.Sprintf("%s.p%d.%s", gc.Name, idx, target))

	inRun := make(map[int]bool, len(ids))
	for _, id := range ids {
		inRun[id] = true
	}
	var externals []int
	seenExt := map[int]bool{}
	for _, gid := range ids {
		for _, in := range gc.Nodes[gid].Inputs {
			if !inRun[in] && !seenExt[in] {
				seenExt[in] = true
				externals = append(externals, in)
			}
		}
	}
	sort.Ints(externals)
	for _, ext := range externals {
		lid := sg.AddInput(fmt.Sprintf("in_n%d", ext), gc.Nodes[ext].OutShape...)
		sub.LocalOf[ext] = lid
		sub.GlobalOf[lid] = ext
	}
	for _, gid := range ids {
		n := gc.Nodes[gid]
		var lid int
		if n.Op == graph.OpInput {
			lid = sg.AddInput(n.Name, n.OutShape...)
		} else {
			inputs := make([]int, len(n.Inputs))
			for i, in := range n.Inputs {
				l, ok := sub.LocalOf[in]
				if !ok {
					return nil, fmt.Errorf("partition: subgraph %d: node %d input %d unmapped", idx, gid, in)
				}
				inputs[i] = l
			}
			lid = sg.AddNode(n.Name, n.Op, inputs, n.Attr, n.WeightShape)
		}
		sub.LocalOf[gid] = lid
		sub.GlobalOf[lid] = gid
	}
	if err := sg.InferShapes(); err != nil {
		return nil, fmt.Errorf("partition: subgraph %d: %w", idx, err)
	}
	sub.G = sg
	for _, gid := range ids {
		if consumedLater[gid] || isOutput[gid] {
			sub.Exports = append(sub.Exports, sub.LocalOf[gid])
		}
	}
	sort.Ints(sub.Exports)
	return sub, nil
}

// SubWeights projects the global weight map onto the subgraph's local IDs.
func (s *Subgraph) SubWeights(w graph.Weights) graph.Weights {
	out := graph.Weights{}
	for _, gid := range s.NodeIDs {
		if t, ok := w[gid]; ok {
			out[s.LocalOf[gid]] = t
		}
	}
	return out
}

// NodeCount returns the number of real nodes assigned to target.
func (p *Plan) NodeCount(target graph.Target) int {
	n := 0
	for _, s := range p.Subs {
		if s.Target == target {
			n += len(s.NodeIDs)
		}
	}
	return n
}

// TransferElems returns the total element volume crossing the partition.
func (p *Plan) TransferElems() int64 {
	var n int64
	for _, t := range p.Transfers {
		n += t.Elems
	}
	return n
}
