// Package partition cuts a computation graph into the stages of an execution
// plan. One cutter labels every node (target, chip) and hands the maximal
// equal-label runs to one assembler.
//
// The target policy always applies. The CIM pipeline (cg/mvm/vvm scheduling,
// placement, codegen) can only lower the operator set in
// graph.CIMLowerableOps, so host-only operators (Sigmoid, Tanh, Mul, ...) and
// the nodes Options.ForceHost names go to the host, and a CIM run left without
// a crossbar-mapped operator follows them.
//
// The chip policy applies when Options.Chip asks for it: walking the nodes in
// ID (topological) order, it fills a chip until the next CIM operator would
// push the crossbar footprint past one chip's capacity, then moves on to the
// next chip. Every chip therefore satisfies the stationary-weights placement
// constraint on its own — one copy of every operator resident, no weight
// reloading — which is exactly the per-chip condition cg's segmentation
// enforces, so each stage compiles single-segment under
// core.Options.Stationary (all but an operator larger than a whole chip, which
// sits alone on one and is cg's to reject or reload). Host stages and digital
// operators consume no crossbars and ride with the chip being filled.
//
// The cut edges between runs become explicit transfers, each on the link tier
// it crosses. The pass is deterministic: labels derive only from the operator
// taxonomy, the footprints and Options, and all emitted slices are in
// ascending ID order. A graph that needs no cut yields a single CIM subgraph
// that is the whole graph, so fully supported models that fit one chip compile
// and execute bit-identically to the monolithic path.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/perfsim"
)

// Options selects the cutter's policies.
type Options struct {
	// ForceHost lists global node IDs to assign to the host even though a
	// CIM lowering exists — the relief valve for capacity-pressured nodes.
	// Host-only operators go to the host regardless.
	ForceHost []int
	// Chip turns the chip policy on: the CIM nodes are spread over as many
	// chips of this architecture as their footprints need, at most MaxChips
	// when that is positive. nil keeps every node on chip 0. Node granularity
	// is the finest the cutter splits at: a single operator larger than the
	// whole chip gets a chip to itself, where only a compilation that may
	// reload weights (no core.Options.Stationary) can place it.
	Chip     *arch.Arch
	MaxChips int
}

// Transfer is one cut edge of the partition: the value of global node
// FromNode (computed by subgraph FromSub) is consumed by at least one node
// of subgraph ToSub. Multiple consumers inside ToSub share one transfer.
type Transfer struct {
	FromNode int   `json:"from_node"`
	FromSub  int   `json:"from_sub"`
	ToSub    int   `json:"to_sub"`
	Elems    int64 `json:"elems"` // element count of the transferred tensor
	// Link is the tier the edge crosses: chip to chip between CIM subgraphs
	// on different chips, host to accelerator otherwise.
	Link perfsim.Link `json:"link"`
}

// Subgraph is one maximal equal-label run of the partitioned graph,
// extracted as a self-contained graph. Boundary values produced by earlier
// subgraphs appear as synthetic Input nodes named "in_n<globalID>".
type Subgraph struct {
	Index  int          // position in Plan.Subs (execution order)
	Target graph.Target // where every node of this subgraph executes
	// Chip is the chip a CIM subgraph occupies, and the one a host subgraph
	// rides with. It never decreases along Plan.Subs.
	Chip    int
	G       *graph.Graph // extracted graph (synthetic inputs + real nodes)
	NodeIDs []int        // global IDs of the real nodes, ascending
	// LocalOf maps a global node ID to its local ID in G, -1 for a node
	// outside the subgraph. It covers the real nodes and the external
	// producers feeding the synthetic inputs.
	LocalOf []int
	// GlobalOf is the inverse of LocalOf, indexed by local ID (synthetic
	// inputs map back to their external producer's global ID).
	GlobalOf []int
	// Exports lists the local IDs whose values leave the subgraph — they
	// feed a later subgraph or are outputs of the full graph. Ascending.
	Exports []int
}

// Plan is the result of partitioning: the annotated graph, the subgraphs in
// execution (topological) order and the cut-edge transfers.
type Plan struct {
	Graph     *graph.Graph // clone of the input with Node.Target filled in
	Subs      []*Subgraph
	Transfers []Transfer
}

// Partition labels every node of g with an execution target and a chip and
// splits the graph into the maximal equal-label runs. g must be valid and
// shape-inferred (a compilation's own copy is) and is not mutated: the labels
// go into the Plan's clone, whose shapes come with it, and each extracted
// subgraph is inferred once, as it is made.
func Partition(g *graph.Graph, opts Options) (*Plan, error) {
	gc := g.Clone()
	tgt := make([]graph.Target, len(gc.Nodes))
	chip := make([]int, len(gc.Nodes))
	for _, n := range gc.Nodes {
		if n.Op.HostOnly() {
			tgt[n.ID] = graph.TargetHost
		} else {
			tgt[n.ID] = graph.TargetCIM
		}
	}
	for _, id := range opts.ForceHost {
		if id < 0 || id >= len(gc.Nodes) {
			return nil, fmt.Errorf("partition: ForceHost id %d out of range [0,%d)", id, len(gc.Nodes))
		}
		if gc.Nodes[id].Op == graph.OpInput {
			return nil, fmt.Errorf("partition: ForceHost id %d is an Input node", id)
		}
		tgt[id] = graph.TargetHost
	}
	if opts.Chip != nil {
		if err := fillChips(gc, opts.Chip, opts.MaxChips, tgt, chip); err != nil {
			return nil, err
		}
	}
	// Input nodes adopt their first consumer's label so they stay in the
	// subgraph that reads them.
	cons := gc.Consumers()
	for _, n := range gc.Nodes {
		if cs := cons[n.ID]; n.Op == graph.OpInput && len(cs) > 0 {
			tgt[n.ID], chip[n.ID] = tgt[cs[0]], chip[cs[0]]
		}
	}

	// Group maximal equal-label runs chip by chip, in ID (topological) order
	// within a chip. Chips never decrease along the non-input nodes, so the
	// sort only moves an Input forward to the chip of its first consumer.
	order := make([]int, len(gc.Nodes))
	for id := range order {
		order[id] = id
	}
	sort.SliceStable(order, func(i, j int) bool { return chip[order[i]] < chip[order[j]] })
	var runs []run
	for _, id := range order {
		if last := len(runs) - 1; last >= 0 && runs[last].target == tgt[id] && runs[last].chip == chip[id] {
			runs[last].ids = append(runs[last].ids, id)
			continue
		}
		runs = append(runs, run{target: tgt[id], chip: chip[id], ids: []int{id}})
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
		// must keep their pure-CIM shape.
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
		// Re-merge adjacent equal-label runs created by the folding.
		merged := runs[:1]
		for _, r := range runs[1:] {
			if last := &merged[len(merged)-1]; last.target == r.target && last.chip == r.chip {
				last.ids = append(last.ids, r.ids...)
				continue
			}
			merged = append(merged, r)
		}
		runs = merged
	}

	for id, n := range gc.Nodes {
		n.Target = tgt[id]
	}
	return assemble(gc, runs)
}

// fillChips is the chip policy: it labels the non-input nodes with chips in
// ID order, greedily, under one chip's core budget. Only nodes the target
// policy left on the accelerator occupy cores. Labels never decrease with the
// node ID, so producers never land on a later chip than their consumers.
func fillChips(gc *graph.Graph, a *arch.Arch, maxChips int, tgt []graph.Target, chip []int) error {
	fps, err := mapping.Footprints(gc, a)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	budget := a.Chip.CoreCount()
	cur, used := 0, 0
	for _, n := range gc.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		cores := 0
		if n.Op.CIMSupported() && tgt[n.ID] == graph.TargetCIM {
			cores = fps[n.ID].CoresPerCopy
		}
		if used+cores > budget && used > 0 {
			cur++
			used = 0
		}
		used += cores
		chip[n.ID] = cur
	}
	if maxChips > 0 && cur+1 > maxChips {
		return fmt.Errorf("partition: model needs %d chips but the fleet allows %d", cur+1, maxChips)
	}
	return nil
}

// run is one maximal equal-label stretch of node IDs in topological order,
// the unit assemble turns into a Subgraph.
type run struct {
	target graph.Target
	chip   int
	ids    []int
}

// assemble turns the grouped runs into a Plan: every run becomes a
// self-contained Subgraph, and every edge crossing a run boundary becomes a
// Transfer (one per {producer, consuming run} pair) on the link it crosses.
func assemble(gc *graph.Graph, runs []run) (*Plan, error) {
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

	plan := &Plan{Graph: gc}
	// lastTo[id] is 1 + the latest subgraph that took a transfer of node id.
	lastTo := make([]int, len(gc.Nodes))
	for i, r := range runs {
		sub, err := extract(gc, i, r, subOf, consumedLater, isOutput)
		if err != nil {
			return nil, err
		}
		plan.Subs = append(plan.Subs, sub)
		for _, gid := range r.ids {
			for _, in := range gc.Nodes[gid].Inputs {
				if subOf[in] == i || lastTo[in] == i+1 {
					continue
				}
				lastTo[in] = i + 1
				plan.Transfers = append(plan.Transfers, Transfer{
					FromNode: in,
					FromSub:  subOf[in],
					ToSub:    i,
					Elems:    graph.NumElements(gc.Nodes[in].OutShape),
					Link:     LinkBetween(plan.Subs[subOf[in]], sub),
				})
			}
		}
	}
	return plan, nil
}

// LinkBetween returns the tier a value crosses on its way from one subgraph to
// another: the chip-to-chip link between CIM subgraphs on different chips,
// the host link whenever the host is an endpoint — and between the CIM
// subgraphs of one chip, whose activations round-trip through the host
// stage that separates them.
func LinkBetween(from, to *Subgraph) perfsim.Link {
	if from.Target == graph.TargetCIM && to.Target == graph.TargetCIM && from.Chip != to.Chip {
		return perfsim.ChipLink
	}
	return perfsim.HostLink
}

// extract builds the self-contained graph for one run: synthetic Input nodes
// for every external producer (in ascending global-ID order), then the real
// nodes in global-ID order with remapped input references.
func extract(gc *graph.Graph, idx int, r run, subOf []int, consumedLater, isOutput []bool) (*Subgraph, error) {
	ids := r.ids
	var externals []int
	for _, gid := range ids {
		for _, in := range gc.Nodes[gid].Inputs {
			if subOf[in] != idx {
				externals = append(externals, in)
			}
		}
	}
	slices.Sort(externals)
	externals = slices.Compact(externals)
	sub := &Subgraph{
		Index:    idx,
		Target:   r.target,
		Chip:     r.chip,
		NodeIDs:  slices.Clone(ids),
		LocalOf:  make([]int, len(gc.Nodes)),
		GlobalOf: make([]int, len(externals)+len(ids)),
	}
	for gid := range sub.LocalOf {
		sub.LocalOf[gid] = -1
	}
	sg := graph.New(fmt.Sprintf("%s.p%d.%s", gc.Name, idx, r.target))
	for _, ext := range externals {
		lid := sg.AddInput(fmt.Sprintf("in_n%d", ext), gc.Nodes[ext].OutShape...)
		sub.LocalOf[ext], sub.GlobalOf[lid] = lid, ext
	}
	for _, gid := range ids {
		n := gc.Nodes[gid]
		var lid int
		if n.Op == graph.OpInput {
			lid = sg.AddInput(n.Name, n.OutShape...)
		} else {
			inputs := make([]int, len(n.Inputs))
			for i, in := range n.Inputs {
				if inputs[i] = sub.LocalOf[in]; inputs[i] < 0 {
					return nil, fmt.Errorf("partition: subgraph %d: node %d input %d unmapped", idx, gid, in)
				}
			}
			lid = sg.AddNode(n.Name, n.Op, inputs, n.Attr, n.WeightShape)
		}
		sub.LocalOf[gid], sub.GlobalOf[lid] = lid, gid
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
