// Package flowopt is the dataflow-driven optimization pass over generated
// meta-operator flows. It consumes internal/flowdata's analysis twice over:
//
//   - deletion: dead MOPs (transfers whose written scratch no later
//     instruction reads) and redundant transfers (re-moves of data an
//     identical earlier transfer already moved from an unchanged source)
//     are removed until a fixpoint — re-analysis of the stripped flow finds
//     nothing left;
//   - compaction: scratch regions the flow never touches are dropped, and
//     the surviving ones are repacked by liveness-based slot reuse — two
//     scratch regions share addresses exactly when their live ranges do not
//     overlap — shrinking the flow's total buffer space.
//
// The rewrite is semantics-preserving by construction (scratch lives above
// every node region, so funcsim's settle/requantization bookkeeping never
// observes it) and double-checked: the optimized flow must re-verify clean
// under the strict rule tier or Optimize fails loudly. Conformance family 1
// and FuzzFlowOpt additionally pin bit-identical simulator output.
package flowopt

import (
	"fmt"
	"sort"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/flowdata"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
)

// Optimize rewrites one generated flow. It never mutates fr; the returned
// Result shares unchanged ops with the input and carries OptStats. Flows
// that are truncated, nil or already illegal are returned unchanged — the
// optimizer refuses to touch what it cannot prove facts about.
func Optimize(g *graph.Graph, a *arch.Arch, fr *codegen.Result) (*codegen.Result, error) {
	if fr == nil || fr.Flow == nil || fr.Layout == nil || fr.Truncated {
		return fr, nil
	}
	stats := &codegen.OptStats{
		MOPsBefore:    fr.Flow.Stats().TotalLeaf,
		ScratchBefore: scratchWords(fr.Layout),
		TotalBefore:   fr.Layout.Total,
	}
	cur := fr
	var an *flowdata.Analysis
	for {
		an = flowdata.Build(g, a, cur)
		if len(an.Problems) > 0 {
			if cur == fr {
				return fr, nil // the input flow is illegal; not ours to fix
			}
			return nil, fmt.Errorf("flowopt: rewrite produced an illegal flow: %s", an.Problems[0])
		}
		nd, nr := an.DeadCount(), an.RedundantCount()
		if nd+nr == 0 {
			break
		}
		next := strip(cur, an)
		if next.Flow.Stats().TotalLeaf >= cur.Flow.Stats().TotalLeaf {
			return nil, fmt.Errorf("flowopt: deletion pass removed nothing despite %d dead and %d redundant MOPs", nd, nr)
		}
		stats.RemovedDead += nd
		stats.RemovedRedundant += nr
		cur = next
	}
	out := compact(g, cur, an)
	stats.MOPsAfter = out.Flow.Stats().TotalLeaf
	stats.ScratchAfter = scratchWords(out.Layout)
	stats.TotalAfter = out.Layout.Total
	out.Opt = stats
	if ps := flowdata.Build(g, a, out).StrictProblems(); len(ps) > 0 {
		return nil, fmt.Errorf("flowopt: optimized flow fails strict re-verification: %s", ps[0])
	}
	return out, nil
}

// strip removes the instructions the analysis marked dead or redundant,
// walking both sections with the same flat indexing the analysis used
// (parallel groups contribute one index per member and are never deletion
// candidates).
func strip(fr *codegen.Result, an *flowdata.Analysis) *codegen.Result {
	idx := 0
	prune := func(ops []mop.Op) []mop.Op {
		out := make([]mop.Op, 0, len(ops))
		for _, op := range ops {
			if par, ok := op.(mop.Parallel); ok {
				idx += len(par.Body)
				out = append(out, op)
				continue
			}
			if an.Dead[idx] || an.Redundant[idx] {
				idx++
				continue
			}
			idx++
			out = append(out, op)
		}
		return out
	}
	flow := &mop.Flow{Mode: fr.Flow.Mode, Graph: fr.Flow.Graph, Arch: fr.Flow.Arch}
	flow.Init = prune(fr.Flow.Init)
	flow.Body = prune(fr.Flow.Body)
	return &codegen.Result{Flow: flow, Layout: fr.Layout, Truncated: fr.Truncated}
}

// compact drops scratch regions the (already stripped) flow never touches
// and repacks the survivors above the node regions, letting regions with
// disjoint live ranges share addresses. Every address field of every op is
// rebased through the old-range → new-range map (identity outside scratch).
func compact(g *graph.Graph, fr *codegen.Result, an *flowdata.Analysis) *codegen.Result {
	lay := fr.Layout
	var nodeEnd int64
	for _, n := range g.Nodes {
		if end := lay.Base[n.ID] + lay.Size[n.ID]; end > nodeEnd {
			nodeEnd = end
		}
	}
	type slot struct {
		r  *flowdata.Region
		iv flowdata.Interval
	}
	var live []slot
	for i, r := range an.Regions {
		if r.Scratch && an.Intervals[i].Live() {
			live = append(live, slot{r, an.Intervals[i]})
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].iv.First != live[j].iv.First {
			return live[i].iv.First < live[j].iv.First
		}
		return live[i].r.Node < live[j].r.Node
	})
	type placed struct {
		off, size int64
		iv        flowdata.Interval
	}
	var arena []placed
	var arenaEnd int64
	type rebase struct{ oldLo, oldHi, delta int64 }
	var ranges []rebase
	newScratch, newSize := map[int]int64{}, map[int]int64{}
	for _, sl := range live {
		// First-fit: the lowest offset whose address span avoids every
		// already-placed slot with an overlapping live range.
		var conflicts []placed
		for _, p := range arena {
			if p.iv.Overlaps(sl.iv) {
				conflicts = append(conflicts, p)
			}
		}
		sort.Slice(conflicts, func(i, j int) bool { return conflicts[i].off < conflicts[j].off })
		var off int64
		for _, c := range conflicts {
			if off+sl.r.Size <= c.off {
				break
			}
			if end := c.off + c.size; end > off {
				off = end
			}
		}
		arena = append(arena, placed{off, sl.r.Size, sl.iv})
		if end := off + sl.r.Size; end > arenaEnd {
			arenaEnd = end
		}
		newScratch[sl.r.Node], newSize[sl.r.Node] = nodeEnd+off, sl.r.Size
		ranges = append(ranges, rebase{sl.r.Base, sl.r.Base + sl.r.Size, nodeEnd + off - sl.r.Base})
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].oldLo < ranges[j].oldLo })
	mapAddr := func(a int64) int64 {
		lo, hi := 0, len(ranges)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ranges[mid].oldLo > a {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo > 0 && a < ranges[lo-1].oldHi {
			return a + ranges[lo-1].delta
		}
		return a
	}
	var rewriteOps func(ops []mop.Op) []mop.Op
	rewriteOps = func(ops []mop.Op) []mop.Op {
		out := make([]mop.Op, len(ops))
		for i, op := range ops {
			switch o := op.(type) {
			case mop.Parallel:
				out[i] = mop.Parallel{Body: rewriteOps(o.Body)}
			case mop.Mov:
				o.Src, o.Dst = mapAddr(o.Src), mapAddr(o.Dst)
				out[i] = o
			case mop.MovWindow:
				o.SrcBase, o.Dst = mapAddr(o.SrcBase), mapAddr(o.Dst)
				out[i] = o
			case mop.ReadXB:
				o.Src, o.Dst = mapAddr(o.Src), mapAddr(o.Dst)
				out[i] = o
			case mop.ReadRow:
				o.Src, o.Dst = mapAddr(o.Src), mapAddr(o.Dst)
				out[i] = o
			case mop.ReadCore:
				o.Src, o.Dst = mapAddr(o.Src), mapAddr(o.Dst)
				out[i] = o
			case mop.Dcom:
				srcs := make([]int64, len(o.Srcs))
				for k, s := range o.Srcs {
					srcs[k] = mapAddr(s)
				}
				o.Srcs, o.Dst = srcs, mapAddr(o.Dst)
				out[i] = o
			default:
				out[i] = op
			}
		}
		return out
	}
	newLay := &codegen.Layout{
		Base:        map[int]int64{},
		Size:        map[int]int64{},
		Scratch:     newScratch,
		ScratchSize: newSize,
		Total:       nodeEnd + arenaEnd,
	}
	for k, v := range lay.Base {
		newLay.Base[k] = v
	}
	for k, v := range lay.Size {
		newLay.Size[k] = v
	}
	flow := &mop.Flow{Mode: fr.Flow.Mode, Graph: fr.Flow.Graph, Arch: fr.Flow.Arch}
	flow.Init = rewriteOps(fr.Flow.Init)
	flow.Body = rewriteOps(fr.Flow.Body)
	return &codegen.Result{Flow: flow, Layout: newLay, Truncated: fr.Truncated}
}

func scratchWords(lay *codegen.Layout) int64 {
	var node int64
	for _, sz := range lay.Size {
		node += sz
	}
	return lay.Total - node
}
