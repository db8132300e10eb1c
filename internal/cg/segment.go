package cg

import (
	"context"
	"errors"
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
)

// ErrOverCapacity reports that a model's crossbar footprint exceeds one
// chip under the stationary-weights constraint: serving it on a single chip
// would require weight reloading (segmentation or multi-round operators),
// which Options.Stationary forbids. Callers detect it with errors.Is and
// fall back to multi-chip pipelining (see the root package's BuildPipeline
// and serving/fleet).
var ErrOverCapacity = errors.New("model exceeds single-chip crossbar capacity")

// segment implements the resource-adaptive compute graph segmentation of
// Figure 9(b). When the whole model fits the chip it returns one segment.
// Otherwise it iteratively constructs the maximal prefix sub-graph that fits
// within CIM capacity, then refines it by successively popping trailing
// nodes while the dynamic-programming latency estimate of (remaining segment
// + popped nodes as their own segment + weight reload) improves. Operators
// larger than the whole chip (multi-round) always get a dedicated segment.
// dups[i] is segment i's duplication, one entry per CIM operator in segment
// order, when a refinement priced it off a shared table, nil when Optimize
// must still search it.
func segment(ctx context.Context, g *graph.Graph, a *arch.Arch, m *cost.Model, infos []opInfo, order []int, opt Options) (segs [][]int, dups [][]int, err error) {
	coreCount := a.Chip.CoreCount()
	totalCores, anyOversized := demand(infos, order)
	if totalCores <= coreCount && !anyOversized {
		return [][]int{order}, make([][]int, 1), nil
	}
	if opt.Stationary {
		// Serving-grade compilation: weights stay resident for the program's
		// lifetime, so the reload-based escape hatches (segment reprogramming,
		// multi-round operators) are not available.
		if anyOversized {
			return nil, nil, fmt.Errorf("cg: an operator needs more crossbars than the whole chip: %w", ErrOverCapacity)
		}
		return nil, nil, fmt.Errorf("cg: model needs %d cores but the chip has %d: %w", totalCores, coreCount, ErrOverCapacity)
	}

	reload := float64(a.XB.Rows) * a.XB.Device.Profile().WriteLatency
	remaining := order
	for len(remaining) > 0 {
		prefix, rest, err := takePrefix(infos, remaining, coreCount)
		if err != nil {
			return nil, nil, err
		}
		var dup []int
		if opt.Duplicate && len(rest) > 0 {
			if prefix, rest, dup, err = refinePrefix(ctx, infos, prefix, rest, coreCount, reload, opt); err != nil {
				return nil, nil, err
			}
		}
		segs = append(segs, prefix)
		dups = append(dups, dup)
		remaining = rest
	}
	return segs, dups, nil
}

// demand returns the cores the operators that fit the chip occupy with one
// copy each, and whether any operator is larger than the whole chip.
func demand(infos []opInfo, order []int) (cores int, anyOversized bool) {
	for _, id := range order {
		oi := infos[id]
		if oi.cim {
			if oi.rounds > 1 {
				anyOversized = true
			} else {
				cores += oi.coresCopy
			}
		}
	}
	return cores, anyOversized
}

// takePrefix returns the maximal prefix of `order` whose CIM operators fit
// the core budget; a multi-round operator at the head becomes a singleton
// prefix.
func takePrefix(infos []opInfo, order []int, budget int) (prefix, rest []int, err error) {
	cores := 0
	for i, id := range order {
		oi := infos[id]
		if !oi.cim {
			continue
		}
		if oi.rounds > 1 {
			if i == 0 {
				return order[:1], order[1:], nil
			}
			return order[:i], order[i:], nil
		}
		if oi.coresCopy > budget {
			return nil, nil, fmt.Errorf("cg: operator %d needs %d cores alone but the chip has %d (and is not multi-round)", id, oi.coresCopy, budget)
		}
		if cores+oi.coresCopy > budget {
			if i == 0 {
				return nil, nil, fmt.Errorf("cg: first operator %d does not fit the budget", id)
			}
			return order[:i], order[i:], nil
		}
		cores += oi.coresCopy
	}
	return order, nil, nil
}

// refinePrefix pops trailing node groups (the last CIM operator plus any
// digital successors after it) off the prefix while the total latency
// estimate improves: freeing cores lets the remaining operators duplicate
// more, which can outweigh the extra reload the popped group will pay.
//
// Every head the loop prices is a leading part of the first prefix, so under
// the dynamic program one forward table over that prefix answers them all (a
// head with k CIM operators is a walk-back of k rows); only the popped group,
// one operator, runs a search of its own. A head that is kept is the next
// iteration's baseline, at the price already computed, and the prefix kept
// last returns with its walk-back, which is what a fresh search over it
// returns (nil under AllocWaterfill, which has no table).
func refinePrefix(ctx context.Context, infos []opInfo, prefix, rest []int, budget int, reload float64, opt Options) ([]int, []int, []int, error) {
	var table *dupTable
	if opt.Allocator != AllocWaterfill {
		var err error
		if table, err = newDupTable(ctx, segCIMInfos(infos, prefix), budget, 0); err != nil {
			return nil, nil, nil, err
		}
	}
	price := func(nodes []int) (float64, []int, error) {
		if table == nil {
			cost, err := estimate(ctx, infos, nodes, budget, opt)
			return cost, nil, err
		}
		dup := table.dup(cimCount(infos, nodes))
		return latency(infos, nodes, dup), dup, nil
	}
	baseline, dup, err := price(prefix)
	if err != nil {
		return nil, nil, nil, err
	}
	for cimCount(infos, prefix) > 1 {
		cut := lastCIMIndex(infos, prefix)
		if cut <= 0 {
			break
		}
		head, group := prefix[:cut], prefix[cut:]
		headCost, headDup, err := price(head)
		if err != nil {
			return nil, nil, nil, err
		}
		groupCost, err := estimate(ctx, infos, group, budget, opt)
		if err != nil {
			return nil, nil, nil, err
		}
		if candidate := headCost + groupCost + reload; candidate >= baseline {
			break
		}
		// Prepend the popped group to the remaining stream so the next
		// prefix construction reconsiders it with full capacity.
		newRest := make([]int, 0, len(group)+len(rest))
		newRest = append(newRest, group...)
		newRest = append(newRest, rest...)
		prefix, rest, baseline, dup = head, newRest, headCost, headDup
	}
	return prefix, rest, dup, nil
}

func cimCount(infos []opInfo, nodes []int) int {
	c := 0
	for _, id := range nodes {
		if infos[id].cim {
			c++
		}
	}
	return c
}

func lastCIMIndex(infos []opInfo, nodes []int) int {
	for i := len(nodes) - 1; i >= 0; i-- {
		if infos[nodes[i]].cim {
			return i
		}
	}
	return -1
}

// estimate returns the summed-runtime latency of the node group after the
// duplication search — the segmentation loop's objective. Groups are cut
// from prefixes built to fit, so an allocation error is a cancellation.
func estimate(ctx context.Context, infos []opInfo, nodes []int, budget int, opt Options) (float64, error) {
	dup, err := allocate(ctx, segCIMInfos(infos, nodes), budget, opt)
	if err != nil {
		return 0, err
	}
	return latency(infos, nodes, dup), nil
}

// latency sums the group's runtimes under dup, dup[j] the copies of the
// group's j-th CIM operator: the digital operators in node order, then the
// CIM operators in node order. The order is part of the contract —
// refinePrefix compares these floats.
func latency(infos []opInfo, nodes []int, dup []int) float64 {
	total := 0.0
	for _, id := range nodes {
		if oi := infos[id]; !oi.cim {
			total += oi.run(1)
		}
	}
	j := 0
	for _, id := range nodes {
		if oi := infos[id]; oi.cim {
			total += oi.run(dup[j])
			j++
		}
	}
	return total
}
