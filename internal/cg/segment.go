package cg

import (
	"context"
	"errors"
	"fmt"

	"cimmlc/internal/cost"
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
// + popped nodes as their own segment + reload) improves; reload is the cost
// model's Program of the wordlines one copy of the popped operator writes on
// its busiest core, what the simulator charges for a segment that starts
// with it. An operator larger than the whole chip (multi-round) is always
// the one CIM operator of its segment (takePrefix). Under Options.Duplicate
// each kept segment's copies go into w.dup, arbitrated when w.arbitrates.
func (w *workspace) segment(ctx context.Context, order []int) ([][]int, error) {
	rows := w.m.Rows
	if totalCores, anyOversized := demand(rows, order); w.opt.Stationary && (totalCores > w.budget || anyOversized) {
		// Serving-grade compilation: weights stay resident for the program's
		// lifetime, so the reload-based escape hatches (segment reprogramming,
		// multi-round operators) are not available.
		if anyOversized {
			return nil, fmt.Errorf("cg: an operator needs more crossbars than the whole chip: %w", ErrOverCapacity)
		}
		return nil, fmt.Errorf("cg: model needs %d cores but the chip has %d: %w", totalCores, w.budget, ErrOverCapacity)
	}
	// A model that fits the chip is one prefix, taken whole and never refined
	// (one segment even when it has no node). Every segment holds a CIM
	// operator, but the one segment of a model with none.
	segs := make([][]int, 0, cimCount(rows, order))
	for remaining := order; ; {
		prefix, rest, err := takePrefix(rows, remaining, w.budget)
		if err != nil {
			return nil, err
		}
		switch {
		case !w.opt.Duplicate:
		case len(rest) > 0:
			prefix, err = w.refinePrefix(ctx, prefix)
		default:
			err = w.allocate(ctx, &w.scratch, prefix)
		}
		if err == nil && w.arbitrates {
			err = w.arbitrate(ctx, prefix)
		}
		if err != nil {
			return nil, err
		}
		segs = append(segs, prefix)
		if remaining = remaining[len(prefix):]; len(remaining) == 0 {
			return segs, nil
		}
	}
}

// demand returns the cores the operators that fit the chip occupy with one
// copy each, and whether any operator is larger than the whole chip.
func demand(rows []cost.Row, order []int) (cores int, anyOversized bool) {
	for _, id := range order {
		if r := &rows[id]; r.Cores > 0 {
			if r.Rounds > 1 {
				anyOversized = true
			} else {
				cores += r.Cores
			}
		}
	}
	return cores, anyOversized
}

// takePrefix returns the maximal prefix of `order` whose CIM operators fit
// the core budget. A multi-round operator is the one CIM operator of its
// prefix: a prefix that reaches it holding CIM operators ends before it, and
// otherwise the prefix runs through it and the digital nodes after it, up to
// the next CIM node. Cut off, those would be a segment of digital nodes
// alone, waiting for the whole operator, where in its segment they pipeline
// behind it.
func takePrefix(rows []cost.Row, order []int, budget int) (prefix, rest []int, err error) {
	cores := 0
	for i, id := range order {
		r := &rows[id]
		if r.Cores == 0 {
			continue
		}
		if r.Rounds > 1 {
			if cores > 0 {
				return order[:i], order[i:], nil
			}
			end := i + 1
			for end < len(order) && rows[order[end]].Cores == 0 {
				end++
			}
			return order[:end], order[end:], nil
		}
		if r.Cores > budget {
			return nil, nil, fmt.Errorf("cg: operator %d needs %d cores alone but the chip has %d (and is not multi-round)", id, r.Cores, budget)
		}
		if cores+r.Cores > budget {
			if i == 0 {
				return nil, nil, fmt.Errorf("cg: first operator %d does not fit the budget", id)
			}
			return order[:i], order[i:], nil
		}
		cores += r.Cores
	}
	return order, nil, nil
}

// refinePrefix pops trailing node groups (the last CIM operator plus any
// digital successors after it) off the prefix while the total latency
// estimate improves: freeing cores lets the remaining operators duplicate
// more, which can outweigh the extra reload the popped group will pay: the
// programming of its operator's one copy at remap 1 (popPrice). It
// returns the head of prefix it keeps, whose copies it leaves in w.dup; the
// popped nodes stay in the stream after it, for the next prefix to
// reconsider with full capacity.
//
// Every head is priced by a search of its own (estimate), the popped group by
// another. Heads shrink from the end, so each is a leading part of the one
// before and the table they are searched on (w.shared) keeps its candidates;
// the groups are searched on w.scratch. A head that is kept is the next
// iteration's baseline, at the price already computed, and its copies are
// already in w.dup. A refused pop writes back the prefix's copies, saved
// before the head was priced.
func (w *workspace) refinePrefix(ctx context.Context, prefix []int) ([]int, error) {
	rows := w.m.Rows
	baseline, err := w.estimate(ctx, &w.shared, prefix)
	if err != nil {
		return nil, err
	}
	for cimCount(rows, prefix) > 1 {
		cut := lastCIMIndex(rows, prefix)
		if cut <= 0 {
			break
		}
		w.kept = resize(w.kept, len(prefix))
		//cimlint:ignore ctxcancel -- one load per node, before the searches
		for i, id := range prefix {
			w.kept[i] = w.dup[id]
		}
		head, group := prefix[:cut], prefix[cut:]
		headCost, err := w.estimate(ctx, &w.shared, head)
		if err != nil {
			return nil, err
		}
		groupCost, err := w.estimate(ctx, &w.scratch, group)
		if err != nil {
			return nil, err
		}
		if candidate := headCost + groupCost + popPrice(w.m, group[0]); candidate >= baseline {
			//cimlint:ignore ctxcancel -- one store per node, after the searches
			for i, id := range prefix {
				w.dup[id] = w.kept[i]
			}
			break
		}
		prefix, baseline = head, headCost
	}
	return prefix, nil
}

// popPrice is the reload a pop of CIM node into a segment it starts pays:
// programming its one copy at remap 1, which writes what the copy's busiest
// core holds. The simulator charges the whole segment's busiest core, which
// the copies and operators after it can only raise.
func popPrice(m *cost.Model, node int) float64 {
	first, _ := m.FPs[node].Wordlines(m.Arch)
	return m.Program(first)
}

func cimCount(rows []cost.Row, nodes []int) int {
	c := 0
	for _, id := range nodes {
		if rows[id].Cores > 0 {
			c++
		}
	}
	return c
}

func lastCIMIndex(rows []cost.Row, nodes []int) int {
	for i := len(nodes) - 1; i >= 0; i-- {
		if rows[nodes[i]].Cores > 0 {
			return i
		}
	}
	return -1
}

// estimate writes the copies of the node group's CIM operators into w.dup,
// searched on t, and returns the group's summed-runtime latency under them —
// the segmentation loop's objective. Groups are cut from prefixes built to
// fit, so an allocation error is a cancellation.
func (w *workspace) estimate(ctx context.Context, t *dupTable, nodes []int) (float64, error) {
	if err := w.allocate(ctx, t, nodes); err != nil {
		return 0, err
	}
	return latency(w.m.Rows, nodes, w.dup), nil
}

// latency sums the group's runtimes under dup, the copies by node ID: the
// digital operators in node order, then the CIM operators in node order.
// The order is part of the contract: refinePrefix compares these floats.
func latency(rows []cost.Row, nodes []int, dup []int) float64 {
	total := 0.0
	for _, id := range nodes {
		if r := &rows[id]; r.Cores == 0 {
			total += r.Run()
		}
	}
	for _, id := range nodes {
		if r := &rows[id]; r.Cores > 0 {
			total += r.RunAt(dup[id])
		}
	}
	return total
}
