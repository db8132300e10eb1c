// Package perfsim is the performance simulator: it executes a Schedule as a
// discrete-time event model and reports end-to-end latency, peak power,
// energy and resource occupancy.
//
// It plays the role of the extended open-source simulator of §4.1 (built on
// PUMA-sim/NeuroSim/NVSim in the paper; see DESIGN.md's substitution table):
// operator timings come from the shared cycle model in internal/cost, data
// dependencies from the graph, and concurrency from the schedule's pipeline
// and duplication decisions. Peak power is derived from the maximum number
// of simultaneously activated crossbars, with converter and movement
// overheads attributed per active crossbar (calibrated to the §4.2
// 10%/83%/7% decomposition).
package perfsim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/sched"
)

// OpTiming records one operator's simulated execution interval; its cost
// is the cost model's (cost.Model.Op) under the schedule's settings.
type OpTiming struct {
	Start  float64
	Finish float64
	// ActiveXBs is the number of crossbars this operator keeps activated
	// while running (already accounting for duplication, remap and the
	// staggered-activation pipeline).
	ActiveXBs float64
}

// Report is the simulation result.
type Report struct {
	// Cycles is the end-to-end latency of one inference.
	Cycles float64
	// SegmentCycles is the latency per graph segment, from the end of the
	// weight reload that precedes segments after the first.
	SegmentCycles []float64
	// ReloadCycles is the total inter-segment weight-programming time
	// included in Cycles: for each segment after the first, the cost model's
	// Program of the wordlines its busiest core writes.
	ReloadCycles float64
	// PerOp is indexed by node ID: each simulated operator's timing, the
	// zero OpTiming for every other node.
	PerOp []OpTiming
	// PeakActiveXBs is the maximum number of simultaneously active
	// crossbars over the whole run; PeakPower converts it to power units.
	PeakActiveXBs float64
	PeakPower     cost.PowerBreakdown
	// Energy is the total crossbar read + reload energy.
	Energy float64
	// CoresUsed is the maximum cores occupied by any segment; XBsUsed the
	// total crossbars programmed (first round of each operator).
	CoresUsed int
	XBsUsed   int
}

// Simulate runs the schedule through the event model. It validates the
// schedule and its architecture before it builds the cost model. s.Graph
// must be shape-inferred — every schedule a compilation or a baseline makes
// is — and is only read, so schedules sharing a graph simulate concurrently.
func Simulate(s *sched.Schedule) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.Arch.Validate(); err != nil {
		return nil, err
	}
	m, err := cost.New(s.Graph, s.Arch)
	if err != nil {
		return nil, err
	}
	return SimulateWithModel(context.Background(), s, m, nil)
}

// SimulateWithModel is Simulate with a pre-built cost model (the optimizers
// reuse one model across many candidate schedules). ctx is checked once per
// simulated operator so a cancelled compilation stops mid-simulation on
// large schedules. p, when not nil, is a placement the caller holds: if it
// is the placement of s (mapping.Placement.Holds), the report's occupancy is
// the one p recorded; otherwise, as without one, it is folded from s.
func SimulateWithModel(ctx context.Context, s *sched.Schedule, m *cost.Model, p *mapping.Placement) (*Report, error) {
	// Occupancy first: the placement calculus refuses an illegal setting
	// before the cost model is asked to price it.
	rep := &Report{PerOp: make([]OpTiming, len(s.Graph.Nodes))}
	wordlines, err := fillOccupancy(ctx, s, m, p, rep)
	if err != nil {
		return nil, err
	}
	// segOf[id] is 1 + the segment that simulated node id, 0 until it has.
	segOf := make([]int, len(s.Graph.Nodes))
	segStart := 0.0
	for segIdx, seg := range s.Segments {
		if segIdx > 0 {
			// The first segment's weights are the flow's init section; every
			// later one is programmed before it runs.
			reload := m.Program(wordlines[segIdx])
			rep.ReloadCycles += reload
			segStart += reload
		}
		segEnd, err := simulateSegment(ctx, s, m, seg, segStart, segIdx+1, rep.PerOp, segOf)
		if err != nil {
			return nil, err
		}
		rep.SegmentCycles = append(rep.SegmentCycles, segEnd-segStart)
		segStart = segEnd
	}
	rep.Cycles = segStart
	rep.PeakActiveXBs = peakConcurrency(rep)
	rep.PeakPower = cost.PeakPower(s.Arch, rep.PeakActiveXBs)
	rep.Energy = totalEnergy(s, m, segOf)
	return rep, nil
}

// Segment simulates one segment of a schedule on its own, as Simulate
// simulates it within the whole schedule, in buffers it keeps across calls:
// what the duplication search asks of the simulator when it prices the
// copies of a segment it keeps. The zero value is ready to use; a Segment is
// not safe for concurrent use.
type Segment struct {
	perOp []OpTiming // by node ID: the timings of the last call that simulated the node
	mark  []int      // by node ID: that call's number, -1 for none
	calls int
}

// Makespan returns how long segment seg of s runs, from its start after its
// reload to its completion, as Simulate times it (Report.SegmentCycles).
// Every input produced outside seg counts as materialized, as a segment's
// inputs from an earlier segment do in Simulate. It prices s's copies and
// remap factors as given and checks neither the schedule nor its placement;
// s's tables are only read.
func (b *Segment) Makespan(ctx context.Context, s *sched.Schedule, m *cost.Model, seg []int) (float64, error) {
	if n := len(s.Graph.Nodes); len(b.mark) != n {
		b.perOp, b.mark, b.calls = make([]OpTiming, n), make([]int, n), 0
		//cimlint:ignore ctxcancel -- one store per node, once per graph; the segment loop polls per operator
		for i := range b.mark {
			b.mark[i] = -1
		}
	}
	b.calls++
	return simulateSegment(ctx, s, m, seg, 0, b.calls, b.perOp, b.mark)
}

// simulateSegment walks segment seg in order from segStart, computing each
// operator's start and finish under the pipeline (or strictly serial)
// discipline into perOp, and returns the segment's completion time. It marks
// each node it simulates with mark in segOf: an input marked otherwise was
// produced outside the segment and is materialized, one marked 0 was never
// simulated.
func simulateSegment(ctx context.Context, s *sched.Schedule, m *cost.Model, seg []int, segStart float64, mark int, perOp []OpTiming, segOf []int) (float64, error) {
	end := segStart
	prevFinish := segStart
	for _, id := range seg {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("perfsim: cancelled: %w", err)
		}
		n := s.Graph.MustNode(id)
		oc, err := m.Op(id, s.DupOf(id), s.RemapOf(id))
		if err != nil {
			return 0, fmt.Errorf("perfsim: node %d: %w", id, err)
		}
		start := segStart
		var lastInput float64
		for _, in := range n.Inputs {
			pred := s.Graph.MustNode(in)
			if pred.Op == graph.OpInput {
				continue
			}
			if segOf[in] == 0 {
				return 0, fmt.Errorf("perfsim: node %d consumes unsimulated node %d", id, in)
			}
			if segOf[in] != mark {
				// Produced by an earlier segment: fully materialized.
				continue
			}
			pt := &perOp[in]
			if s.Pipeline {
				ready := pt.Start + oc.FirstFrac*(pt.Finish-pt.Start)
				if ready > start {
					start = ready
				}
			} else if pt.Finish > start {
				start = pt.Finish
			}
			if pt.Finish > lastInput {
				lastInput = pt.Finish
			}
		}
		if !s.Pipeline {
			// Strictly layer-serial execution: one operator at a time.
			if prevFinish > start {
				start = prevFinish
			}
		}
		run := oc.Run()
		finish := start + run
		// An operator cannot emit its last result before its last input has
		// arrived and been processed for one stage time.
		if lastInput > 0 && lastInput+oc.PerWindow > finish {
			finish = lastInput + oc.PerWindow
		}
		perOp[id] = OpTiming{
			Start:     start,
			Finish:    finish,
			ActiveXBs: activeXBs(s, m, id, &oc),
		}
		segOf[id] = mark
		prevFinish = finish
		if finish > end {
			end = finish
		}
	}
	return end, nil
}

// activeXBs returns the crossbars node keeps concurrently activated. With
// the staggered MVM pipeline (Figure 12(d)) a crossbar only activates when
// its input chunk arrives: within a copy one row-stripe is live at a time,
// and across copies only as many copies as the shared global buffer can
// feed run concurrently. Without it every tile of every copy fires in
// lockstep once inputs are buffered — the traditional schedule of [39]. oc
// is the node's cost under the schedule, priced once by the caller.
func activeXBs(s *sched.Schedule, m *cost.Model, node int, oc *cost.OpCost) float64 {
	if !s.Graph.Nodes[node].Op.CIMSupported() {
		return 0 // digital operators draw ALU power, not crossbar power
	}
	f := &m.FPs[node]
	dup, remap := s.DupOf(node), s.RemapOf(node)
	perCopy := float64(f.TilesR * f.TilesC * remap)
	copies := float64(dup)
	if s.Stagger {
		cols := f.TilesC
		// Column tiles of one row-stripe need not fire in lockstep either:
		// the time-division activation spreads them at the rate the output
		// drain (ADC → local/global buffer) sustains, keeping crossbars
		// dark until their results can leave.
		if bound := drainableColTiles(m, f, oc); bound < cols {
			cols = bound
		}
		perCopy = float64(cols * remap)
		if f.TilesR == 1 && cols == f.TilesC {
			perCopy = float64(f.TilesC * remap)
		}
		copies = float64(feedableCopies(m, f, oc, dup))
	}
	total := perCopy * copies
	chip := float64(m.Arch.TotalCrossbars())
	if total > chip {
		total = chip
	}
	return total
}

// drainableColTiles bounds the column tiles of one row-stripe that fire
// concurrently by how fast the shared buffer drains their outputs: a tile's
// results occupy (weight columns × ActBits) of bandwidth, and keeping more
// tiles lit than the drain sustains only burns power.
func drainableColTiles(m *cost.Model, f *mapping.Footprint, oc *cost.OpCost) int {
	bw := m.Arch.Chip.L0BW
	if bw <= 0 {
		return f.TilesC
	}
	wColsPerTile := f.UsableCols / m.Arch.CellsPerWeight()
	if wColsPerTile <= 0 {
		return f.TilesC
	}
	drainPerTile := float64(wColsPerTile*m.Arch.ActBits) / bw
	if drainPerTile <= 0 {
		return f.TilesC
	}
	bound := int(oc.Compute/drainPerTile) + 1
	if bound > f.TilesC {
		return f.TilesC
	}
	if bound < 1 {
		return 1
	}
	return bound
}

// feedableCopies bounds the concurrently computing copies of an operator by
// the rate the shared L0 buffer can deliver their input windows: a copy
// stays active for its compute time, and a new window arrives every
// inBits/L0BW cycles.
func feedableCopies(m *cost.Model, f *mapping.Footprint, oc *cost.OpCost, dup int) int {
	bw := m.Arch.Chip.L0BW
	if bw <= 0 {
		return dup // ideal buffer feeds everyone
	}
	perWindowIn := float64(f.Rows*m.Arch.ActBits) / bw
	if perWindowIn <= 0 {
		return dup
	}
	feedable := int(oc.Compute/perWindowIn) + 1
	if feedable > dup {
		return dup
	}
	if feedable < 1 {
		return 1
	}
	return feedable
}

// peakConcurrency sweeps the interval timeline for the maximum sum of
// concurrently active crossbar counts.
func peakConcurrency(rep *Report) float64 {
	type event struct {
		t     float64
		delta float64
	}
	active := func(ot *OpTiming) bool { return ot.ActiveXBs > 0 && ot.Finish > ot.Start }
	n := 0
	for i := range rep.PerOp {
		if active(&rep.PerOp[i]) {
			n += 2
		}
	}
	events := make([]event, 0, n)
	for i := range rep.PerOp {
		if ot := &rep.PerOp[i]; active(ot) {
			events = append(events, event{ot.Start, ot.ActiveXBs}, event{ot.Finish, -ot.ActiveXBs})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta) // process departures first
	})
	cur, peak := 0.0, 0.0
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return math.Max(peak, 0)
}

// totalEnergy sums crossbar read energy over every MVM window plus reload
// write energy; it is independent of duplication (the same arithmetic is
// done, just spread wider) over the CIM nodes segOf marks simulated. Nodes
// are summed in ID order so repeated compilations produce bit-identical
// energy totals.
func totalEnergy(s *sched.Schedule, m *cost.Model, segOf []int) float64 {
	var total float64
	perXB := cost.ReadEnergyPerXBWindow(m.Arch)
	writeE := m.Arch.XB.Device.Profile().WriteEnergy
	for id := range m.FPs {
		if segOf[id] == 0 || !s.Graph.Nodes[id].Op.CIMSupported() {
			continue
		}
		f := &m.FPs[id]
		total += float64(f.MVMs) * float64(f.XBsPerCopy) * perXB
		if f.Rounds > 1 {
			cells := float64(f.Rows) * float64(f.CellCols)
			total += cells * writeE * float64(f.Rounds-1) / float64(f.Rounds)
		}
	}
	return total
}

// fillOccupancy counts the cores and crossbars the schedule occupies and
// returns the wordlines the busiest core writes to program each segment: the
// ones p recorded when p is the schedule's placement, else those the placement
// calculus folds from the schedule, which rejects a schedule the placer would
// reject with the same error.
func fillOccupancy(ctx context.Context, s *sched.Schedule, m *cost.Model, p *mapping.Placement, rep *Report) ([]int, error) {
	var cores, xbs, wordlines []int
	if p != nil && p.Holds(s.Graph, m.FPs, s.Dup, s.Remap, s.Segments) {
		cores, xbs, wordlines = p.SegmentCores, p.SegmentXBs, p.SegmentWordlines
	} else {
		var err error
		if cores, xbs, wordlines, err = mapping.Occupancy(ctx, s.Graph, s.Arch, m.FPs, s.Dup, s.Remap, s.Segments); err != nil {
			return nil, fmt.Errorf("perfsim: placement: %w", err)
		}
	}
	//cimlint:ignore ctxcancel -- max and sum over segment count; Holds and Occupancy above are per node
	for seg := range cores {
		rep.CoresUsed = max(rep.CoresUsed, cores[seg])
		rep.XBsUsed += xbs[seg]
	}
	return wordlines, nil
}
