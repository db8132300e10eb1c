// Package cg implements the computation-graph-grained (CG) optimization of
// CIM-MLC (§3.3.2): operator duplication searched by dynamic programming
// under the chip's core_number constraint, inter-operator pipeline
// balancing, and the resource-adaptive compute graph segmentation of
// Figure 9(b) for models that exceed chip capacity.
//
// The dynamic program is split in two (dupTable): a forward table built once
// per operator list, trying per operator only the copy counts that can win
// (one per distinct ceil(windows/d), see candidates), and a walk-back that
// reads the allocation of any leading sub-list off it — so the segmenter's
// pop-and-re-estimate loop prices every head it tries from one table, and a
// segment it keeps takes its duplication from that table too. The walk-back
// writes copies by node ID, straight into the schedule's Dup as each segment
// is kept. One Optimize call builds all its tables in the buffers of two, the
// one the segmenter shares across its pops and one for every other search
// (workspace): a model cut into a hundred segments allocates its tables once,
// not once per segment. The table is built candidate-major (each candidate
// streams over the columns it fits), and each row streams and stores only its
// live window: no dead prefix where no allocation fits, no constant tail past
// the point where the row stops changing, and, in a search's table, no column
// past what its one walk-back can read with one copy of every later operator
// in reserve. A search prices its last operator as the one cell the walk-back
// starts from.
package cg

import (
	"context"
	"fmt"
	"math"

	"cimmlc/internal/arch"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/sched"
)

// Allocator selects the duplication-search strategy; the paper's dynamic
// program is the default, the water-filling bottleneck balancer is kept as
// an ablation point (see DESIGN.md).
type Allocator string

const (
	// AllocDP minimizes the summed operator runtime by dynamic programming
	// over the core budget — the paper's search.
	AllocDP Allocator = "dp"
	// AllocWaterfill minimizes the pipeline bottleneck stage by binary
	// search + greedy top-up.
	AllocWaterfill Allocator = "waterfill"
)

// Options selects which CG techniques run.
type Options struct {
	Pipeline  bool      // enable inter-operator pipelining
	Duplicate bool      // enable the duplication search
	Allocator Allocator // empty means AllocDP
	// Stationary forbids weight reloading: a model whose footprint exceeds
	// one chip fails with ErrOverCapacity instead of being segmented (or
	// multi-rounded) onto reprogrammed crossbars.
	Stationary bool
}

// opInfo caches the per-operator quantities the optimizer needs.
type opInfo struct {
	id        int
	cim       bool
	coresCopy int     // cores per additional copy
	maxDup    int     // duplication ceiling (capacity, window count, rounds)
	windows   int64   // work units at dup 1
	perWindow float64 // stage cycles per unit
	rounds    int
	reload    float64 // cycles to program rounds 1 … rounds−1
}

// run is cost.OpCost.Run at d copies, remap 1.
func (oi opInfo) run(d int) float64 {
	w := ceilDiv64(oi.windows, int64(d))
	return float64(oi.rounds)*float64(w)*oi.perWindow + oi.reload
}

// Optimize performs CG-grained optimization and returns the schedule
// (Levels = ["CG"]). The cost model m must be built over (g, a). ctx is
// polled once per operator of every duplication search, so a cancelled
// compilation stops mid-search.
func Optimize(ctx context.Context, g *graph.Graph, a *arch.Arch, m *cost.Model, opt Options) (*sched.Schedule, error) {
	if opt.Allocator == "" {
		opt.Allocator = AllocDP
	}
	infos, order, err := collectInfos(g, a, m)
	if err != nil {
		return nil, err
	}
	s := &sched.Schedule{
		Graph:    g,
		Arch:     a,
		Dup:      make([]int, len(g.Nodes)),
		Remap:    make([]int, len(g.Nodes)),
		Pipeline: opt.Pipeline,
		Levels:   []string{"CG"},
	}
	w := workspace{m: m, infos: infos, budget: a.Chip.CoreCount(), opt: opt, dup: s.Dup}
	if s.Segments, err = w.segment(ctx, order); err != nil {
		return nil, err
	}
	return s, nil
}

// workspace is one Optimize call's search state: its inputs, the schedule's
// copies it writes, and the tables its searches reuse, so that a model cut
// into a hundred segments allocates tables once, not once per segment. It
// lives and dies inside that call.
type workspace struct {
	m      *cost.Model
	infos  []opInfo // by node ID
	budget int      // the chip's cores
	opt    Options
	dup    []int // the schedule's copies by node ID: a kept segment's are final
	// shared is the table refinePrefix walks back across its pops, scratch
	// the one every other search builds meanwhile; sharedOps and ops are the
	// operator lists they are built over.
	shared, scratch dupTable
	sharedOps, ops  []opInfo
}

// collectInfos builds opInfo for every non-input node, in a table indexed by
// node ID (an input's entry is the zero opInfo), and returns the non-input
// nodes in topological order.
func collectInfos(g *graph.Graph, a *arch.Arch, m *cost.Model) ([]opInfo, []int, error) {
	infos := make([]opInfo, len(g.Nodes))
	order := make([]int, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		oc, err := m.Op(n.ID, 1, 1)
		if err != nil {
			return nil, nil, fmt.Errorf("cg: node %d: %w", n.ID, err)
		}
		oi := opInfo{
			id:        n.ID,
			cim:       n.Op.CIMSupported(),
			windows:   oc.Windows,
			perWindow: oc.PerWindow,
			rounds:    oc.Rounds,
			reload:    oc.Reload,
		}
		if oi.cim {
			f := &m.FPs[n.ID]
			oi.coresCopy = f.CoresPerCopy
			oi.maxDup = int(minI64(int64(a.Chip.CoreCount()*a.Core.XBCount()/maxInt(f.XBsPerCopy, 1)), f.MVMs))
			if oi.maxDup < 1 {
				oi.maxDup = 1
			}
			if oi.rounds > 1 {
				oi.maxDup = 1
				oi.coresCopy = a.Chip.CoreCount()
			}
		}
		infos[n.ID] = oi
		order = append(order, n.ID)
	}
	return infos, order, nil
}

// segCIMInfos returns the CIM operators of seg, in order, in buf's storage.
func segCIMInfos(buf, infos []opInfo, seg []int) []opInfo {
	buf = buf[:0]
	for _, id := range seg {
		if oi := infos[id]; oi.cim {
			buf = append(buf, oi)
		}
	}
	return buf
}

// coresAtDupOne returns the cores ops occupy with one copy each.
func coresAtDupOne(ops []opInfo) int {
	cores := 0
	for _, oi := range ops {
		cores += oi.coresCopy
	}
	return cores
}

// allocate distributes the core budget over the CIM operators of nodes and
// writes each one's copies into w.dup.
func (w *workspace) allocate(ctx context.Context, nodes []int) error {
	w.ops = segCIMInfos(w.ops, w.infos, nodes)
	if len(w.ops) == 0 {
		return nil
	}
	if baseline := coresAtDupOne(w.ops); baseline > w.budget {
		return fmt.Errorf("cg: segment needs %d cores at dup 1 but budget is %d", baseline, w.budget)
	}
	if w.opt.Allocator == AllocWaterfill {
		//cimlint:ignore ctxcancel -- one store per operator, after the search
		for i, d := range waterfill(w.ops, w.budget) {
			w.dup[w.ops[i].id] = d
		}
		return nil
	}
	return w.scratch.allocateDP(ctx, w.ops, w.budget, w.dup)
}

// allocateDP is the paper's dynamic-programming search: the copies per
// operator that minimize the summed runtime within the core budget, written
// into dup by node ID. Only the last operator's cell at the full budget is
// ever read, so t is built over the rows before it and that one cell is
// priced off its last row (a one-operator search builds no row); the rows
// are walked back from the cores the cell leaves, at most budget − the last
// operator's cores, which the table takes as its reserve.
func (t *dupTable) allocateDP(ctx context.Context, ops []opInfo, budget int, dup []int) error {
	n := len(ops) - 1
	if err := t.build(ctx, ops[:n], budget, ops[n].coresCopy); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return cancelled(err)
	}
	last := ops[n]
	d := max(1, t.next(last))
	t.walk(dup, n, max(0, budget-d*last.coresCopy))
	dup[last.id] = d
	if searchDone != nil {
		searchDone(t)
	}
	return nil
}

func cancelled(err error) error { return fmt.Errorf("cg: cancelled: %w", err) }

// candidate is one copy count worth trying for an operator.
type candidate struct {
	d, cores int
	run      float64
}

// candidates appends to buf the copy counts of oi that can win a table cell,
// in ascending order: run(d) depends on d only through ceil(windows/d), the
// table's rows are non-increasing in the cores left and a tie keeps the
// candidate tried first, so of the copy counts sharing a ceiling only the
// smallest is ever chosen. The list stops at maxDup, at the budget, and at
// the first d ≥ windows (one window per copy: more copies cannot help).
func (oi opInfo) candidates(budget int, buf []candidate) []candidate {
	for d := 1; d <= oi.maxDup && d*oi.coresCopy <= budget; {
		buf = append(buf, candidate{d, d * oi.coresCopy, oi.run(d)})
		q := ceilDiv64(oi.windows, int64(d))
		if q <= 1 {
			break
		}
		d = int(ceilDiv64(oi.windows, q-1)) // the smallest d with a lower ceiling
	}
	return buf
}

// inf is the summed runtime of a cell no allocation fits.
const inf = math.MaxFloat64 / 4

// dupTable is the forward half of the dynamic program over ops and a core
// budget: row i holds, for every r ≤ budget, how many copies operator i gets
// in the allocation of ops[:i+1] to at most r cores that minimizes their
// summed runtime (0: no copy fits). Row i depends on operators 0..i only, so
// one table answers every leading sub-list of ops (dup).
//
// A row stores only its live window, the columns a walk-back can read that
// its candidates decide (span, at):
//   - Dead prefix. Below L_i + coresCopy_i, L_i the cores of one copy of each
//     operator before row i, no allocation fits: the row before is inf there
//     and the choice is 0.
//   - Constant tail. Row i is constant from S_i, the summed cores of the
//     largest candidates of operators 0..i, on: every candidate fits there,
//     and reads the row before at an index ≥ S_(i-1), where that row is
//     constant too. Column r > S_i reads column S_i, so a core budget far
//     beyond what the operators can use costs the table nothing.
//   - One-walk reserve. A table built with a reserve is walked once, over
//     all its rows, from at most budget − reserve cores (allocateDP: the last
//     operator takes at least one copy after them). Each operator after row
//     i takes at least one copy too, so row i is read only up to its cap,
//     budget − reserve − Σ_(j>i) coresCopy_j, and holds no column past it:
//     with the dead prefix, no row is wider than the cores the walk can
//     spare, budget − reserve − Σ_j coresCopy_j, plus one.
type dupTable struct {
	ops    []opInfo
	budget int
	spans  []span    // row i's live window
	choice []int     // row i at column r in its window is choice[spans[i].off+r]
	last   []float64 // the last row's minimal summed runtimes (zeros for no row)
	// cands holds every row's candidates back to back, row i's at
	// cands[starts[i]:starts[i+1]], then those of the cell next priced.
	cands  []candidate
	starts []int
	rows   []float64 // the two float rows build streams; last is one of them
}

// span is one row's live window: its candidates stream over the columns
// lo..end it fits (none if end < lo), and the columns end+1..cap hold the
// value of column end, the row's constant tail.
type span struct{ lo, end, cap, off int }

// searchDone, when a test sets it, sees every forward table a search built
// once the search is done with it, before the table is built again: the
// search-work counts quoted in CHANGES.md are read through it.
var searchDone func(*dupTable)

// resize returns s at length n, reallocated only when its capacity is short;
// its contents are not kept.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build fills t with the table over ops, in the buffers of the table t held
// before: candidate-major, a row starts at inf over its live window, and each
// candidate, in ascending d, streams over the columns of that window it fits.
// Every cell a walk-back reads so sees the candidates a column-by-column scan
// tries on a finite row before, in its order, through the same float
// expression and strict <, and holds the value and choice that scan finds (a
// candidate on an inf cell of the row before cannot win it). reserve > 0 caps
// the rows for the one walk allocateDP makes; reserve 0 keeps every column,
// for walk-backs of any head from the full budget. ctx is polled once per row.
func (t *dupTable) build(ctx context.Context, ops []opInfo, budget, reserve int) error {
	t.ops, t.budget, t.cands = ops, budget, t.cands[:0]
	t.spans, t.starts = resize(t.spans, len(ops)), resize(t.starts, len(ops)+1)
	t.starts[0] = 0
	total := 0 // L_n, the cores of one copy of every operator
	//cimlint:ignore ctxcancel -- O(√windows) candidates per operator; the row loop below polls per row
	for i, oi := range ops {
		t.cands = oi.candidates(budget, t.cands)
		t.starts[i+1] = len(t.cands)
		total += oi.coresCopy
	}
	// Under a reserve, every row's cap lies the cores a walk can spare above
	// its lo: row i's lo is L_(i+1), and its cap is budget − reserve − L_n +
	// L_(i+1).
	spare := budget - reserve - total
	low, sum, size, end := 0, 0, 0, 0 // L_i, S_i, the columns stored so far and the last row's end
	//cimlint:ignore ctxcancel -- O(1) per operator; the row loop below polls per row
	for i, oi := range ops {
		if c := t.starts[i+1]; c > t.starts[i] {
			sum += t.cands[c-1].cores
		}
		sp := span{lo: low + oi.coresCopy, cap: budget}
		if reserve > 0 {
			sp.cap = sp.lo + spare
		}
		sp.end = min(sp.cap, sum)
		sp.off = size - sp.lo
		size += max(0, sp.end+1-sp.lo)
		t.spans[i] = sp
		low, end = sp.lo, sp.end
	}
	// Candidate d = 1 writes every stored cell (the row before is finite
	// over what it reads); the zeroing keeps a fresh table's choice 0 for a
	// cell it would not.
	t.choice = resize(t.choice, size)
	clear(t.choice)
	// prev[r] is the minimal summed runtime of the operators before row i on
	// at most r cores, cur[r] the same including operator i; a row's buffer is
	// meaningful from its lo to its cap only. No row ends past the last.
	w := max(0, end) + 1
	t.rows = resize(t.rows, 2*w)
	prev, cur := t.rows[:w], t.rows[w:]
	clear(prev) // before row 0: no operators, zero runtime at every r
	for i, oi := range ops {
		if err := ctx.Err(); err != nil {
			return cancelled(err)
		}
		sp := t.spans[i]
		if sp.end < sp.lo {
			// No live column: this row or one before has no candidate (an
			// operator with no copy count to try), so no allocation fits
			// anywhere, or a reserve leaves the row nothing to store. The next
			// row reads it from L_(i+1), this row's lo, on: inf there.
			if hi := min(sp.cap, w-1) + 1; sp.lo < hi {
				dead := cur[sp.lo:hi]
				for r := range dead {
					dead[r] = inf
				}
			}
		} else {
			win, row := cur[sp.lo:sp.end+1], t.choice[sp.off+sp.lo:sp.off+sp.end+1]
			for r := range win {
				win[r] = inf
			}
			from := sp.lo - oi.coresCopy // L_i: the row before is finite from here
			for _, c := range t.cands[t.starts[i]:t.starts[i+1]] {
				k := c.cores - oi.coresCopy // c's first column in the window
				if k >= len(win) {
					break
				}
				src := prev[from : from+len(win)-k]
				dst, ch := win[k:], row[k:]
				dst, ch = dst[:len(src)], ch[:len(src)]
				for r, p := range src {
					if v := p + c.run; v < dst[r] {
						dst[r], ch[r] = v, c.d
					}
				}
			}
			tail, v := cur[sp.end+1:min(sp.cap, w-1)+1], cur[sp.end]
			for r := range tail {
				tail[r] = v
			}
		}
		prev, cur = cur, prev
	}
	// next reads the last row below its window (its lo is now low) too,
	// where it is inf.
	//cimlint:ignore ctxcancel -- one pass over one row, after the last poll
	for r := range min(low, w) {
		prev[r] = inf
	}
	t.last = prev
	return nil
}

// at returns row i's choice at r cores: 0 below its window, and past it the
// choice at its end.
func (t *dupTable) at(i, r int) int {
	sp := t.spans[i]
	if r = min(r, sp.end); r < sp.lo {
		return 0
	}
	return t.choice[sp.off+r]
}

// next returns the copies oi gets at the full budget when it follows the
// table's operators: the one cell of a row after the last, tried with that
// row's candidates, float expression and tie rule.
func (t *dupTable) next(oi opInfo) int {
	t.cands = oi.candidates(t.budget, t.cands)
	best, bestD := inf, 0
	for _, c := range t.cands[t.starts[len(t.ops)]:] {
		if v := t.last[min(t.budget-c.cores, len(t.last)-1)] + c.run; v < best {
			best, bestD = v, c.d
		}
	}
	return bestD
}

// walk walks the choices of the first k operators back from r cores and
// writes their copies into dup by node ID: from the full budget, what a
// fresh search over ops[:k] returns.
func (t *dupTable) walk(dup []int, k, r int) {
	for i := k - 1; i >= 0; i-- {
		d := max(1, t.at(i, r))
		dup[t.ops[i].id] = d
		r = max(0, r-d*t.ops[i].coresCopy)
	}
}

// waterfill minimizes the pipeline bottleneck stage: binary search the
// target stage time T, then spend leftover cores on whichever operator
// currently bounds the pipeline.
func waterfill(ops []opInfo, budget int) []int {
	// Feasibility check for a target T: the duplication each op needs.
	need := func(t float64) (int, []int) {
		total := 0
		dup := make([]int, len(ops))
		for i, oi := range ops {
			d := 1
			if t > 0 && oi.perWindow > 0 {
				d = int(math.Ceil(float64(oi.windows) * oi.perWindow * float64(oi.rounds) / t))
			}
			if d < 1 {
				d = 1
			}
			if d > oi.maxDup {
				d = oi.maxDup
			}
			dup[i] = d
			total += d * oi.coresCopy
		}
		return total, dup
	}
	lo, hi := 1.0, 0.0
	for _, oi := range ops {
		if r := oi.run(1); r > hi {
			hi = r
		}
	}
	best := make([]int, len(ops))
	for i := range best {
		best[i] = 1
	}
	for iter := 0; iter < 64 && hi-lo > 1e-6*hi; iter++ {
		mid := (lo + hi) / 2
		total, dup := need(mid)
		if total <= budget {
			hi = mid
			best = dup
		} else {
			lo = mid
		}
	}
	// Greedy top-up with the leftovers.
	used := 0
	for i, oi := range ops {
		used += best[i] * oi.coresCopy
	}
	for {
		// Find the bottleneck that can still be improved.
		bi, bt := -1, -1.0
		for i, oi := range ops {
			d := best[i]
			if d >= oi.maxDup {
				continue
			}
			if used+oi.coresCopy > budget {
				continue
			}
			if t := oi.run(d); t > bt {
				bt = t
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		best[bi]++
		used += ops[bi].coresCopy
	}
	return best
}

// ceilDiv64 rounds up; divisors come from arch fields already checked
// positive by arch.Validate.
func ceilDiv64(a, b int64) int64 {
	return (a + b - 1) / b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
