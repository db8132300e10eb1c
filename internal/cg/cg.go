// Package cg implements the computation-graph-grained (CG) optimization of
// CIM-MLC (§3.3.2): operator duplication searched by dynamic programming
// under the chip's core_number constraint, inter-operator pipeline
// balancing, and the resource-adaptive compute graph segmentation of
// Figure 9(b) for models that exceed chip capacity.
//
// Every duplication search (allocateDP) is one dynamic program over an
// operator list, split in two (dupTable): a forward table with a row for
// each operator but the last, trying per operator only the copy counts that
// can win (one per distinct ceil(windows/d), see candidates), then the last
// operator priced as the one cell at the full budget and the rows walked
// back from the cores it leaves, writing copies by node ID straight into the
// schedule's Dup. The segmenter's pop-and-re-estimate loop prices every head
// it tries and every popped group with such a search, and a head it keeps
// holds the copies its search wrote. One Optimize call builds all its tables
// in the buffers of two (workspace): the one the segmenter's heads are
// searched on, which keeps its candidates from one head to the next (each is
// a leading part of the one before), and one for every other search; a model
// cut into a hundred segments allocates its tables once, not once per
// segment. The table is built candidate-major (each candidate streams over
// the columns it fits), and each row streams and stores only its live window:
// no dead prefix where no allocation fits, no constant tail past the point
// where the row stops changing, and no column past what the walk-back can
// read with one copy of every later operator in reserve. Row 0, which reads a
// row of zeros, is closed-form. A table with cores to spare (minPruneSpare) is
// pruned to the cells an optimal walk can read: a cell whose value plus a
// lower bound on the operators after it (their continuous relaxation) exceeds
// the summed runtime of one feasible allocation (a greedy one) holds inf with
// choice 0, and the next row streams only over the finite band of the row
// before. Every cell an optimal walk reads is exact, so the search returns
// what the unpruned program returns, choice for choice.
//
// The dynamic program minimizes a segment's summed runtime, a number the
// simulator never charges: internal/perfsim pipelines a segment, so its time
// follows its slowest chain. Under AllocDP with Pipeline on, each segment the
// segmenter keeps is therefore arbitrated (workspace.arbitrate): the
// bottleneck balancer, waterfill, allocates the same operators and budget,
// and when its copies differ the simulator's own segment simulation prices
// both on the copies the final schedule will hold, and the faster wins, the
// DP's on a tie. With Pipeline off a segment runs serially and the sum is its
// exact makespan, so nothing is arbitrated; nor are the segmenter's pops,
// which stay priced by the sum.
package cg

import (
	"context"
	"fmt"
	"math"
	"slices"

	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
)

// Allocator selects the duplication-search strategy; the paper's dynamic
// program is the default, the water-filling bottleneck balancer is kept as
// an ablation point (see DESIGN.md).
type Allocator string

const (
	// AllocDP minimizes the summed operator runtime by dynamic programming
	// over the core budget — the paper's search. With Pipeline on, a segment
	// it keeps is then arbitrated: the simulator prices its copies against
	// AllocWaterfill's for the same operators and budget, and keeps
	// waterfill's when they run strictly faster.
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
	// Repack tells the search that the MVM level will repack its copies at
	// crossbar granularity (Equation 1, mapping.Footprint.RepackedCopies),
	// so that AllocDP's arbitration prices the copies the final schedule
	// holds.
	Repack bool
}

// Optimize performs CG-grained optimization over m's graph and architecture
// and returns the schedule (Levels = ["CG"]). ctx is polled once per
// operator of every duplication search, so a cancelled compilation stops
// mid-search.
func Optimize(ctx context.Context, m *cost.Model, opt Options) (*sched.Schedule, error) {
	if opt.Allocator == "" {
		opt.Allocator = AllocDP
	}
	g := m.Graph
	s := &sched.Schedule{
		Graph:    g,
		Arch:     m.Arch,
		Dup:      make([]int, len(g.Nodes)),
		Remap:    make([]int, len(g.Nodes)),
		Pipeline: opt.Pipeline,
		Levels:   []string{"CG"},
	}
	w := workspace{m: m, budget: m.Arch.Chip.CoreCount(), opt: opt, dup: s.Dup}
	w.arbitrates = opt.Duplicate && opt.Pipeline && opt.Allocator == AllocDP
	var err error
	if s.Segments, err = w.segment(ctx, nonInputs(g)); err != nil {
		return nil, err
	}
	return s, nil
}

// nonInputs returns the IDs of g's non-input nodes in topological order.
func nonInputs(g *graph.Graph) []int {
	order := make([]int, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Op != graph.OpInput {
			order = append(order, n.ID)
		}
	}
	return order
}

// workspace is one Optimize call's search state: its inputs, the schedule's
// copies it writes, and the tables its searches reuse, so that a model cut
// into a hundred segments allocates tables once, not once per segment. It
// lives and dies inside that call. Every operator is read off the model's
// rows by node ID.
type workspace struct {
	m      *cost.Model
	budget int // the chip's cores
	opt    Options
	dup    []int // the schedule's copies by node ID: a kept segment's are final
	// shared is the table refinePrefix prices its heads on, scratch the one
	// every other search builds (popped groups included); ops is the node IDs
	// of the operators a search is built over, and kept the copies of
	// refinePrefix's prefix by position, saved before it prices a pop, for a
	// refused pop to restore.
	shared, scratch dupTable
	ops, kept       []int
	// fill is waterfill's buffer. arbitrates says whether each kept segment
	// is arbitrated (arbitrate); sim is the schedule its copies are priced
	// on, whose Dup, priced, holds the copies under price by node ID, and
	// seg the simulator's buffers.
	fill       []int
	arbitrates bool
	sim        sched.Schedule
	priced     []int
	seg        perfsim.Segment
}

// segCIMOps returns the CIM operators of seg, in order, in buf's storage.
func segCIMOps(buf []int, rows []cost.Row, seg []int) []int {
	buf = buf[:0]
	for _, id := range seg {
		if rows[id].Cores > 0 {
			buf = append(buf, id)
		}
	}
	return buf
}

// coresAtDupOne returns the cores ops occupy with one copy each.
func coresAtDupOne(rows []cost.Row, ops []int) int {
	cores := 0
	for _, id := range ops {
		cores += rows[id].Cores
	}
	return cores
}

// allocate distributes the core budget over the CIM operators of nodes and
// writes each one's copies into w.dup; the dynamic program builds its table
// in t's buffers.
func (w *workspace) allocate(ctx context.Context, t *dupTable, nodes []int) error {
	rows := w.m.Rows
	w.ops = segCIMOps(w.ops, rows, nodes)
	if len(w.ops) == 0 {
		return nil
	}
	if baseline := coresAtDupOne(rows, w.ops); baseline > w.budget {
		return fmt.Errorf("cg: segment needs %d cores at dup 1 but budget is %d", baseline, w.budget)
	}
	if w.opt.Allocator == AllocWaterfill {
		w.fill = waterfill(rows, w.ops, w.budget, w.fill)
		//cimlint:ignore ctxcancel -- one store per operator, after the search
		for i, d := range w.fill {
			w.dup[w.ops[i]] = d
		}
		return nil
	}
	return t.allocateDP(ctx, rows, w.ops, w.budget, w.dup)
}

// arbitrated, when a test sets it, sees every segment arbitrate priced both
// ways, and whether it switched to waterfill's copies: the counts CHANGES.md
// quotes are read through it.
var arbitrated func(switched bool)

// arbitrate lets the simulator pick the copies of seg, a segment the
// dynamic program has allocated: AllocDP minimizes the summed runtime of its
// operators, while the simulator pipelines them, so a segment's time follows
// its slowest chain, which the bottleneck balancer (waterfill) targets. When
// waterfill over the same operators and budget gives other copies, both are
// priced by the simulator's own segment simulation (perfsim.Segment) on the
// copies the final schedule will hold — repacked by Equation 1 when
// Options.Repack says the MVM level will run — and waterfill's are kept
// only when strictly faster. A segment with fewer than two CIM operators has
// nothing to balance.
func (w *workspace) arbitrate(ctx context.Context, seg []int) error {
	rows := w.m.Rows
	if w.ops = segCIMOps(w.ops, rows, seg); len(w.ops) < 2 {
		return nil
	}
	if w.priced == nil {
		// One allocation for the priced copies and every waterfill after.
		n := len(rows)
		buf := make([]int, 3*n)
		w.priced, w.fill = buf[:n:n], buf[n:n]
		w.sim = sched.Schedule{Graph: w.m.Graph, Arch: w.m.Arch, Dup: w.priced, Pipeline: true}
	}
	w.fill = waterfill(rows, w.ops, w.budget, w.fill)
	if w.holds(w.fill) {
		return nil
	}
	//cimlint:ignore ctxcancel -- one store per operator; Makespan polls per operator
	for _, id := range w.ops {
		w.priced[id] = w.repacked(id, w.dup[id])
	}
	dp, err := w.seg.Makespan(ctx, &w.sim, w.m, seg)
	if err != nil {
		return err
	}
	//cimlint:ignore ctxcancel -- one store per operator; Makespan polls per operator
	for i, id := range w.ops {
		w.priced[id] = w.repacked(id, w.fill[i])
	}
	filled, err := w.seg.Makespan(ctx, &w.sim, w.m, seg)
	if err != nil {
		return err
	}
	switched := filled < dp
	if switched {
		//cimlint:ignore ctxcancel -- one store per operator, after the pricing
		for i, id := range w.ops {
			w.dup[id] = w.fill[i]
		}
	}
	if arbitrated != nil {
		arbitrated(switched)
	}
	return nil
}

// holds reports whether w.dup gives each of w.ops the copies of dup, one
// entry per operator.
func (w *workspace) holds(dup []int) bool {
	for i, id := range w.ops {
		if w.dup[id] != dup[i] {
			return false
		}
	}
	return true
}

// repacked returns the copies d core-grain copies of node become in the
// final schedule: Equation 1's under Options.Repack, else d.
func (w *workspace) repacked(node, d int) int {
	if !w.opt.Repack {
		return d
	}
	return w.m.FPs[node].RepackedCopies(w.m.Arch, d)
}

// allocateDP is the paper's dynamic-programming search: the copies per
// operator of ops, node IDs into rows, that minimize the summed runtime
// within the core budget, written into dup by node ID. Only the last
// operator's cell at the full budget is ever read, so t is built as a
// one-walk table over the rows before it, and that one cell is priced off
// its last row (a one-operator search builds no row); the rows are walked
// back from the cores the cell leaves.
func (t *dupTable) allocateDP(ctx context.Context, rows []cost.Row, ops []int, budget int, dup []int) error {
	if err := t.build(ctx, rows, ops, budget); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return cancelled(err)
	}
	n := len(t.spans)
	last := &rows[ops[n]]
	d := max(1, t.next())
	t.walk(dup, max(0, budget-d*last.Cores))
	dup[ops[n]] = d
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

// candidates appends to buf the copy counts of r that can win a table cell,
// in ascending order: RunAt(d) depends on d only through ceil(Windows/d), the
// table's rows are non-increasing in the cores left and a tie keeps the
// candidate tried first, so of the copy counts sharing a ceiling only the
// smallest is ever chosen. The list stops at MaxDup, at the budget, and at
// the first d ≥ Windows (one window per copy: more copies cannot help).
func candidates(r *cost.Row, budget int, buf []candidate) []candidate {
	for d := 1; d <= r.MaxDup && d*r.Cores <= budget; {
		buf = append(buf, candidate{d, d * r.Cores, r.RunAt(d)})
		q := ceilDiv64(r.Windows, int64(d))
		if q <= 1 {
			break
		}
		d = int(ceilDiv64(r.Windows, q-1)) // the smallest d with a lower ceiling
	}
	return buf
}

// inf is the summed runtime of a cell no allocation fits.
const inf = math.MaxFloat64 / 4

// minPruneSpare is the fewest cores a table's walk must be able to spare for
// the table to be pruned: rows narrower than that stream in about the time
// the bound takes (greedy, admit, prune), as the small chips' segment heads
// do. Tests lower it to hold the bound to the exhaustive search everywhere.
var minPruneSpare = 32

// dupTable is the forward half of the dynamic program over ops, node IDs into
// rows, and a core budget: a row for each operator but the last, whose one
// cell at the full budget next prices. Row i holds, for the columns r the
// table's one walk-back can read, how many copies operator i gets in the
// allocation of ops[:i+1] to at most r cores that minimizes their summed
// runtime (0: no copy fits).
//
// A row stores only its live window, the columns the walk-back can read that
// its candidates decide (span, at):
//   - Dead prefix. Below L_i + Cores_i, L_i the cores of one copy of each
//     operator before row i, no allocation fits: the row before is inf there
//     and the choice is 0.
//   - Constant tail. Row i is constant from S_i, the summed cores of the
//     largest candidates of operators 0..i, on: every candidate fits there,
//     and reads the row before at an index ≥ S_(i-1), where that row is
//     constant too. Column r > S_i reads column S_i, so a core budget far
//     beyond what the operators can use costs the table nothing.
//   - Reserve. The table is walked once, over all its rows, from at most
//     budget − Cores_last cores: the last operator takes at least one copy.
//     Each operator after row i takes at least one copy too, so row i is read
//     only up to its cap, budget − Σ_(j>i) Cores_j (the last operator
//     included), and holds no column past it: with the dead prefix, no row is
//     wider than the cores the walk can spare, budget − Σ_j Cores_j, plus one.
//
// Row 0 reads a row of zeros, so it is written in closed form (firstRow). A
// table whose walk can spare minPruneSpare cores or more is also pruned to
// the cells an optimal walk can read (bound): a cell whose value plus a lower
// bound on the operators after its row exceeds the summed runtime of one
// feasible allocation holds inf with choice 0. Each row's window is first cut
// to the columns where a lower bound on its own operators leaves any cell a
// chance (admit), then each cell is checked (prune), and the next row streams
// only over the row's finite band. Every cell an optimal walk reads holds
// what the unpruned table holds; the others may hold more.
//
// A build over a leading part of the operators the table last listed, on the
// same rows and budget, keeps their candidates: the heads refinePrefix prices
// shrink from the end. The table compares against its own copy of the IDs,
// not the caller's buffer.
type dupTable struct {
	rows   []cost.Row
	ops    []int // row i's operator is ops[i], the last is next's: the table's own copy
	budget int
	fresh  bool      // whether the last build listed its candidates rather than kept them
	spans  []span    // row i's live window, one per row
	choice []int     // row i at column r in its window is choice[spans[i].off+r]
	last   []float64 // the last row's summed runtimes, inf outside its finite band (zeros for no row)
	// cands holds every row's candidates back to back, row i's at
	// cands[starts[i]:starts[i+1]], then those of the cell next priced.
	// ops (its first len(rows) words), starts and the picks and heap of the
	// allocation bound greedily takes share one buffer.
	cands  []candidate
	starts []int
	sums   []float64 // the two float rows build streams; last is one of them
}

// span is one row's live window: its candidates stream over the columns
// lo..end it fits (none if end < lo), and the columns end+1..cap hold the
// value of column end, the row's constant tail (none when admit cut the
// window short). Its candidates read the row before only at the columns
// from..to, that row's finite band (row 0 reads none: firstRow). In a
// pruned table, the cell at r with value v is pruned when v + sq/(budget −
// r) > lim (bound).
type span struct {
	lo, end, cap, off, from, to int
	sq, lim                     float64
}

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
// before: the last of ops is no row but the cell next prices, its cores are
// the rows' reserve, and the table is pruned when bound can bound it.
//
// Row 0 is closed-form; every later row starts at inf over its live window,
// and each candidate, in ascending d, streams over the columns of that window
// it fits whose cell of the row before is in that row's finite band. Every
// cell a walk-back reads so sees the candidates a column-by-column scan
// tries on a finite cell of the row before, in its order, through the same
// float expression and strict <, and holds the value and choice that scan
// finds (a candidate on an inf cell of the row before cannot win it). ctx is
// polled once per row.
func (t *dupTable) build(ctx context.Context, rows []cost.Row, ops []int, budget int) error {
	m := len(ops)
	// The candidates of the operators last listed stay at cands[:starts[m]]:
	// a build's greedy writes its picks and heap past starts[m].
	t.fresh = m > len(t.ops) || budget != t.budget || len(rows) != len(t.rows) || &rows[0] != &t.rows[0] || !slices.Equal(ops, t.ops[:m])
	t.rows, t.budget = rows, budget
	ints := resize(t.ops, len(rows)+3*m+1)
	t.spans, t.starts = resize(t.spans, m-1), ints[len(rows):len(rows)+m+1]
	if t.fresh {
		t.ops, t.cands, t.starts[0] = append(ints[:0], ops...), t.cands[:0], 0
		//cimlint:ignore ctxcancel -- O(√windows) candidates per operator; the row loop below polls per row
		for i, id := range ops {
			t.cands = candidates(&rows[id], budget, t.cands)
			t.starts[i+1] = len(t.cands)
		}
	} else {
		t.ops, t.cands = ints[:m], t.cands[:t.starts[m]]
	}
	ops = ops[:m-1]
	clear(t.spans)
	// Every row's cap lies the cores a walk can spare above its lo: row i's lo
	// is L_(i+1), and its cap is budget − Cores_last − L_n + L_(i+1), L_n the
	// cores of one copy of every row's operator.
	spare := budget - coresAtDupOne(rows, t.ops)
	prune := spare >= minPruneSpare && t.bound(t.ops)
	low, sum, size, end := 0, 0, 0, 0 // L_i, S_i, the columns stored so far and the last row's uncut end
	root, reload := 0.0, 0.0          // the bound's terms for the operators up to row i
	//cimlint:ignore ctxcancel -- O(log columns) per operator; the row loop below polls per row
	for i, id := range ops {
		r := &rows[id]
		if c := t.starts[i+1]; c > t.starts[i] {
			sum += t.cands[c-1].cores
		}
		sp := &t.spans[i]
		sp.lo = low + r.Cores
		sp.cap = sp.lo + spare
		sp.end = min(sp.cap, sum)
		low, end = sp.lo, sp.end
		if prune {
			root += relaxed(r)
			reload += r.Reload
			t.admit(sp, root*root, reload)
		}
		sp.off = size - sp.lo
		size += max(0, sp.end+1-sp.lo)
	}
	// Every cell streamed or pruned is written below; the zeroing keeps a
	// fresh table's choice 0 for a cell no candidate reaches.
	t.choice = resize(t.choice, size)
	clear(t.choice)
	// prev[r] is the minimal summed runtime of the operators before row i on
	// at most r cores, cur[r] the same including operator i; a row's buffer is
	// read only in its finite band, from..to. No row's uncut window ends past
	// the last's.
	w := max(0, end) + 1
	t.sums = resize(t.sums, 2*w)
	prev, cur := t.sums[:w], t.sums[w:]
	clear(prev) // before row 0: no operators, zero runtime at every r
	from, to := 0, w-1
	for i := range ops {
		if err := ctx.Err(); err != nil {
			return cancelled(err)
		}
		sp := &t.spans[i]
		sp.from, sp.to = from, to
		if sp.end < sp.lo {
			// No live column: this row or one before has no candidate (an
			// operator with no copy count to try), so no allocation fits
			// anywhere, or a reserve leaves the row nothing to store.
			from, to = 0, -1
			prev, cur = cur, prev
			continue
		}
		win, row := cur[sp.lo:sp.end+1], t.choice[sp.off+sp.lo:sp.off+sp.end+1]
		cands := t.cands[t.starts[i]:t.starts[i+1]]
		if i == 0 {
			firstRow(win, row, cands, sp.lo)
		} else {
			for r := range win {
				win[r] = inf
			}
			for _, c := range cands {
				// c reads the row before at from..to, and only where its
				// column lies in this window.
				a, b := max(from, sp.lo-c.cores), min(to, sp.end-c.cores)
				if b < a {
					continue
				}
				src := prev[a : b+1]
				dst, ch := cur[a+c.cores:b+1+c.cores], t.choice[sp.off+a+c.cores:sp.off+b+1+c.cores]
				dst, ch = dst[:len(src)], ch[:len(src)]
				for r, p := range src {
					if v := p + c.run; v < dst[r] {
						dst[r], ch[r] = v, c.d
					}
				}
			}
		}
		from, to = sp.lo, sp.end
		if prune {
			from, to = t.prune(sp, win, row)
		}
		if hi := min(sp.cap, w-1); to == sp.end && hi > to {
			tail, v := cur[to+1:hi+1], cur[to]
			for r := range tail {
				tail[r] = v
			}
			to = hi
		}
		prev, cur = cur, prev
	}
	// next reads the last row anywhere: inf outside its finite band.
	//cimlint:ignore ctxcancel -- one pass over one row, after the last poll
	for r := range prev {
		if r < from || r > to {
			prev[r] = inf
		}
	}
	t.last = prev
	return nil
}

// firstRow writes row 0's window, whose first column is lo, in closed form:
// the row before is zero at every column, so the cell at each column holds
// the first candidate of least run among those that fit it, the value and
// choice the streamed scan finds there (0 + run is run), in O(columns +
// candidates).
func firstRow(win []float64, row []int, cands []candidate, lo int) {
	best, bestD, k := inf, 0, 0
	for _, c := range cands {
		next := max(0, min(c.cores-lo, len(win))) // c's first column in the window
		for r := k; r < next; r++ {
			win[r], row[r] = best, bestD
		}
		if k = next; k == len(win) {
			return
		}
		if c.run < best {
			best, bestD = c.run, c.d
		}
	}
	for r := k; r < len(win); r++ {
		win[r], row[r] = best, bestD
	}
}

// relaxed returns √(a·Cores), a = Rounds·Windows·PerWindow: r's term in
// the continuous relaxation of bound and admit.
func relaxed(r *cost.Row) float64 {
	return math.Sqrt(float64(r.Rounds) * float64(r.Windows) * r.PerWindow * float64(r.Cores))
}

// bound readies the table over all, its rows' operators then the one
// next prices, for pruning, and reports whether it prunes. U is the summed
// runtime of one feasible allocation (greedy); the walk's optimum is at most
// U. The operators after row i, on the b cores the walk leaves them, run at
// least LB = (Σ_j √(a_j·Cores_j))² / b + Σ_j Reload_j, a_j = Rounds·Windows·
// PerWindow: RunAt(d) ≥ a_j/d + Reload_j, and that sum over real d_j with
// Σ_j d_j·Cores_j ≤ b is least at LB. So a cell whose value v has v + LB >
// U lies on no optimal walk, nor ties an argmin on one: IEEE addition is
// monotone, so every cell built on it is worse still, and the relative
// margin of 1e-9 covers the rounding of LB and of U. Each span gets LB's
// terms: sq = (Σ_j √(a_j·Cores_j))², lim = U·(1+1e-9) − Σ_j Reload_j. With an
// operator that has no candidate, or one copy of each over the budget, no
// allocation is feasible and nothing is pruned.
func (t *dupTable) bound(all []int) bool {
	u := t.greedy(len(all))
	if u >= inf {
		return false
	}
	u *= 1 + 1e-9
	root, reload := 0.0, 0.0
	for j := len(all) - 1; j > 0; j-- { // row j−1 is followed by operators j…
		r := &t.rows[all[j]]
		root += relaxed(r)
		reload += r.Reload
		sp := &t.spans[j-1]
		sp.sq, sp.lim = root*root, u-reload
	}
	return true
}

// admit narrows the window of sp, a row of a pruned table, to the columns
// where a cell can pass the bound at all. The operators up to the row, on r
// cores, run at least pre/r + reload, pre = (Σ_(j≤i) √(a_j·Cores_j))² and
// reload their Σ Reload_j (bound's relaxation), so no cell at r with
// pre/r + sq/(budget − r) > lim − reload is kept whatever its value. That
// sum is convex in r, so the columns that pass are one interval around its
// least point, found by bisection on either side. A window cut short above
// has no constant tail: its cap becomes its end.
func (t *dupTable) admit(sp *span, pre, reload float64) {
	n, lim := float64(t.budget), sp.lim-reload
	passes := func(r int) bool {
		x := float64(r)
		return pre/x+sp.sq/(n-x) <= lim
	}
	if sp.end < sp.lo {
		return
	}
	// The sum is least at budget·√pre/(√pre + √sq); the least column of the
	// window is next to it.
	mid := sp.lo
	if a, b := math.Sqrt(pre), math.Sqrt(sp.sq); a+b > 0 {
		mid = min(max(int(n*a/(a+b)), sp.lo), sp.end)
	}
	if !passes(mid) {
		if mid == sp.end || !passes(mid+1) {
			return // the least point missed: keep the whole window
		}
		mid++
	}
	if !passes(sp.lo) {
		// passes(a) is false, passes(b) true.
		a, b := sp.lo, mid
		for b-a > 1 {
			if c := (a + b) / 2; passes(c) {
				b = c
			} else {
				a = c
			}
		}
		sp.lo = b
	}
	if !passes(sp.end) {
		// passes(a) is true, passes(b) false.
		a, b := mid, sp.end
		for b-a > 1 {
			if c := (a + b) / 2; passes(c) {
				a = c
			} else {
				b = c
			}
		}
		sp.end, sp.cap = a, a
	}
}

// greedy returns the summed runtime, in operator order, of a feasible
// allocation of the table's m operators to its budget, or inf when there is
// none: from one copy each, it moves the operator whose next candidate
// saves the most runtime per extra core to that candidate, while it fits.
// Each operator's candidate index is picks[j], and the heap holds, by that
// saving, the operators that may still move; both live in starts' buffer.
func (t *dupTable) greedy(m int) float64 {
	buf := t.starts[:3*m+1]
	picks, heap := buf[m+1:2*m+1], buf[2*m+1:2*m+1]
	used := 0
	for j := range m {
		first := t.starts[j]
		if first == t.starts[j+1] {
			return inf
		}
		picks[j] = first
		used += t.cands[first].cores
		if first+1 < t.starts[j+1] {
			heap = append(heap, j)
		}
	}
	if used > t.budget {
		return inf
	}
	saving := func(j int) float64 {
		c := t.cands[picks[j] : picks[j]+2]
		return (c[0].run - c[1].run) / float64(c[1].cores-c[0].cores)
	}
	down := func(i int) {
		for {
			top := i
			for _, k := range [2]int{2*i + 1, 2*i + 2} {
				if k < len(heap) && saving(heap[k]) > saving(heap[top]) {
					top = k
				}
			}
			if top == i {
				return
			}
			heap[i], heap[top] = heap[top], heap[i]
			i = top
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		j := heap[0]
		c := t.cands[picks[j] : picks[j]+2]
		if extra := c[1].cores - c[0].cores; c[1].run < c[0].run && used+extra <= t.budget {
			used += extra
			if picks[j]++; picks[j]+1 < t.starts[j+1] {
				down(0)
				continue
			}
		}
		// j moves no further: its next candidate saves nothing, or it does
		// not fit, and every one after it takes more cores still.
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		down(0)
	}
	sum := 0.0
	for _, p := range picks {
		sum += t.cands[p].run
	}
	return sum
}

// prune empties the cells of row sp whose value (in win, choices in row)
// plus the bound on the operators after the row exceeds U (bound), and
// returns the row's finite band: the first and last columns it leaves
// finite, or an empty band (from > to).
func (t *dupTable) prune(sp *span, win []float64, row []int) (from, to int) {
	from, to = 0, -1
	left := float64(t.budget - sp.lo) // the cores the walk leaves the operators after the row
	for r, v := range win {
		if v+sp.sq/(left-float64(r)) > sp.lim {
			win[r], row[r] = inf, 0
			continue
		}
		if to < 0 {
			from = sp.lo + r
		}
		to = sp.lo + r
	}
	return from, to
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

// next returns the copies the operator after the table's rows gets
// at the full budget: the one cell of a row after the last, tried with that
// row's candidates, float expression and tie rule.
func (t *dupTable) next() int {
	best, bestD := inf, 0
	for _, c := range t.cands[t.starts[len(t.spans)]:] {
		if v := t.last[min(t.budget-c.cores, len(t.last)-1)] + c.run; v < best {
			best, bestD = v, c.d
		}
	}
	return bestD
}

// walk walks the rows' choices back from r cores and writes their copies
// into dup by node ID.
func (t *dupTable) walk(dup []int, r int) {
	for i := len(t.spans) - 1; i >= 0; i-- {
		d := max(1, t.at(i, r))
		dup[t.ops[i]] = d
		r = max(0, r-d*t.rows[t.ops[i]].Cores)
	}
}

// waterfill minimizes the pipeline bottleneck stage of ops, node IDs into
// rows: binary search the target stage time T, then spend leftover cores on
// whichever operator currently bounds the pipeline. It returns the copies of
// each of ops at the start of buf's storage, which it reallocates only when
// short; pass the result back as buf.
func waterfill(rows []cost.Row, ops []int, budget int, buf []int) []int {
	buf = resize(buf, 2*len(ops))
	// best is the last feasible allocation, trial the one need fills.
	best, trial := buf[:len(ops)], buf[len(ops):]
	// Feasibility check for a target T: the duplication each op needs, into
	// trial, and the cores that takes.
	need := func(t float64) int {
		total := 0
		for i, id := range ops {
			r := &rows[id]
			d := 1
			if t > 0 && r.PerWindow > 0 {
				d = int(math.Ceil(float64(r.Windows) * r.PerWindow * float64(r.Rounds) / t))
			}
			if d < 1 {
				d = 1
			}
			if d > r.MaxDup {
				d = r.MaxDup
			}
			trial[i] = d
			total += d * r.Cores
		}
		return total
	}
	lo, hi := 1.0, 0.0
	for _, id := range ops {
		if r := rows[id].RunAt(1); r > hi {
			hi = r
		}
	}
	for i := range best {
		best[i] = 1
	}
	for iter := 0; iter < 64 && hi-lo > 1e-6*hi; iter++ {
		mid := (lo + hi) / 2
		if need(mid) <= budget {
			hi = mid
			best, trial = trial, best
		} else {
			lo = mid
		}
	}
	// Greedy top-up with the leftovers.
	used := 0
	for i, id := range ops {
		used += best[i] * rows[id].Cores
	}
	for {
		// Find the bottleneck that can still be improved.
		bi, bt := -1, -1.0
		for i, id := range ops {
			r, d := &rows[id], best[i]
			if d >= r.MaxDup {
				continue
			}
			if used+r.Cores > budget {
				continue
			}
			if t := r.RunAt(d); t > bt {
				bt = t
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		best[bi]++
		used += rows[ops[bi]].Cores
	}
	// The result goes back to buf's first half, so that buf keeps its
	// capacity for the next call.
	copy(buf, best)
	return buf[:len(ops)]
}

// ceilDiv64 rounds up; divisors come from arch fields already checked
// positive by arch.Validate.
func ceilDiv64(a, b int64) int64 {
	return (a + b - 1) / b
}
