package cg

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cost"
	"cimmlc/internal/models"
)

// The 240 golden digests pin what the search returns on the zoo; the tests
// here pin the argument that the pruned search is the exhaustive one: cell
// for cell on the walk, search for search on every leading sub-list of
// random operator sets, and pop for pop in the segmenter.

var primes = []int64{2, 3, 5, 7, 97, 101, 499, 1009, 2503, 4999}

// randomOps draws an operator set and a budget: the operators' rows by node
// ID (node 0 is no operator) and their node IDs, 1 up. Every tenth draw gets
// the tightest feasible budget (the dup-1 baseline), every seventh a
// one-window or prime-window operator.
func randomOps(rng *rand.Rand, draw int) ([]cost.Row, []int, int) {
	budget := 1 + rng.IntN(768)
	n := 1 + rng.IntN(8)
	rows, ops := make([]cost.Row, n+1), make([]int, n)
	baseline := 0
	for i := range ops {
		r := cost.Row{
			Cores:  1 + rng.IntN(8),
			MaxDup: 1 + rng.IntN(budget),
			OpCost: cost.OpCost{
				Windows:   1 + rng.Int64N(5000),
				PerWindow: 0.5 + 100*rng.Float64(),
				Rounds:    1 + rng.IntN(3),
				Reload:    float64(rng.IntN(3)) * 1000 * rng.Float64(),
			},
		}
		switch (draw + i) % 7 {
		case 0:
			r.Windows = 1
		case 1:
			r.Windows = primes[rng.IntN(len(primes))]
		}
		ops[i], rows[i+1] = i+1, r
		baseline += r.Cores
	}
	if draw%10 == 0 {
		budget = baseline
	}
	return rows, ops, budget
}

// TestPrunedSearchMatchesExhaustive: on seeded random operator sets
// allocateDP returns the exhaustive search's duplication for the whole list
// and for every leading sub-list (the heads refinePrefix prices), and the
// pruned table it builds holds the exhaustive search's choice in every cell
// its walk reads. Enough of the draws prune a cell that the bound is
// exercised.
func TestPrunedSearchMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 332))
	pruning := 0
	for draw := 0; draw < 1000; draw++ {
		rows, ops, budget := randomOps(rng, draw)
		if checkAgainstExhaustive(t, fmt.Sprintf("draw %d (budget %d, rows %+v)", draw, budget, rows[1:]), rows, ops, budget) > 0 {
			pruning++
		}
	}
	t.Logf("%d of 1000 tables pruned", pruning)
	if pruning < 100 {
		t.Errorf("only %d of 1000 tables pruned a cell; the draws no longer exercise the bound", pruning)
	}
}

// TestPrunedWalkEdgeCases holds the pruned search to the exhaustive one
// (checkAgainstExhaustive) on seeded operator sets bent to the bound's
// edges, one per draw in turn: every copy count of every operator tied
// (PerWindow 0), so the greedy has nothing to gain and the bound's slope is
// flat; an operator with no candidate (MaxDup 0), where nothing is pruned;
// every operator multi-round with a reload, which the bound adds outside
// the relaxation; and a budget of exactly L_n, one copy of each, where the
// bound's U is the optimum itself.
func TestPrunedWalkEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 4))
	for draw := 0; draw < 800; draw++ {
		rows, ops, budget := randomOps(rng, draw)
		switch draw % 4 {
		case 0:
			for _, id := range ops {
				rows[id].PerWindow = 0
			}
		case 1:
			rows[ops[rng.IntN(len(ops))]].MaxDup = 0
		case 2:
			for _, id := range ops {
				rows[id].Rounds = 2 + rng.IntN(3)
				rows[id].Reload = 1 + 5000*rng.Float64()
			}
		case 3:
			budget = coresAtDupOne(rows, ops)
		}
		checkAgainstExhaustive(t, fmt.Sprintf("draw %d (budget %d, rows %+v)", draw, budget, rows[1:]), rows, ops, budget)
	}
}

// TestWaterfillReusesItsBuffer: waterfill run in one buffer over a thousand
// seeded operator sets, each left dirty by the last, returns what it returns
// in a fresh one, and, once the buffer has grown, allocates nothing.
func TestWaterfillReusesItsBuffer(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 58))
	var buf []int
	for draw := 0; draw < 1000; draw++ {
		rows, ops, budget := randomOps(rng, draw)
		want := waterfill(rows, ops, budget, nil)
		if buf = waterfill(rows, ops, budget, buf); !slices.Equal(buf, want) {
			t.Fatalf("draw %d: waterfill in a reused buffer %v, in a fresh one %v", draw, buf, want)
		}
	}
	rows, ops, budget := randomOps(rng, 1)
	buf = make([]int, 0, 2*len(ops))
	if n := testing.AllocsPerRun(10, func() { buf = waterfill(rows, ops, budget, buf) }); n != 0 {
		t.Errorf("waterfill allocates %v times a call in a buffer large enough", n)
	}
}

// checkAgainstExhaustive holds every search over ops, node IDs into rows, and
// budget to exhaustiveDP: allocateDP over every leading sub-list ops[:k],
// longest first on one table, as refinePrefix prices its heads, and, on the
// table allocateDP builds over the whole list, every cell its walk reads.
// That table's other cells may be pruned or hold more than the exhaustive
// search's, so they are not compared. Each search runs twice: with the
// tables minPruneSpare prunes, and with every table pruned, so the bound is
// held to the exhaustive search on narrow tables too. The greedy allocation
// that bounds the pruning must be no faster than the optimum, summed in the
// same order. It returns the cells the bound pruned with every table pruned.
func checkAgainstExhaustive(t *testing.T, what string, rows []cost.Row, ops []int, budget int) int {
	t.Helper()
	ctx := context.Background()
	choice, dup := exhaustiveDP(rows, ops, budget)
	fresh := make([][]int, len(ops)+1)
	for k := 1; k <= len(ops); k++ {
		_, fresh[k] = exhaustiveDP(rows, ops[:k], budget)
	}
	gate := minPruneSpare
	defer func() { minPruneSpare = gate }()
	var table *dupTable
	n := len(ops) - 1
	for _, minPruneSpare = range []int{gate, 0} {
		what := fmt.Sprintf("%s, pruned from %d spare cores", what, minPruneSpare)
		heads := new(dupTable)
		for k := len(ops); k >= 1; k-- {
			got, err := allocateList(ctx, heads, rows, ops[:k], budget)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, fresh[k]) {
				t.Fatalf("%s: allocateDP over ops[:%d] %v, exhaustive search %v", what, k, got, fresh[k])
			}
		}
		var err error
		if table, err = newTable(ctx, rows, ops, budget); err != nil {
			t.Fatal(err)
		}
		if d := table.next(); d != choice[n][budget] {
			t.Fatalf("%s: the table prices %d copies for the last operator, exhaustive search chose %d", what, d, choice[n][budget])
		}
		for i, r := n-1, max(0, budget-dup[n]*rows[ops[n]].Cores); i >= 0; i-- {
			if got := table.at(i, r); got != choice[i][r] {
				t.Fatalf("%s: choice[%d][%d] on the walk = %d, exhaustive search chose %d", what, i, r, got, choice[i][r])
			}
			r = max(0, r-dup[i]*rows[ops[i]].Cores)
		}
	}
	pruned := tableWork(table).pruned
	if choice[n][budget] == 0 {
		return pruned // no allocation fits: nothing to bound
	}
	opt := 0.0
	for i, id := range ops {
		opt += rows[id].RunAt(dup[i])
	}
	if u := table.greedy(len(ops)); u < opt {
		t.Fatalf("%s: the greedy allocation sums to %v, below the optimum %v", what, u, opt)
	}
	return pruned
}

// newTable builds a table over ops in fresh buffers.
func newTable(ctx context.Context, rows []cost.Row, ops []int, budget int) (*dupTable, error) {
	t := new(dupTable)
	return t, t.build(ctx, rows, ops, budget)
}

// inOrder reads dup, copies by node ID, back as a list: out[i] the copies of
// node ops[i], for the first k of ops.
func inOrder(ops []int, k int, dup []int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = dup[ops[i]]
	}
	return out
}

// walkList is t's walk-back of its rows from r cores as a list.
func walkList(t *dupTable, r int) []int {
	dup := make([]int, len(t.rows))
	t.walk(dup, r)
	return inOrder(t.ops, len(t.spans), dup)
}

// allocateList runs allocateDP on t and returns its answer as a list.
func allocateList(ctx context.Context, t *dupTable, rows []cost.Row, ops []int, budget int) ([]int, error) {
	dup := make([]int, len(rows))
	if err := t.allocateDP(ctx, rows, ops, budget, dup); err != nil {
		return nil, err
	}
	return inOrder(ops, len(ops), dup), nil
}

// TestReusedTableMatchesFresh: Optimize builds every table of its searches
// in the buffers of the one before, so one table is built here again and
// again — a wide operator list, then a narrow one on a smaller budget, then
// a wide one — and must hold what a table built in fresh buffers holds after
// each: every span, candidate, stored choice and float of the row next
// reads, every walk-back the table serves, and allocateDP's answer. A buffer
// the search reads before writing (the row before row 0, read as no
// operators and zero runtime) that a reused table leaves dirty shows here.
// So do candidates a table keeps for a list that does not lead the one it
// last listed (reusedTables.heads).
func TestReusedTableMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 2))
	var tables reusedTables
	for draw := 0; draw < 400; draw++ {
		rows, ops, budget := randomOps(rng, draw)
		if draw%3 == 1 {
			ops, budget = ops[:1+rng.IntN(min(2, len(ops)))], 1+rng.IntN(budget)
		}
		tables.check(t, fmt.Sprintf("draw %d (budget %d, rows %+v)", draw, budget, rows[1:len(ops)+1]), rows, ops, budget)
	}
}

// TestRowWithoutCandidates: an operator with no copy count to try (MaxDup 0,
// which no CIM row has) fits no column, so its row and every row after it
// are inf and choose 0 everywhere, and so does the cell next prices. Its row
// has no live window; the next row reads it all the same, so it must be
// written, in fresh and reused buffers alike. Pinned at budget 146, where a
// table that left the row unwritten read zeros there and gave the operator
// after it 66 copies where the exhaustive search gives none.
func TestRowWithoutCandidates(t *testing.T) {
	rows := []cost.Row{{}, cimRow(2, 0, 100, 1), cimRow(2, 67, 5000, 1), cimRow(2, 67, 5000, 1)}
	ops := []int{1, 2, 3}
	table, err := newTable(context.Background(), rows, ops, 146)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 146; r++ {
		if got := table.at(1, r); got != 0 {
			t.Fatalf("row 1 at %d cores chooses %d copies after a row without candidates, want 0", r, got)
		}
	}
	if got := table.next(); got != 0 {
		t.Fatalf("the last operator at 146 cores gets %d copies after a row without candidates, want 0", got)
	}
	checkAgainstExhaustive(t, "pinned (budget 146)", rows, ops, 146)
	rng := rand.New(rand.NewPCG(49, 3))
	var tables reusedTables
	for draw := 0; draw < 400; draw++ {
		rows, ops, budget := randomOps(rng, draw)
		rows[ops[draw%len(ops)]].MaxDup = 0
		what := fmt.Sprintf("draw %d (budget %d, rows %+v)", draw, budget, rows[1:])
		checkAgainstExhaustive(t, what, rows, ops, budget)
		tables.check(t, what, rows, ops, budget)
	}
}

// reusedTables are the tables a search test rebuilds draw after draw: one
// built, one allocateDP builds, and one allocateDP rebuilds over shrinking
// heads of a list (heads), in a buffer of node IDs the test writes in place,
// as the segmenter writes its own.
type reusedTables struct {
	built, searched, heads dupTable
	buf                    []int
}

// check rebuilds each of ts over ops, node IDs into rows, and budget and
// holds it, and what it serves, to a table built in fresh buffers.
func (ts *reusedTables) check(t *testing.T, what string, rows []cost.Row, ops []int, budget int) {
	t.Helper()
	ctx := context.Background()
	if err := ts.built.build(ctx, rows, ops, budget); err != nil {
		t.Fatal(err)
	}
	fresh, err := newTable(ctx, rows, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, what, &ts.built, fresh)
	for r := 0; r <= budget-rows[ops[len(ops)-1]].Cores; r++ {
		if got, want := walkList(&ts.built, r), walkList(fresh, r); !slices.Equal(got, want) {
			t.Fatalf("%s: walk-back from %d cores: reused table %v, fresh table %v", what, r, got, want)
		}
	}
	searchReused(t, what+", allocateDP", &ts.searched, rows, ops, budget)
	// The heads: the whole list, then the same buffer reversed in place (a
	// table that compared against the caller's buffer would keep candidates
	// in the wrong order) and shortened from the end, each a leading part of
	// the one before, whose candidates the table must keep.
	ts.buf = append(ts.buf[:0], ops...)
	searchReused(t, what+", heads", &ts.heads, rows, ts.buf, budget)
	slices.Reverse(ts.buf)
	for k := len(ops); k >= 1; k-- {
		ts.buf = ts.buf[:k]
		searchReused(t, fmt.Sprintf("%s, reversed head of %d", what, k), &ts.heads, rows, ts.buf, budget)
		if k < len(ops) && ts.heads.fresh {
			t.Fatalf("%s: the table listed the candidates of a head of %d afresh, want them kept", what, k)
		}
	}
}

// searchReused runs allocateDP over ops on tb and on a fresh table, and holds
// the answers and the tables to each other.
func searchReused(t *testing.T, what string, tb *dupTable, rows []cost.Row, ops []int, budget int) {
	t.Helper()
	ctx := context.Background()
	got, err := allocateList(ctx, tb, rows, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	fresh := new(dupTable)
	want, err := allocateList(ctx, fresh, rows, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: allocateDP on a reused table %v, on a fresh one %v", what, got, want)
	}
	sameTable(t, what, tb, fresh)
}

// sameTable fails unless got holds every value fresh holds that a search
// reads: spans, candidates (with those next priced), stored choices and the
// float row next reads.
func sameTable(t *testing.T, what string, got, fresh *dupTable) {
	t.Helper()
	if !slices.Equal(got.spans, fresh.spans) || !slices.Equal(got.starts, fresh.starts) || !slices.Equal(got.cands, fresh.cands) {
		t.Fatalf("%s: reused table's spans %v / starts %v / candidates %v, fresh table's %v / %v / %v",
			what, got.spans, got.starts, got.cands, fresh.spans, fresh.starts, fresh.cands)
	}
	if !slices.Equal(got.choice, fresh.choice) {
		t.Fatalf("%s: reused table's choices %v, fresh table's %v", what, got.choice, fresh.choice)
	}
	if !slices.Equal(got.last, fresh.last) {
		t.Fatalf("%s: reused table's last row %v, fresh table's %v", what, got.last, fresh.last)
	}
}

// decodeOps reads an operator set and a budget from fuzz bytes, over
// randomOps' field ranges widened where the search has edges: budgets up to
// 2048, copies as wide as the whole budget, windows of 1 and primes,
// PerWindow 0 (every copy count ties) and MaxDup 0 (no copy count to try, a
// seventh byte from 0xf0 up). Ten bytes make an operator, up to
// eight of them; a short input is padded with zeros. An odd budgetBits makes
// the budget the dup-1 baseline, the tightest feasible one.
func decodeOps(budgetBits uint16, data []byte) ([]cost.Row, []int, int) {
	budget := 1 + int(budgetBits>>1)%2048
	n := min(8, max(1, len(data)/10))
	data = append(data, make([]byte, 10*n)...)
	u16 := func(b []byte) int { return int(b[0])<<8 | int(b[1]) }
	rows, ops := make([]cost.Row, n+1), make([]int, n)
	baseline := 0
	for i := range ops {
		b := data[10*i : 10*i+10]
		r := cost.Row{
			Cores:  1 + int(b[0])%8,
			MaxDup: 1 + u16(b[1:])%budget,
			OpCost: cost.OpCost{
				Windows:   1 + int64(u16(b[3:])%5000),
				PerWindow: 0.5 + 100*float64(b[5])/255,
				Rounds:    1 + int(b[6])%3,
				Reload:    float64(b[7]%3) * 1000 * float64(b[9]) / 255,
			},
		}
		if b[0]&0x80 != 0 {
			r.Cores = 1 + u16(b[8:])%budget
		}
		if b[6] >= 0xf0 {
			r.MaxDup = 0 // no candidate: nothing fits, nothing is pruned
		}
		switch b[5] % 8 {
		case 0:
			r.PerWindow = 0
		case 1:
			r.Windows = 1
		case 2:
			r.Windows = primes[int(b[4])%len(primes)]
		}
		ops[i], rows[i+1] = i+1, r
		baseline += r.Cores
	}
	if budgetBits&1 != 0 {
		budget = baseline
	}
	return rows, ops, budget
}

// FuzzDupSearch holds the streamed search to the exhaustive one on decoded
// operator sets (checkAgainstExhaustive): the search over every leading
// sub-list and every cell its walk reads.
// Budgets range past the columns the table stores, so the width cap is both
// hit and not.
func FuzzDupSearch(f *testing.F) {
	f.Add(uint16(767<<1), []byte{3, 0, 9, 1, 200, 17, 1, 1, 0, 200, 5, 1, 0, 7, 12, 40, 2, 2, 0, 90})
	f.Add(uint16(2047<<1), []byte{0, 0, 1, 0, 40, 9, 0, 0, 0, 0})
	f.Add(uint16(1), []byte{0x81, 0, 40, 0, 90, 11, 2, 2, 0, 9, 1, 0, 3, 9, 0, 2, 0, 0, 0, 0})
	f.Add(uint16(600<<1), []byte{4, 1, 0, 0, 1, 8, 0, 0, 0, 0, 0x84, 1, 0, 0, 1, 16, 0, 0, 2, 0})
	// Row 0 (one window: S_0 = 1) turns constant far below its cap under
	// the reserve, so row 1 reads the copied tail.
	f.Add(uint16(300<<1), []byte{0, 0, 50, 0, 0, 9, 0, 0, 0, 0, 1, 0, 100, 0x07, 0xd0, 20, 0, 0, 0, 0, 0, 0, 10, 0, 200, 30, 0, 0, 0, 0})
	// Every copy count ties (PerWindow 0) on a second operator.
	f.Add(uint16(90<<1), []byte{2, 0, 30, 0, 60, 9, 0, 0, 0, 0, 1, 0, 20, 0, 40, 8, 0, 0, 0, 0})
	// Three rounds with a reload on each operator, at exactly L_n cores.
	f.Add(uint16(1), []byte{2, 0, 30, 1, 0, 100, 2, 2, 0, 200, 3, 0, 9, 0, 77, 60, 5, 1, 0, 90})
	// A row with no candidate between two that have some.
	f.Add(uint16(200<<1), []byte{1, 0, 40, 0, 80, 50, 0, 0, 0, 0, 2, 0, 9, 0, 30, 20, 0xf3, 0, 0, 0, 1, 0, 50, 1, 0, 70, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, budgetBits uint16, data []byte) {
		rows, ops, budget := decodeOps(budgetBits, data)
		checkAgainstExhaustive(t, fmt.Sprintf("budget %d, rows %+v", budget, rows[1:]), rows, ops, budget)
	})
}

// TestCandidatesOnePerCeiling pins the pruning rule itself: the candidate
// list is exactly the smallest copy count of every distinct ceil(windows/d)
// the exhaustive loop would try, with that loop's RunAt(d).
func TestCandidatesOnePerCeiling(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for draw := 0; draw < 500; draw++ {
		rows, ops, budget := randomOps(rng, draw)
		for _, id := range ops {
			r := &rows[id]
			var want []candidate
			lastCeil := int64(-1)
			for d := 1; d <= r.MaxDup && d*r.Cores <= budget; d++ {
				if q := ceilDiv64(r.Windows, int64(d)); q != lastCeil {
					want = append(want, candidate{d, d * r.Cores, r.RunAt(d)})
					lastCeil = q
				}
				if int64(d) >= r.Windows {
					break
				}
			}
			if got := candidates(r, budget, nil); !slices.Equal(got, want) {
				t.Fatalf("budget %d, row %+v: candidates %v, want %v", budget, *r, got, want)
			}
		}
	}
}

// searchWork counts the inner-loop work of duplication searches: tables (or
// exhaustive searches) run, (r, d) steps taken, run(d) evaluations made and
// stored cells a table's bound emptied.
type searchWork struct{ searches, steps, runs, pruned int }

func (w *searchWork) add(o searchWork) {
	w.searches += o.searches
	w.steps += o.steps
	w.runs += o.runs
	w.pruned += o.pruned
}

// exhaustiveWork is what exhaustiveDP does over ops: it evaluates RunAt(d)
// at every step, and takes min(MaxDup, r/Cores, max(Windows, 1)) steps per
// (operator, r).
func exhaustiveWork(rows []cost.Row, ops []int, budget int) searchWork {
	w := searchWork{searches: 1}
	for _, id := range ops {
		oi := &rows[id]
		for r := 0; r <= budget; r++ {
			w.steps += int(min(int64(oi.MaxDup), int64(r/oi.Cores), max(oi.Windows, 1)))
		}
	}
	w.runs = w.steps
	return w
}

// tableWork is what a search did with t: one run(d) per candidate its build
// listed (none when the build kept the candidates of the one before); one step
// per column of row 0's window, which is closed-form; one step per column
// each candidate of a later row streams over, the cells of the row before in
// that row's finite band whose column it fits lies in the window; and one
// step per candidate of the cell next priced after the rows, if any. Its
// pruned cells are those of the rows' uncut windows (uncut) that the table
// leaves choosing no copy, cut off its stored window or emptied in it: with
// a candidate for every operator, an unpruned table fills every one.
func tableWork(t *dupTable) searchWork {
	w := searchWork{searches: 1}
	if t.fresh {
		w.runs = len(t.cands)
	}
	for i, sp := range t.spans {
		w.pruned += uncut(t, i)
		for r := sp.lo; r <= sp.end; r++ {
			if t.at(i, r) != 0 {
				w.pruned--
			}
		}
		if sp.end < sp.lo {
			continue
		}
		if i == 0 {
			w.steps += sp.end + 1 - sp.lo
			continue
		}
		for _, c := range t.cands[t.starts[i]:t.starts[i+1]] {
			w.steps += max(0, min(sp.to, sp.end-c.cores)-max(sp.from, sp.lo-c.cores)+1)
		}
	}
	w.steps += len(t.cands) - t.starts[len(t.spans)]
	return w
}

// uncut returns the width row i of t would store unpruned: from L_i +
// Cores_i to the least of S_i and its cap, the cores a walk can spare above
// that start.
func uncut(t *dupTable, i int) int {
	lo, sum, all := 0, 0, 0
	for j, id := range t.ops {
		all += t.rows[id].Cores
		if j <= i {
			lo += t.rows[id].Cores
			if c := t.starts[j+1]; c > t.starts[j] {
				sum += t.cands[c-1].cores
			}
		}
	}
	return max(0, min(lo+t.budget-all, sum)-lo+1)
}

// segmentFromScratch is the segmenter with every estimate — two per loop
// iteration over the prefix and its head, one over the popped group — and
// every kept segment's copies from a whole exhaustive search of its own. It
// returns the segments, the duplication by node ID and the work that took.
func segmentFromScratch(t *testing.T, m *cost.Model, order []int, budget int) ([][]int, []int, searchWork) {
	var work searchWork
	rows := m.Rows
	dup := make([]int, len(rows))
	search := func(nodes []int) {
		ops := segCIMOps(nil, rows, nodes)
		if len(ops) == 0 {
			return
		}
		work.add(exhaustiveWork(rows, ops, budget))
		_, opDup := exhaustiveDP(rows, ops, budget)
		scatter(dup, ops, opDup)
	}
	estimate := func(nodes []int) float64 {
		search(nodes)
		return latency(rows, nodes, dup)
	}
	var segs [][]int
	for remaining := order; len(remaining) > 0; {
		prefix, rest, err := takePrefix(rows, remaining, budget)
		if err != nil {
			t.Fatal(err)
		}
		for len(rest) > 0 && cimCount(rows, prefix) > 1 {
			cut := lastCIMIndex(rows, prefix)
			if cut <= 0 {
				break
			}
			head, group := prefix[:cut], prefix[cut:]
			baseline := estimate(prefix)
			candidate := estimate(head) + estimate(group) + popPrice(m, group[0])
			if candidate >= baseline {
				break
			}
			prefix, rest = head, append(slices.Clone(group), rest...)
		}
		segs = append(segs, prefix)
		remaining = rest
	}
	for _, seg := range segs {
		search(seg)
	}
	return segs, dup, work
}

// scatter writes dup, the copies of each of ops, into table, by node ID.
func scatter(table []int, ops []int, dup []int) {
	for i, id := range ops {
		table[id] = dup[i]
	}
}

// TestPrunedSearchSegmentsLikeFromScratch runs both segmenters over the
// bench's 35-cell grid — which holds the over-capacity cells whose prefixes
// are actually refined: vgg16 / vit-base on isaac-baseline and puma,
// resnet50 on jia-isscc21 — and requires identical segments and duplication.
// The dynamic program's copies are the ones compared: with Pipeline off a
// segment keeps them unarbitrated (the summed runtime is then its exact
// makespan), and segments do not depend on Pipeline. It also reports the
// search work each did, per cell and summed, and how many segments a
// default compile (Pipeline on, Repack from the preset's mode) priced both
// ways and switched to waterfill: the counts CHANGES.md quotes. Its bounds pin
// the search work: a run(d) count of 23 460 means the heads stopped keeping
// their candidates, a step count in the millions that heads are priced off
// unpruned tables again.
func TestPrunedSearchSegmentsLikeFromScratch(t *testing.T) {
	var sumOld, sumNew searchWork
	refined, priced, switched := 0, 0, 0
	arbitrated = func(sw bool) {
		priced++
		if sw {
			switched++
		}
	}
	defer func() { arbitrated = nil }()
	for _, preset := range arch.PresetNames() {
		for _, model := range []string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"} {
			a, err := arch.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			g, err := models.Build(model)
			if err != nil {
				t.Fatal(err)
			}
			m, err := cost.New(g, a)
			if err != nil {
				t.Fatal(err)
			}
			order, budget := nonInputs(g), a.Chip.CoreCount()

			// A table's work is read when its search is done with it, the
			// cell allocateDP prices after the rows included: the next
			// search of the Optimize call refills the same buffers.
			var now searchWork
			searchDone = func(tb *dupTable) { now.add(tableWork(tb)) }
			s, err := Optimize(context.Background(), m, Options{Duplicate: true})
			searchDone = nil
			if err != nil {
				t.Fatalf("%s.%s: %v", model, preset, err)
			}
			p, err := Optimize(context.Background(), m, Options{Pipeline: true, Duplicate: true, Repack: a.Mode.AtLeast(arch.XBM)})
			if err != nil {
				t.Fatalf("%s.%s: %v", model, preset, err)
			}
			if !reflect.DeepEqual(p.Segments, s.Segments) {
				t.Errorf("%s.%s: pipelined segments %v, unpipelined %v", model, preset, p.Segments, s.Segments)
			}

			var segs [][]int
			var dup []int
			var old searchWork
			if len(s.Segments) == 1 {
				// The model fits: no segmentation, one search.
				segs = [][]int{order}
				ops := segCIMOps(nil, m.Rows, order)
				old = exhaustiveWork(m.Rows, ops, budget)
				_, opDup := exhaustiveDP(m.Rows, ops, budget)
				dup = make([]int, len(m.Rows))
				scatter(dup, ops, opDup)
			} else {
				segs, dup, old = segmentFromScratch(t, m, order, budget)
				refined++
			}
			if !reflect.DeepEqual(s.Segments, segs) {
				t.Errorf("%s.%s: segments %v, from-scratch segmenter %v", model, preset, s.Segments, segs)
			}
			if !slices.Equal(s.Dup, dup) {
				t.Errorf("%s.%s: dup %v, exhaustive search %v", model, preset, s.Dup, dup)
			}
			t.Logf("%-9s %-14s %3d segments  searches %4d → %3d  (r,d) steps %10d → %8d  run(d) %10d → %6d  pruned %7d",
				model, preset, len(segs), old.searches, now.searches, old.steps, now.steps, old.runs, now.runs, now.pruned)
			sumOld.add(old)
			sumNew.add(now)
		}
	}
	t.Logf("grid: searches %d → %d, (r,d) steps %d → %d, run(d) evaluations %d → %d, %d table cells pruned; %d cells segmented",
		sumOld.searches, sumNew.searches, sumOld.steps, sumNew.steps, sumOld.runs, sumNew.runs, sumNew.pruned, refined)
	t.Logf("grid: %d segments priced both ways by the simulator, %d switched to waterfill", priced, switched)
	if refined < 5 {
		t.Errorf("only %d cells were segmented; the grid no longer exercises refinePrefix", refined)
	}
	if priced == 0 {
		t.Error("no segment was priced both ways; the grid no longer exercises the arbitration")
	}
	if sumNew.steps > 600_000 || sumNew.runs > 21_000 || sumNew.searches > 1_700 {
		t.Errorf("the pruned search takes %d steps / %d run(d) evaluations / %d searches over the grid, want ≤ 600 K / ≤ 21 K / ≤ 1 700",
			sumNew.steps, sumNew.runs, sumNew.searches)
	}
}

// TestOptimizeMatchesUnprunedReference runs the whole CG search over every
// zoo model on every preset and holds its segments and copies to the
// from-scratch segmenter, whose every search is the unpruned exhaustive one
// (segmentFromScratch): pruning the tables must not move a single
// decision. With Pipeline off no segment is arbitrated, so the copies
// compared are the dynamic program's own.
func TestOptimizeMatchesUnprunedReference(t *testing.T) {
	var work searchWork
	for _, preset := range arch.PresetNames() {
		a, err := arch.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models.Names() {
			g, err := models.Build(model)
			if err != nil {
				t.Fatal(err)
			}
			m, err := cost.New(g, a)
			if err != nil {
				t.Fatal(err)
			}
			searchDone = func(tb *dupTable) { work.add(tableWork(tb)) }
			s, err := Optimize(context.Background(), m, Options{Duplicate: true})
			searchDone = nil
			if err != nil {
				t.Fatalf("%s.%s: %v", model, preset, err)
			}
			segs, dup, _ := segmentFromScratch(t, m, nonInputs(g), a.Chip.CoreCount())
			if !reflect.DeepEqual(s.Segments, segs) {
				t.Errorf("%s.%s: segments %v, unpruned reference %v", model, preset, s.Segments, segs)
			}
			if !slices.Equal(s.Dup, dup) {
				t.Errorf("%s.%s: dup %v, unpruned reference %v", model, preset, s.Dup, dup)
			}
		}
	}
	if work.pruned == 0 {
		t.Error("no cell was pruned over the zoo; the grid no longer exercises the bound")
	}
}

// countdownCtx reports cancellation after its Err has been polled `left`
// times: a deterministic way to cancel in the middle of a search.
type countdownCtx struct {
	context.Context
	left, polls int
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestOptimizeHonoursCancellation: the search polls its context once per
// operator row, so a context cancelled mid-search stops it there with a
// wrapped context.Canceled instead of running the pass to completion. vgg16
// on puma is cut into many segments, so its search polls well over twice per
// operator.
func TestOptimizeHonoursCancellation(t *testing.T) {
	g := models.VGG16()
	a := arch.PUMAAccelerator()
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Pipeline: true, Duplicate: true}
	whole := &countdownCtx{Context: context.Background(), left: 1 << 30}
	if _, err := Optimize(whole, m, opt); err != nil {
		t.Fatal(err)
	}
	if rows := len(g.CIMNodeIDs()); whole.polls < 2*rows {
		t.Fatalf("an uncancelled search polled its context %d times over %d operators", whole.polls, rows)
	}
	for _, after := range []int{0, 1, whole.polls / 2, whole.polls - 1} {
		ctx := &countdownCtx{Context: context.Background(), left: after}
		_, err := Optimize(ctx, m, opt)
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(fmt.Sprint(err), "cg: cancelled: ") {
			t.Errorf("cancelled after %d of %d polls: err = %v, want cg: cancelled: context canceled", after, whole.polls, err)
		}
		if ctx.polls != after+1 {
			t.Errorf("cancelled after %d polls: the search polled %d more times before stopping", after, ctx.polls-after-1)
		}
	}
}

// BenchmarkDupTable times the search's tables apart from the rest of the
// compiler, and reports the time per (r, d) step tableWork counts: the
// search's inner loop. The /allocateDP legs run one search over the whole
// CIM operator list of the heaviest isaac-baseline cells that fit the chip;
// the /segment legs run the segmenter (Optimize, nothing arbitrated) on the
// two isaac-baseline cells it refines, every head and popped group a search.
func BenchmarkDupTable(b *testing.B) {
	a := arch.ISAACBaseline()
	for _, model := range []string{"resnet50", "vit-tiny", "vgg16", "vit-base"} {
		g, err := models.Build(model)
		if err != nil {
			b.Fatal(err)
		}
		m, err := cost.New(g, a)
		if err != nil {
			b.Fatal(err)
		}
		ops, budget := segCIMOps(nil, m.Rows, nonInputs(g)), a.Chip.CoreCount()
		if coresAtDupOne(m.Rows, ops) > budget {
			b.Run(model+"/segment", func(b *testing.B) {
				var work searchWork
				searchDone = func(tb *dupTable) { work.add(tableWork(tb)) }
				_, err := Optimize(context.Background(), m, Options{Duplicate: true})
				searchDone = nil
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Optimize(context.Background(), m, Options{Duplicate: true}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*work.steps), "ns/step")
			})
			continue
		}
		b.Run(model+"/allocateDP", func(b *testing.B) {
			var t dupTable
			dup := make([]int, len(m.Rows))
			for i := 0; i < b.N; i++ {
				if err := t.allocateDP(context.Background(), m.Rows, ops, budget, dup); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tableWork(&t).steps), "ns/step")
		})
	}
}
