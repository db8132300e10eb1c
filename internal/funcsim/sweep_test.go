package funcsim

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
)

// runOneLane runs cf on request 0 of the cell, prepare (when set) having edited
// the state after the load, and returns the lane.
func runOneLane(t *testing.T, c *laneCell, cf *CompiledFlow, prepare func(st *BatchState)) []int64 {
	t.Helper()
	st := c.img.NewBatchState(1)
	bm := c.img.ExecBatch(st)
	if err := bm.LoadInputs(0, c.ins[0]); err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(st)
	}
	if err := bm.RunBody(cf); err != nil {
		t.Fatal(err)
	}
	return st.mem
}

// TestSweepsMatchOperatorByOperator holds hand-written bodies — what no
// generated flow contains — to the operators run one per flow
// (sweptMatchesApart), and pins where their sweeps end and how many chains
// their reads group into. All are cut from conv-relu on isaac-baseline: window
// w gathers 27 words into a scratch slot of its own and multiplies them on
// crossbars 2w and 2w+1 (14 + 13 wordlines, all windows' copies sharing the
// image's two arrays) into word w of each of the conv's 32 output channels —
// four readrows, of 8, 8, 6 and 5 wordlines, the first a store.
func TestSweepsMatchOperatorByOperator(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), arch.ISAACBaseline(), 50, 8, programmed)
	img := c.img
	win := func(ws ...int) (ops []mop.Op) {
		for _, w := range ws {
			ops = append(ops, windowOps(t, c.cf.ops, w)...)
		}
		return ops
	}
	perWin := len(win(0))
	plain := func(ws ...int) []int64 { // what the generated windows leave
		cf, err := img.CompileBody(win(ws...))
		if err != nil {
			t.Fatal(err)
		}
		return runOneLane(t, c, cf, nil)
	}
	slot := func(w int) int64 { return win(w)[0].(mop.MovWindow).Dst }
	out := img.lay.Region[1].Base
	chans := img.lay.Region[1].Size / 32 // words between the conv's output channels
	// The two halves of the weight matrix, as the init section cuts them — or
	// shifted by a row — for window w's crossbars.
	program := func(w, shift int) []mop.Op {
		return []mop.Op{
			mop.WriteRow{XB: 2 * w, Row: 0, NumRows: 14, Node: 1, CellRowOff: shift, Cols: 128},
			mop.WriteRow{XB: 2*w + 1, Row: 0, NumRows: 13, Node: 1, CellRowOff: 14 - shift, Cols: 128},
		}
	}
	// Eight wordlines of crossbar 0 over scratch no window of the body gathers
	// into, summed into window 7's output words.
	beside := mop.ReadRow{XB: 0, Row: 0, NumRows: 8, Src: slot(9), Dst: out + 7, DstStride: chans}
	huge := []int64{1 << 40, -(1 << 38), 1<<16 + 3, -1 << 16, 70000, 1, -1, 0}
	// Window w's four reads, and a read moved to other words.
	reads := func(w int) (rd [4]mop.ReadRow) {
		for i, op := range win(w)[1:] {
			rd[i] = op.(mop.ReadRow)
		}
		return rd
	}
	to := func(r mop.ReadRow, dst, stride int64, acc bool) mop.ReadRow {
		r.Dst, r.DstStride, r.Acc = dst, stride, acc
		return r
	}
	rd := reads(0)
	// Reads into word 4 of every channel beside window 0's own: a tile the
	// window's cannot meet.
	other := func(r mop.ReadRow, acc bool) mop.ReadRow { return to(r, out+4, chans, acc) }
	var interleaved []mop.Op
	for w := range 4 {
		interleaved = append(interleaved, win(w)[0])
		for _, r := range reads(w) {
			interleaved = append(interleaved, r, to(r, out+int64(w)+4, chans, r.Acc))
		}
	}
	var cut []mop.Op // window 0's reads three times over, the first time interleaved with another tile's
	for round := range 3 {
		for i, r := range rd {
			cut = append(cut, to(r, out, chans, round > 0 || i > 0))
			if round == 0 {
				cut = append(cut, other(r, i > 0))
			}
		}
	}
	// Two reads past their crossbars' programmed wordlines, one into each tile:
	// the later one joins the chain that runs first.
	late, early := rd[3], rd[2]
	late.Row, late.NumRows, late.Src = 12, 2, slot(0)+25
	early.Row, early.NumRows, early.Src = 13, 2, slot(0)+13

	for _, tc := range []struct {
		name    string
		body    []mop.Op
		kernels map[int]int // by operator count
		chains  int         // the body's chains (0: not pinned)
		fails   int         // the operator whose error the body fails with (0: it runs)
		prepare func(st *BatchState)
		check   func(t *testing.T, lane []int64)
	}{
		{
			// The windows after the write must read the new tile — and are a
			// sweep of their own: no pass spans the write.
			name:    "a-write-to-one-of-its-crossbars-interrupts",
			body:    slices.Concat(win(0, 1, 2, 3), program(4, 1), win(4, 5)),
			kernels: map[int]int{4 * perWin: 1, 1: 2, 2 * perWin: 1},
			check: func(t *testing.T, lane []int64) {
				plain := plain(0, 1, 2, 3, 4, 5)
				if lane[out+4] == plain[out+4] || lane[out+3] != plain[out+3] || lane[out+5] != plain[out+5] {
					t.Errorf("window 4 read the tile it found before the write, or its neighbours did not")
				}
			},
		},
		{
			// A read of scratch that a mov filled, inside a sweep; the window
			// that gathers into that scratch ends the sweep.
			name:    "a-read-beside-the-gathered-words",
			body:    slices.Concat([]mop.Op{mop.Mov{Src: 0, Dst: slot(9), Len: 27}}, win(0), []mop.Op{beside}, win(1, 2), win(9, 10)),
			kernels: map[int]int{1: 1, 3*perWin + 1: 1, 2 * perWin: 1},
		},
		{
			// Private arrays, each of other content: every window is a block of
			// its own, its lanes streamed four at a time.
			name:    "four-windows-over-unaliased-crossbars",
			body:    slices.Concat(program(0, 0), program(1, 1), program(2, 0), program(3, 1), win(0, 1, 2, 3)),
			kernels: map[int]int{1: 8, 4 * perWin: 1},
			check: func(t *testing.T, lane []int64) {
				plain := plain(0, 1, 2, 3)
				if lane[out] != plain[out] || lane[out+2] != plain[out+2] || lane[out+1] == plain[out+1] || lane[out+3] == plain[out+3] {
					t.Errorf("windows 1 and 3 read shifted tiles, windows 0 and 2 the image's: outputs say otherwise")
				}
			},
		},
		{
			// Raw accumulators where a read expects activations: the packing
			// guard trips for the lanes that hold them and the sums stay exact.
			name:    "raw-accumulators-through-scratch",
			body:    slices.Concat(win(0), []mop.Op{beside}, win(1, 2, 3)),
			kernels: map[int]int{4*perWin + 1: 1},
			prepare: func(st *BatchState) {
				for l := 0; l < st.lanes; l++ {
					if l != 1 {
						copy(st.lane(l)[slot(9):], huge)
					}
				}
			},
			check: func(t *testing.T, lane []int64) {
				cols := img.nodes[1].cols
				for j := 0; j < cols; j++ {
					var want int64
					for i, a := range huge {
						want += a * int64(img.nodes[1].qw[i*cols+j])
					}
					if got := lane[out+7+int64(j)*chans]; got != want {
						t.Fatalf("column %d over raw accumulators: %d, want %d", j, got, want)
					}
				}
			},
		},
		{
			// Each window's reads alternate with the same reads into a tile of
			// their own, stores first: two chains a window.
			name:    "stores-and-adds-into-disjoint-tiles-interleaved",
			body:    interleaved,
			kernels: map[int]int{len(interleaved): 1},
			chains:  8,
		},
		{
			// The second read stores into 32 consecutive words, the first of
			// them one the first read adds into; so the third, adding where
			// the first does, may not pass it: a chain of its own, which the
			// fourth joins.
			name:    "an-add-never-passes-a-store-into-its-words",
			body:    []mop.Op{win(0)[0], to(rd[0], out, chans, true), to(rd[1], out, 1, false), rd[2], rd[3]},
			kernels: map[int]int{5: 1},
			chains:  3,
		},
		{
			// 27 wordlines a time: the first chain reaches 62 of the 63 rows a
			// three-column word may sum; its next read starts a chain of its
			// own, which the rest join.
			name:    "a-regrouped-chain-is-cut-at-its-guard-bound",
			body:    slices.Concat(win(0)[:1], cut),
			kernels: map[int]int{1 + len(cut): 1},
			chains:  3,
		},
		{
			// Operator 4 fails first in program order; operator 5, which
			// fails too, runs first, in the chain of operator 1.
			name:    "the-first-failing-read-in-program-order-names-itself",
			body:    []mop.Op{win(0)[0], rd[0], other(rd[0], false), rd[2], other(early, true), late},
			kernels: map[int]int{6: 1},
			chains:  2,
			fails:   4,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole, err := img.CompileBody(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if got := kernelSizes(whole); !maps.Equal(got, tc.kernels) {
				t.Fatalf("kernels by operator count: %v, want %v", got, tc.kernels)
			}
			if tc.chains > 0 && len(whole.chains) != tc.chains {
				t.Fatalf("%d chains, want %d", len(whole.chains), tc.chains)
			}
			if tc.fails > 0 {
				firstFailureApart(t, c, whole, tc.fails)
				return
			}
			sweptMatchesApart(t, c, whole, tc.prepare, everyLaneCount)
			if tc.check != nil {
				tc.check(t, runOneLane(t, c, whole, tc.prepare))
			}
		})
	}
}

// firstFailureApart requires the operators of whole run one per flow to fail
// first at operator k, and whole to fail with k's error, named by its place in
// the body, leaving lane memory as it found it.
func firstFailureApart(t *testing.T, c *laneCell, whole *CompiledFlow, k int) {
	t.Helper()
	img := c.img
	st := img.NewBatchState(2)
	bm := img.ExecBatch(st)
	for i, op := range whole.ops {
		cf, err := img.CompileBody([]mop.Op{op})
		if err != nil {
			t.Fatal(err)
		}
		if err := bm.RunBody(cf); (err != nil) != (i == k) {
			t.Fatalf("operator %d run alone: err = %v; the first to fail must be operator %d", i, err, k)
		} else if err != nil {
			break
		}
	}
	img.ResetBatch(st, 2)
	before := slices.Clone(st.mem)
	want := fmt.Sprintf("op %d (%s)", k, whole.ops[k])
	if err := img.ExecBatch(st).RunBody(whole); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one containing %q", err, want)
	}
	if !slices.Equal(st.mem, before) {
		t.Fatal("the failed sweep wrote to lane memory")
	}
}

// im2col is the plain nested-loop window gather with zero padding: window w of
// a [inC, h, wd] input, rows in (channel, kernel row, kernel column) order.
func im2col(in []int64, inC, h, wd, k, stride, pad, outW int, w int) []int64 {
	oy, ox := w/outW, w%outW
	var rows []int64
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
				v := int64(0)
				if iy >= 0 && iy < h && ix >= 0 && ix < wd {
					v = in[(ic*h+iy)*wd+ix]
				}
				rows = append(rows, v)
			}
		}
	}
	return rows
}

// sweepGeometryCase builds a convolution from the parameters, holds its static
// window geometry to im2col on every window, and holds the body the compiler
// generates for it — on a WLM chip (mov_window + readrow sweeps) and on a CM
// chip (readcore sweeps) — to its operators run one per flow, and to itself
// run again from its published plans and from a start off the baseline view.
func sweepGeometryCase(t *testing.T, chans, h, wd, kernel, stride, pad, lanes uint8) {
	inC, outC := 1+int(chans)%3, 1+int(chans>>2)%6
	k := 1 + int(kernel)%3
	H, W := k+int(h)%7, k+int(wd)%7
	s, p := 1+int(stride)%3, int(pad)%(k+1)
	name := fmt.Sprintf("conv-%dx%dx%d-k%d-s%d-p%d-o%d", inC, H, W, k, s, p, outC)
	g := graph.NewBuilder(name, inC, H, W).Conv(outC, k, s, p).ReLU().MustFinish()
	if err := g.InferShapes(); err != nil {
		t.Skip(err)
	}
	conv := g.MustNode(1)
	outW, wins := conv.OutShape[2], int(conv.MVMCount())

	geo := newWinGeometry(g, conv, inC*k*k)
	in := make([]int64, inC*H*W)
	for i := range in {
		in[i] = int64(i%17) - 8 + int64(i)<<8
	}
	got := make([]int64, len(geo.rel))
	for w := 0; w < wins; w++ {
		y0, x0 := geo.origin(int64(w))
		mag := geo.gather(got, in, int(y0), int(x0))
		want := im2col(in, inC, H, W, k, s, p, outW, w)
		if !slices.Equal(got, want) {
			t.Fatalf("%s window %d: gathered %v, im2col %v", name, w, got, want)
		}
		if ref := copyMag(make([]int64, len(want)), want); mag != ref {
			t.Fatalf("%s window %d: guard operand %#x, over the words %#x", name, w, mag, ref)
		}
	}

	n := 1 + int(lanes)%8
	for _, a := range []*arch.Arch{arch.ToyExample(), toyInMode(arch.CM)} {
		c := newLaneCell(t, g, a, 51, n, programmed)
		sweptMatchesApart(t, c, c.cf, nil, []int{n})
		plansMatchLive(t, c, c.cf, n)       // again from the published plans, and live
		c.run(t, c.img.NewBatchState(n), n) // and all equal the quantized reference
	}
}

// plansMatchLive runs cf over the first lanes requests of c three ways — on a
// fresh state, which publishes the sweeps' plans unless a run already has; on
// a second, which takes them; and on a third after an empty body, so that cf
// does not start from the baseline view and resolves live — and requires the
// three to leave the same state. It returns how many of cf's sweeps had a plan
// published after the first run.
func plansMatchLive(t *testing.T, c *laneCell, cf *CompiledFlow, lanes int) (published int) {
	t.Helper()
	empty, err := c.img.CompileBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	var states [3]*BatchState
	for i := range states {
		st := c.img.NewBatchState(lanes)
		bm := c.img.ExecBatch(st)
		for l := 0; l < lanes; l++ {
			if err := bm.LoadInputs(l, c.ins[l]); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2 {
			if err := bm.RunBody(empty); err != nil {
				t.Fatal(err)
			}
		}
		if err := bm.RunBody(cf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			published = planCount(cf)
		}
		states[i] = st
	}
	requireSameState(t, fmt.Sprintf("%d lanes: the publishing run and a run from its plans", lanes), states[0], states[1])
	requireSameState(t, fmt.Sprintf("%d lanes: the publishing run and a live one", lanes), states[0], states[2])
	return published
}

// planCount reports how many of cf's sweeps have a published plan.
func planCount(cf *CompiledFlow) int {
	n := 0
	for i := range cf.plans {
		if cf.plans[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestPlansMatchLiveResolution: a body that starts from the image's baseline
// view runs its sweeps from the plans the first such run published — on any
// state — and leaves exactly what resolving against the view leaves, at one
// and at five lanes, and what the body run operator by operator leaves. The
// cells: the benchmark's six exec-* cells (conv-gate.puma as its two CIM
// stages; lenet5.toy-table2's body programs crossbars between its sweeps),
// the serve-http pairs conv-relu.toy-table2 and mlp.isaac-baseline (its
// chains gather reads the flow interleaves), and a hand-written body that
// reprograms crossbars
// between two sweeps of one node, so the second reads arrays private to each
// state.
func TestPlansMatchLiveResolution(t *testing.T) {
	stage := func(idx int) func(t *testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph { return cimStage(t, models.ConvGate(), idx) }
	}
	for _, tc := range []struct {
		name string
		g    func(t *testing.T) *graph.Graph
		a    *arch.Arch
		body func(t *testing.T, c *laneCell) []mop.Op // nil: the generated body
	}{
		{name: "conv-relu.isaac-baseline", g: zoo(models.ConvReLU), a: arch.ISAACBaseline()},
		{name: "lenet5.puma", g: zoo(models.LeNet5), a: arch.PUMAAccelerator()},
		{name: "lenet5.jia-isscc21", g: zoo(models.LeNet5), a: arch.JiaAccelerator()},
		{name: "mlp.puma", g: zoo(models.MLP), a: arch.PUMAAccelerator()},
		{name: "lenet5.toy-table2", g: zoo(models.LeNet5), a: arch.ToyExample()},
		{name: "conv-gate.puma.stage0", g: stage(0), a: arch.PUMAAccelerator()},
		{name: "conv-gate.puma.stage1", g: stage(1), a: arch.PUMAAccelerator()},
		{name: "conv-relu.toy-table2", g: zoo(models.ConvReLU), a: arch.ToyExample()},
		{name: "mlp.isaac-baseline", g: zoo(models.MLP), a: arch.ISAACBaseline()},
		{name: "reprogrammed-between-sweeps", g: zoo(models.ConvReLU), a: arch.ISAACBaseline(), body: func(t *testing.T, c *laneCell) []mop.Op {
			// Window w multiplies on crossbars 2w and 2w+1; windows 4 and 5 read
			// them reprogrammed a row off.
			var body []mop.Op
			for w := 0; w < 6; w++ {
				if w == 4 {
					body = append(body,
						mop.WriteRow{XB: 8, Row: 0, NumRows: 14, Node: 1, CellRowOff: 1, Cols: 128},
						mop.WriteRow{XB: 9, Row: 0, NumRows: 13, Node: 1, CellRowOff: 13, Cols: 128})
				}
				body = append(body, windowOps(t, c.cf.ops, w)...)
			}
			return body
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneCell(t, tc.g(t), tc.a, 54, 8, programmed)
			body := c.flow.Body
			if tc.body != nil {
				body = tc.body(t, c)
			}
			cf, err := c.img.CompileBody(body)
			if err != nil {
				t.Fatal(err)
			}
			if cf.sweeps == 0 {
				t.Fatal("the body has no sweep: nothing tested")
			}
			if got := plansMatchLive(t, c, cf, 1); got != cf.sweeps {
				t.Fatalf("the first run published %d plans for %d sweeps", got, cf.sweeps)
			}
			plans := make([]*resolution, len(cf.plans))
			for i := range plans {
				plans[i] = cf.plans[i].Load()
			}
			plansMatchLive(t, c, cf, 5)
			for i := range plans {
				if cf.plans[i].Load() != plans[i] {
					t.Fatalf("sweep %d's plan was published again", i)
				}
			}
			sweptMatchesApart(t, c, cf, nil, []int{1, 5})
		})
	}
}

// TestPlansServeOnlyBaselineStarts: a body that does not start from the
// baseline view resolves live even where its sweeps have plans. Here an
// earlier body reprogrammed, a row off, the crossbars window 1 reads — which
// the plans, grouping window 1 with the windows around it, know nothing of.
func TestPlansServeOnlyBaselineStarts(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), arch.ISAACBaseline(), 59, 2, programmed)
	var windows []mop.Op
	for w := 0; w < 4; w++ {
		windows = append(windows, windowOps(t, c.cf.ops, w)...)
	}
	reprogram := []mop.Op{
		mop.WriteRow{XB: 2, Row: 0, NumRows: 14, Node: 1, CellRowOff: 1, Cols: 128},
		mop.WriteRow{XB: 3, Row: 0, NumRows: 13, Node: 1, CellRowOff: 13, Cols: 128},
	}
	compile := func(ops []mop.Op) *CompiledFlow {
		cf, err := c.img.CompileBody(ops)
		if err != nil {
			t.Fatal(err)
		}
		return cf
	}
	body, first, whole := compile(windows), compile(reprogram), compile(slices.Concat(reprogram, windows))
	if plansMatchLive(t, c, body, 2) != 1 {
		t.Fatal("the windows' sweep published no plan")
	}
	got, want, base := c.img.NewBatchState(2), c.img.NewBatchState(2), c.img.NewBatchState(2)
	for _, run := range []struct {
		st   *BatchState
		cfs  []*CompiledFlow
		what string
	}{{got, []*CompiledFlow{first, body}, "got"}, {want, []*CompiledFlow{whole}, "want"}, {base, []*CompiledFlow{body}, "base"}} {
		bm := c.img.ExecBatch(run.st)
		for l := 0; l < 2; l++ {
			if err := bm.LoadInputs(l, c.ins[l]); err != nil {
				t.Fatal(err)
			}
		}
		for _, cf := range run.cfs {
			if err := bm.RunBody(cf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if slices.Equal(want.mem, base.mem) {
		t.Fatal("reprogramming the crossbars changed no output: nothing tested")
	}
	requireSameState(t, "the windows after a body that reprogrammed their crossbars and the two compiled as one", got, want)
}

// TestPlansNeverMeetAForeignView: a plan indexes the crossbar view of the
// image it was built against, so a state last reset against another image is
// refused — with nothing written — until it is reset against the flow's own;
// then it runs from the plans like any other.
func TestPlansNeverMeetAForeignView(t *testing.T) {
	a := newLaneCell(t, models.LeNet5(), arch.ToyExample(), 55, 1, programmed)
	b := newLaneCell(t, models.LeNet5(), arch.ToyExample(), 56, 1, programmed)
	if plansMatchLive(t, b, b.cf, 1) == 0 {
		t.Fatal("b's body published no plan: nothing tested")
	}
	st := a.img.NewBatchState(1)
	if err := a.img.ExecBatch(st).LoadInputs(0, a.ins[0]); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(st.mem)
	err := b.img.ExecBatch(st).RunBody(b.cf)
	if err == nil || !strings.Contains(err.Error(), "different image") {
		t.Fatalf("a state reset against another image ran the flow: err = %v", err)
	}
	if !slices.Equal(st.mem, before) {
		t.Fatal("the refused run wrote to lane memory")
	}
	b.img.ResetBatch(st, 1)
	want := b.img.NewBatchState(1)
	for _, s := range []*BatchState{st, want} {
		bm := b.img.ExecBatch(s)
		if err := bm.LoadInputs(0, b.ins[0]); err != nil {
			t.Fatal(err)
		}
		if err := bm.RunBody(b.cf); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, "a state reset against the flow's image and a fresh one", st, want)
}

// TestPlansPublishConcurrently: goroutines that each run one shared, never-run
// CompiledFlow on their own states race to publish its plans — the body
// programs crossbars between its sweeps, so each state reads arrays of its
// own — and every one of them must leave what a live run leaves.
func TestPlansPublishConcurrently(t *testing.T) {
	c := newLaneCell(t, models.LeNet5(), arch.ToyExample(), 57, 3, programmed)
	cf, err := c.img.CompileBody(c.flow.Body)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := c.img.CompileBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(st *BatchState, live bool) error {
		bm := c.img.ExecBatch(st)
		for l := 0; l < st.lanes; l++ {
			if err := bm.LoadInputs(l, c.ins[l]); err != nil {
				return err
			}
		}
		if live { // the body does not start from the baseline view
			if err := bm.RunBody(empty); err != nil {
				return err
			}
		}
		return bm.RunBody(cf)
	}
	want := c.img.NewBatchState(3)
	if err := run(want, true); err != nil {
		t.Fatal(err)
	}
	if planCount(cf) != 0 {
		t.Fatal("a live run published a plan")
	}
	states := make([]*BatchState, 8)
	errs := make([]error, len(states))
	var wg sync.WaitGroup
	for i := range states {
		states[i] = c.img.NewBatchState(3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(states[i], false)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if planCount(cf) != cf.sweeps {
		t.Fatalf("%d plans published for %d sweeps", planCount(cf), cf.sweeps)
	}
	for i, st := range states {
		requireSameState(t, fmt.Sprintf("goroutine %d and a live run", i), st, want)
	}
}

// The border cases: a 1 × 1 kernel, padding as wide as the kernel, a stride
// past the kernel, one window, one column of windows, and the zoo's 3 × 3.
var sweepGeometrySeeds = [][7]uint8{
	{0, 0, 0, 0, 0, 0, 0},
	{2, 4, 4, 2, 0, 1, 3},
	{1, 6, 2, 2, 1, 3, 4},
	{6, 0, 5, 1, 2, 2, 7},
	{9, 3, 0, 2, 2, 0, 2},
	{23, 5, 6, 1, 1, 1, 5},
}

func TestSweepGeometryMatchesIm2col(t *testing.T) {
	for _, s := range sweepGeometrySeeds {
		sweepGeometryCase(t, s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
}

// FuzzSweepGeometry drives sweepGeometryCase from fuzzed shapes.
func FuzzSweepGeometry(f *testing.F) {
	for _, s := range sweepGeometrySeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
	f.Fuzz(sweepGeometryCase)
}

// interleaveSources are FuzzSweepInterleave's cells: dense stacks whose
// windows interleave the reads of several column tiles (readrows eight
// wordlines at a time; readxbs; tiles cut by reprogramming), and a
// convolution of two column tiles a window.
var interleaveSources = []struct {
	name string
	g    func() *graph.Graph
	a    func() *arch.Arch
}{
	{"mlp.isaac-baseline", models.MLP, arch.ISAACBaseline},
	{"mlp.puma", models.MLP, arch.PUMAAccelerator},
	{"lenet5.toy-table2", models.LeNet5, arch.ToyExample},
	{"conv-wide.toy-wlm", convWide, func() *arch.Arch { return toyInMode(arch.WLM) }},
}

// convWide is a convolution of more output channels, 40, than a toy crossbar
// holds weight columns, 32: two column tiles a window.
func convWide() *graph.Graph {
	return graph.NewBuilder("conv-wide", 2, 6, 6).Conv(40, 3, 1, 1).ReLU().MustFinish()
}

// interleave returns ops with the reads of each window — each maximal run of
// crossbar reads — shuffled at random, keeping the reads into each
// destination in their order (its store first).
func interleave(ops []mop.Op, rng *rand.Rand) []mop.Op {
	type key struct{ dst, stride int64 }
	out := make([]mop.Op, 0, len(ops))
	for i := 0; i < len(ops); {
		var order []key
		byDst := map[key][]mop.Op{}
		j := i
	reads:
		for ; j < len(ops); j++ {
			var k key
			switch o := ops[j].(type) {
			case mop.ReadRow:
				k = key{o.Dst, o.DstStride}
			case mop.ReadXB:
				k = key{o.Dst, o.DstStride}
			default:
				break reads
			}
			if _, ok := byDst[k]; !ok {
				order = append(order, k)
			}
			byDst[k] = append(byDst[k], ops[j])
		}
		if j == i {
			out = append(out, ops[i])
			i++
			continue
		}
		// Each next read comes from a destination drawn in proportion to the
		// reads it has left: every interleaving is as likely as any other.
		for left := j - i; left > 0; left-- {
			r := rng.IntN(left)
			for _, k := range order {
				if r < len(byDst[k]) {
					out = append(out, byDst[k][0])
					byDst[k] = byDst[k][1:]
					break
				}
				r -= len(byDst[k])
			}
		}
		i = j
	}
	return out
}

// FuzzSweepInterleave: a generated body whose windows' reads are shuffled
// across destinations (interleave) leaves what its operators leave run one
// per flow, and leaves it again run from its published plans and live.
func FuzzSweepInterleave(f *testing.F) {
	for i := range interleaveSources {
		f.Add(uint8(i), uint64(i), uint8(i))
	}
	cells := make([]*laneCell, len(interleaveSources))
	f.Fuzz(func(t *testing.T, which uint8, seed uint64, lanes uint8) {
		i, n := int(which)%len(interleaveSources), 1+int(lanes)%4
		src := interleaveSources[i]
		t.Logf("%s, seed %d, %d lanes", src.name, seed, n)
		if cells[i] == nil {
			cells[i] = newLaneCell(t, src.g(), src.a(), 58, 4, programmed)
		}
		c := cells[i]
		cf, err := c.img.CompileBody(interleave(c.cf.ops, rand.New(rand.NewPCG(seed, 0))))
		if err != nil {
			t.Fatal(err)
		}
		sweptMatchesApart(t, c, cf, nil, []int{n})
		plansMatchLive(t, c, cf, n)
	})
}

// TestSweepFencesOverlappingOutputs: a pass of four windows interleaves their
// stores column word by column word, so a window that stores into words a
// window just ahead of it stores into too — in other columns; possible only
// where a node has more output columns than a crossbar — must not share a pass
// with it. Here window 1's first column tile lands one channel above window
// 0's, over its columns 1 to 31.
func TestSweepFencesOverlappingOutputs(t *testing.T) {
	c := newLaneCell(t, convWide(), toyInMode(arch.WLM), 52, 8, programmed)
	out, chans := c.img.lay.Region[1].Base, c.img.lay.Region[1].Size/40
	var body []mop.Op
	for w := 0; w < 4; w++ {
		for _, op := range windowOps(t, c.cf.ops, w) {
			if rd, ok := op.(mop.ReadRow); ok && w == 1 && rd.Dst == out+1 {
				rd.Dst = out + chans
				op = rd
			}
			body = append(body, op)
		}
	}
	whole, err := c.img.CompileBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.kernels) != 1 {
		t.Fatalf("%d kernels, want the one sweep", len(whole.kernels))
	}
	if w := whole.wins; len(w) != 4 || w[0].fence || !w[1].fence || w[2].fence || w[3].fence {
		t.Fatalf("windows fenced: %v, want the second only", w)
	}
	sweptMatchesApart(t, c, whole, nil, everyLaneCount)
}

// TestExecCellsWordFormats pins, on the benchmark's six exec-* cells
// (conv-gate.puma as its two CIM stages), which nodes multiply three weight
// columns to the word, how many accumulation chains each node's sweeps
// compile to and how many multiplies they do per request, as the published
// plans run them: a node that silently fell back to two columns to the word,
// or to one, multiplies more, and a chain cut by its guard bound into two
// shows as one chain more per window. And no packed chain's guard bound
// refuses settled activations, which would send every window through the
// unpacking loop.
func TestExecCellsWordFormats(t *testing.T) {
	stage := func(idx int) func(t *testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph { return cimStage(t, models.ConvGate(), idx) }
	}
	// lenet5's conv1 is 25 × 6 (784 windows), conv2 150 × 16 (100), the dense
	// layers 400 × 120, 120 × 84 and 84 × 10.
	lenet5Per := map[string]int{"conv_1": 3, "conv_2": 2, "fc_1": 2, "fc_2": 2, "fc_3": 2}
	lenet5Mults := map[string]int{"conv_1": 39200, "conv_2": 120000, "fc_1": 24000, "fc_2": 5040, "fc_3": 420}
	for _, tc := range []struct {
		name   string
		g      func(t *testing.T) *graph.Graph
		a      *arch.Arch
		per    map[string]int // weight columns to the word of each node's chains
		chains map[string]int // accumulation chains of each node's sweeps
		mults  map[string]int // multiplies per request of each node's sweeps
	}{
		// 27 × 32 over 1 024 windows, one chain each: 11 words of 27
		// wordlines. (The chain counts are those of the two-column executor:
		// no chain is cut for a third column.)
		{"conv-relu.isaac-baseline", zoo(models.ConvReLU), arch.ISAACBaseline(), map[string]int{"conv_1": 3}, map[string]int{"conv_1": 1024}, map[string]int{"conv_1": 304128}},
		// A dense layer is one window whose column tiles' reads interleave
		// (one readxb per row crossbar and tile; on toy-table2 and
		// isaac-baseline, one readrow per row group of each): one chain per
		// column tile and sweep. fc_1's 4 row crossbars × 4 tiles are 4 chains.
		{"lenet5.puma", zoo(models.LeNet5), arch.PUMAAccelerator(), lenet5Per, map[string]int{"conv_1": 784, "conv_2": 100, "fc_1": 4, "fc_2": 3, "fc_3": 1}, lenet5Mults},
		{"lenet5.jia-isscc21", zoo(models.LeNet5), arch.JiaAccelerator(), lenet5Per, map[string]int{"conv_1": 784, "conv_2": 100, "fc_1": 1, "fc_2": 1, "fc_3": 1}, lenet5Mults},
		// 784 × 256 on 7 row crossbars × 8 tiles, 256 × 128 on 2 × 4.
		{"mlp.puma", zoo(models.MLP), arch.PUMAAccelerator(), map[string]int{"fc_1": 2, "fc_2": 2, "fc_3": 2}, map[string]int{"fc_1": 8, "fc_2": 4, "fc_3": 1}, map[string]int{"fc_1": 100352, "fc_2": 16384, "fc_3": 640}},
		// The body reprograms the crossbars every 32 rows, which ends a sweep:
		// fc_1 is 13 sweeps of 4 tiles, fc_2 3 sweeps of 3.
		{"lenet5.toy-table2", zoo(models.LeNet5), arch.ToyExample(), lenet5Per, map[string]int{"conv_1": 784, "conv_2": 200, "fc_1": 52, "fc_2": 9, "fc_3": 1}, lenet5Mults},
		// 27 × 16 over 256 windows: 6 words.
		{"conv-gate.puma.stage0", stage(0), arch.PUMAAccelerator(), map[string]int{"conv_1": 3}, map[string]int{"conv_1": 256}, map[string]int{"conv_1": 41472}},
		{"conv-gate.puma.stage1", stage(1), arch.PUMAAccelerator(), map[string]int{"fc_1": 2}, map[string]int{"fc_1": 1}, map[string]int{"fc_1": 20480}},
		// The serve-http pairs. fc_1 reads 25 crossbars of 32 rows in each of
		// 8 tiles, four row groups of eight wordlines a crossbar: 800 reads,
		// one chain of 25 runs per tile. fc_2: 8 crossbars × 4 tiles.
		{"mlp.isaac-baseline", zoo(models.MLP), arch.ISAACBaseline(), map[string]int{"fc_1": 2, "fc_2": 2, "fc_3": 2}, map[string]int{"fc_1": 8, "fc_2": 4, "fc_3": 1}, map[string]int{"fc_1": 100352, "fc_2": 16384, "fc_3": 640}},
		{"conv-relu.toy-table2", zoo(models.ConvReLU), arch.ToyExample(), map[string]int{"conv_1": 3}, map[string]int{"conv_1": 1024}, map[string]int{"conv_1": 304128}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneCell(t, tc.g(t), tc.a, 55, 1, programmed)
			c.run(t, c.img.NewBatchState(1), 1) // publishes every sweep's plan
			cf, img := c.cf, c.img
			nodeOf := func(ch sweepChain) string { return img.g.MustNode(img.res.Owner(img.res.NodeRegionAt(ch.dst))).Name }
			per, chains, mults := map[string]int{}, map[string]int{}, map[string]int{}
			for _, ch := range cf.chains {
				name := nodeOf(ch)
				chains[name]++
				if p, ok := per[name]; ok && p != int(ch.per) {
					t.Fatalf("node %s's chains multiply %d and %d columns to the word", name, p, ch.per)
				}
				if settled := int64(1)<<(tc.a.ActBits-1) - 1; ch.per > 1 && ch.limit < settled {
					t.Fatalf("a chain of node %s guards its %d columns to the word with bound %d, below settled activations' %d", name, ch.per, ch.limit, settled)
				}
				per[name] = int(ch.per)
			}
			for i := range cf.plans {
				plan := cf.plans[i].Load()
				if plan == nil {
					t.Fatalf("sweep %d published no plan", i)
				}
				for bi, b := range plan.blocks {
					end := len(plan.calls)
					if bi+1 < len(plan.blocks) {
						end = plan.blocks[bi+1].call
					}
					for _, call := range plan.calls[b.call:end] {
						name := nodeOf(cf.chains[cf.wins[b.win].lo+call.chain])
						for _, r := range plan.runs[b.run+int(call.lo) : b.run+int(call.hi)] {
							mults[name] += b.wins * wordsFor(int(call.cols), int(call.per)) * r.n
						}
					}
				}
			}
			if !maps.Equal(per, tc.per) || !maps.Equal(chains, tc.chains) || !maps.Equal(mults, tc.mults) {
				t.Fatalf("weight columns to the word %v, chains %v, multiplies per request %v; want %v, %v and %v", per, chains, mults, tc.per, tc.chains, tc.mults)
			}
		})
	}
}

// TestChainBoundCountsWeightRows: a chain's guard bound counts, of each
// member's wordlines, only as many as can hold a weight — a crossbar maps each
// wordline to one row of its node's matrix — so two readxbs over conv-relu's
// 27 × 32 conv, split 14 / 13 over two of isaac-baseline's 128-wordline
// crossbars, stay one chain of three columns to the word, its bound that of
// 54 rows, instead of being cut for 256; and the chains leave what their reads
// leave one operator per flow.
func TestChainBoundCountsWeightRows(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), arch.ISAACBaseline(), 56, 5, programmed)
	var body []mop.Op
	const windows = 6
	for w := range windows {
		for _, op := range windowOps(t, c.cf.ops, w) {
			switch o := op.(type) {
			case mop.MovWindow:
				body = append(body, o)
			case mop.ReadRow:
				if o.Row == 0 {
					body = append(body, mop.ReadXB{XB: o.XB, Src: o.Src, Dst: o.Dst, DstStride: o.DstStride, Acc: o.Acc})
				}
			}
		}
	}
	cf, err := c.img.CompileBody(body)
	if err != nil {
		t.Fatal(err)
	}
	want := packLimit(54, c.img.a.WeightBits, 21)
	if len(cf.chains) != windows || len(cf.members) != 2*windows {
		t.Fatalf("%d windows of two readxbs compiled to %d chains of %d members", windows, len(cf.chains), len(cf.members))
	}
	for _, ch := range cf.chains {
		if ch.per != 3 || ch.limit != want {
			t.Fatalf("a chain multiplies %d columns to the word with guard bound %d, want 3 and %d", ch.per, ch.limit, want)
		}
	}
	sweptMatchesApart(t, c, cf, nil, []int{1, 5})
}
