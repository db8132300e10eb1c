package funcsim

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/core"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// writesByXB lists, per crossbar, the init section's writes with the crossbar
// operand blanked: the test's own rendering of "what was written there", kept
// apart from ProgramInit's signature trie.
func writesByXB(t *testing.T, init []mop.Op) map[int]string {
	t.Helper()
	seq := map[int]string{}
	for _, op := range init {
		switch o := op.(type) {
		case mop.WriteXB:
			xb := o.XB
			o.XB = 0
			seq[xb] += o.String() + ";"
		case mop.WriteRow:
			xb := o.XB
			o.XB = 0
			seq[xb] += o.String() + ";"
		default:
			t.Fatalf("init section holds %s", op)
		}
	}
	return seq
}

// TestProgramInitSharesEqualCrossbars: after ProgramInit two crossbars share
// their baseline weight array exactly when the same writes were addressed to
// them in the same order, and what each holds is what its writes say
// whichever crossbar ran them.
func TestProgramInitSharesEqualCrossbars(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		a    *arch.Arch
	}{
		{"conv-relu.toy-wlm", models.ConvReLU(), toyInMode(arch.WLM)}, // four copies of one tile
		{"lenet5.puma", models.LeNet5(), arch.PUMAAccelerator()},      // duplicated convs beside distinct dense tiles
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneCell(t, tc.g, tc.a, 51, 2, programmed)
			img := c.img
			seq := writesByXB(t, c.flow.Init)
			first := map[string]int{} // write sequence → the lowest crossbar it was addressed to
			for xb := range img.baseProg {
				s, written := seq[xb]
				if !written {
					if img.baseWeights[xb] != nil || img.baseProg[xb].Node != -1 {
						t.Fatalf("crossbar %d holds something, but nothing was written to it", xb)
					}
					continue
				}
				if img.baseWeights[xb] == nil {
					t.Fatalf("crossbar %d was written but holds nothing", xb)
				}
				// One weight array per crossbar, in the word format of the node
				// it holds, cut to the wordlines programmed.
				node := img.baseProg[xb].Node
				if per := img.nodes[node].per; per == 1 || len(img.baseWeights[xb]) != int(img.baseProg[xb].Rows)*wordsFor(img.a.XB.Cols/img.a.CellsPerWeight(), per) {
					t.Fatalf("crossbar %d keeps %d weight words (node %d, %d columns to the word)", xb, len(img.baseWeights[xb]), node, per)
				}
				r, seen := first[s]
				if !seen {
					first[s] = xb
					continue
				}
				if &img.baseWeights[xb][0] != &img.baseWeights[r][0] || img.baseProg[xb] != img.baseProg[r] {
					t.Fatalf("crossbars %d and %d were written alike but do not share their baseline", r, xb)
				}
			}
			reps := make([]int, 0, len(first))
			for _, xb := range first {
				reps = append(reps, xb)
			}
			for i, x := range reps {
				for _, y := range reps[i+1:] {
					if &img.baseWeights[x][0] == &img.baseWeights[y][0] {
						t.Fatalf("crossbars %d and %d were written differently but share their baseline", x, y)
					}
				}
			}
			crossbars, distinct := img.Programmed()
			if crossbars != len(seq) || distinct != len(first) {
				t.Fatalf("Programmed() = %d crossbars, %d distinct; the init section writes %d, %d distinct", crossbars, distinct, len(seq), len(first))
			}
			if distinct == crossbars {
				t.Fatalf("cell programs %d crossbars all differently: nothing shared, nothing tested", crossbars)
			}
			t.Logf("%d crossbars programmed, %d distinct", crossbars, distinct)
			// The contents are right, not only shared: every lane of every node
			// matches the quantized reference.
			c.run(t, img.NewBatchState(2), 2)
		})
	}
}

// TestBodyWriteReachesOneCopyOnly reprograms, from the body, one of several
// crossbars that share a baseline array — with the copy's own tile moved one
// weight column over, so its reads change — and requires the write to show in
// that copy's reads and nowhere else: every conv output no read of that copy
// produces still equals the quantized reference (its siblings read the
// baseline), as does everything a second state off the same image computes
// meanwhile and everything the writing state computes once recycled; the
// image's arrays are untouched. One lane and several.
func TestBodyWriteReachesOneCopyOnly(t *testing.T) {
	for _, mode := range []arch.Mode{arch.WLM, arch.XBM} {
		t.Run(string(mode), func(t *testing.T) {
			const conv = 1 // conv-relu: input, conv, relu
			c := newLaneCell(t, models.ConvReLU(), toyInMode(mode), 52, 3, programmed)
			img := c.img
			s := img.a.CellsPerWeight()

			// The copy to rewrite: the last crossbar programmed, which shares
			// the array an earlier one was programmed into.
			var last mop.Op
			x := -1
			for _, op := range c.flow.Init {
				if w, ok, _ := img.res.ResolveWrite(op); ok && w.XB >= x {
					x, last = w.XB, op
				}
			}
			shared := 0
			for _, w := range img.baseWeights {
				if w != nil && &w[0] == &img.baseWeights[x][0] {
					shared++
				}
			}
			if shared < 2 {
				t.Fatalf("crossbar %d shares its baseline with no other", x)
			}
			var shifted mop.Op
			switch o := last.(type) {
			case mop.WriteXB:
				o.CellColOff, o.Cols = o.CellColOff+s, o.Cols-s
				shifted = o
			case mop.WriteRow:
				o.CellColOff, o.Cols = o.CellColOff+s, o.Cols-s
				shifted = o
			}
			rewriting, err := img.CompileBody(append([]mop.Op{shifted}, c.flow.Body...))
			if err != nil {
				t.Fatal(err)
			}

			// The conv outputs a read of crossbar x produces.
			fromX := map[int64]bool{}
			nW := int64(img.baseProg[x].WCols)
			for _, op := range c.cf.ops {
				var xb int
				var dst, stride int64
				switch o := op.(type) {
				case mop.ReadXB:
					xb, dst, stride = o.XB, o.Dst, o.DstStride
				case mop.ReadRow:
					xb, dst, stride = o.XB, o.Dst, o.DstStride
				default:
					continue
				}
				if xb == x {
					for j := int64(0); j < nW; j++ {
						fromX[dst+j*stride-img.lay.Region[conv].Base] = true
					}
				}
			}
			if len(fromX) == 0 || int64(len(fromX)) == img.lay.Region[conv].Size {
				t.Fatalf("crossbar %d produces %d of the conv's %d outputs: no split to test", x, len(fromX), img.lay.Region[conv].Size)
			}

			before := slices.Clone(img.baseWeights[x])
			writer, reader := img.NewBatchState(1), img.NewBatchState(1)
			for _, lanes := range []int{1, 3} {
				img.ResetBatch(writer, lanes)
				bm := img.ExecBatch(writer)
				for l := 0; l < lanes; l++ {
					if err := bm.LoadInputs(l, c.ins[l]); err != nil {
						t.Fatal(err)
					}
				}
				if err := bm.RunBody(rewriting); err != nil {
					t.Fatal(err)
				}
				// Mid-flight for the writer: its view of x is private, the
				// image's is not, and another state reads the baseline.
				if writer.shared[x] || !slices.Equal(writer.dirty, []int{x}) {
					t.Fatalf("%d lanes: after the body write, shared[%d]=%v dirty=%v", lanes, x, writer.shared[x], writer.dirty)
				}
				c.run(t, reader, lanes)
				bm.SettleAll()
				for l := 0; l < lanes; l++ {
					got, want := bm.regionTensor(l, conv).Data(), c.want[l][conv].Data()
					changed := 0
					for i := range got {
						switch {
						case fromX[int64(i)] && got[i] != want[i]:
							changed++
						case !fromX[int64(i)] && got[i] != want[i]:
							t.Fatalf("%d lanes, lane %d: conv output %d, which no read of crossbar %d produces, is %g, reference %g", lanes, l, i, x, got[i], want[i])
						}
					}
					if changed == 0 {
						t.Fatalf("%d lanes, lane %d: the body write to crossbar %d changed none of the %d outputs read from it", lanes, l, x, len(fromX))
					}
				}
				// Recycled, the writer is back on the baseline.
				c.run(t, writer, lanes)
				if !writer.shared[x] || len(writer.dirty) != 0 {
					t.Fatalf("%d lanes: a recycled state still holds crossbar %d private", lanes, x)
				}
			}
			if !slices.Equal(before, img.baseWeights[x]) {
				t.Fatalf("the body write to crossbar %d reached the image", x)
			}
		})
	}
}

// TestBodyWriteExtendsSharedTile: a body write that extends a tile two
// crossbars still share with the image — more wordlines, and fewer weight
// columns, so its last word holds one column of two (conv-relu's conv on the
// toy arch at 12-bit weights packs two to the word) or one or two of three (at
// 8-bit weights, three to the word), above which the image programmed the
// rest — copies the array on write and merges that last word. The crossbar
// then holds, weight for weight, what the two tiles program from the quantized
// matrix, its sibling still reads the image's array, and the image is as it
// was.
func TestBodyWriteExtendsSharedTile(t *testing.T) {
	for _, tc := range []struct {
		a          *arch.Arch
		per, owned int
	}{
		{toyBits(arch.XBM, 12, 8), 2, 1},
		{toyInMode(arch.XBM), 3, 1},
		{toyInMode(arch.XBM), 3, 2},
	} {
		t.Run(fmt.Sprintf("last-word-owns-%d-of-%d", tc.owned, tc.per), func(t *testing.T) {
			c := newLaneCell(t, models.ConvReLU(), tc.a, 54, 1, oneShot) // image left unprogrammed
			img := c.img
			s := img.a.CellsPerWeight()
			full, ok := c.flow.Init[0].(mop.WriteXB)
			if !ok || full.Rows < 2 || full.Cols/s <= tc.per {
				t.Fatalf("init[0] = %s: want a writexb of at least two wordlines and more than %d weight columns", c.flow.Init[0], tc.per)
			}
			per := img.nodes[full.Node].per
			if per != tc.per {
				t.Fatalf("the arch packs %d weight columns to the word of conv-relu's conv, want %d", per, tc.per)
			}
			// base programs every weight column of the upper wordlines; ext every
			// wordline of the most weight columns below base's that leave owned
			// columns in ext's last word.
			base, ext := full, full
			base.Rows = full.Rows / 2
			cols := full.Cols/s - 1
			for cols%per != tc.owned {
				cols--
			}
			ext.Cols = cols * s
			const x, y = 0, 1
			at := func(w mop.WriteXB, xb int) mop.Op { w.XB = xb; return w }
			if err := img.ProgramInit([]mop.Op{at(base, x), at(base, y)}); err != nil {
				t.Fatal(err)
			}
			if &img.baseWeights[x][0] != &img.baseWeights[y][0] {
				t.Fatalf("crossbars %d and %d were written alike but do not share their baseline", x, y)
			}
			before := slices.Clone(img.baseWeights[x])
			body, err := img.CompileBody([]mop.Op{at(ext, x)})
			if err != nil {
				t.Fatal(err)
			}
			st := img.NewBatchState(1)
			if err := img.ExecBatch(st).RunBody(body); err != nil {
				t.Fatal(err)
			}
			if st.shared[x] || !st.shared[y] || !slices.Equal(st.dirty, []int{x}) {
				t.Fatalf("after the body: shared[%d]=%v shared[%d]=%v dirty=%v", x, st.shared[x], y, st.shared[y], st.dirty)
			}
			if p := st.prog[x]; int(p.Rows) != full.Rows || int(p.WCols) != full.Cols/s || p.stride != img.a.XB.Rows {
				t.Fatalf("crossbar %d holds %+v after extending %+v", x, p, img.baseProg[x])
			}
			qw, qcols := img.nodes[full.Node].qw, img.nodes[full.Node].cols
			f := fieldBits(per)
			for r := 0; r < img.a.XB.Rows; r++ {
				for j := 0; j < per*wordsFor(img.a.XB.Cols/s, per); j++ {
					var want int64
					if (r < base.Rows && j < base.Cols/s) || (r < ext.Rows && j < ext.Cols/s) {
						want = int64(qw[(full.CellRowOff+r)*qcols+full.CellColOff/s+j])
					}
					// Field j%per of the word, by sign extension from the bottom
					// (spelled out here, not splitField, whose use in the merge
					// this checks).
					word := st.weights[x][j/per*img.a.XB.Rows+r]
					for range j % per {
						word = (word - word<<(64-f)>>(64-f)) >> f
					}
					if got := word << (64 - f) >> (64 - f); got != want {
						t.Fatalf("crossbar %d, wordline %d, weight column %d holds %d, the tiles program %d", x, r, j, got, want)
					}
				}
			}
			if &st.weights[y][0] != &img.baseWeights[y][0] || !slices.Equal(before, img.baseWeights[x]) || &img.baseWeights[x][0] != &img.baseWeights[y][0] {
				t.Fatalf("the body write to crossbar %d reached the image or its sibling", x)
			}
		})
	}
}

// TestProgramInitRejects: an init section is weight programming and nothing
// else, every write's crossbar is range-checked though only one crossbar of a
// kind runs its writes, and a baseline is programmed once.
func TestProgramInitRejects(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), toyInMode(arch.XBM), 53, 1, oneShot) // image left unprogrammed
	init := c.flow.Init
	beyond := init[len(init)-1].(mop.WriteXB) // a copy of the tile init[0] programs first
	beyond.XB = c.img.a.TotalCrossbars()
	for name, tc := range map[string]struct {
		init []mop.Op
		want string
	}{
		"not-a-write":        {append(slices.Clone(init), mop.Mov{Src: 0, Dst: 0, Len: 1}), "init section holds " + mop.Mov{Src: 0, Dst: 0, Len: 1}.String()},
		"not-a-write-nested": {[]mop.Op{mop.Parallel{Body: []mop.Op{init[0], mop.ReadXB{XB: 0, DstStride: 1}}}}, "init section holds cim.readxb"},
		"xb-out-of-range":    {append(slices.Clone(init), beyond), fmt.Sprintf("compile %s: crossbar %d outside the chip's %d crossbars", beyond, beyond.XB, beyond.XB)},
	} {
		err := c.img.ProgramInit(tc.init)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
		if n, _ := c.img.Programmed(); n != 0 {
			t.Fatalf("%s: a rejected init section programmed %d crossbars", name, n)
		}
	}
	if err := c.img.ProgramInit(init); err != nil {
		t.Fatal(err)
	}
	if err := c.img.ProgramInit(init[:1]); err == nil || !strings.Contains(err.Error(), "already programmed") {
		t.Errorf("second ProgramInit: err = %v, want one containing \"already programmed\"", err)
	}
}

// TestCrossbarTablesFollowThePlacement: an image keeps one crossbar record
// per crossbar the placement uses (Layout.XBs), not per crossbar of the chip,
// and a flow that writes or reads a crossbar past them is refused as one past
// the chip is.
func TestCrossbarTablesFollowThePlacement(t *testing.T) {
	g, a := models.ConvReLU(), toyInMode(arch.XBM)
	a.Chip.CoreRows, a.Chip.CoreCols = 64, 64
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := codegen.Generate(g, a, res.Schedule, res.Placement, res.Model, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	xbs := gen.Layout.XBs
	if xbs != res.Placement.XBSpan() || xbs < 1 || xbs >= a.TotalCrossbars() {
		t.Fatalf("layout places tiles on %d crossbars (placement span %d) of %d", xbs, res.Placement.XBSpan(), a.TotalCrossbars())
	}
	want := fmt.Sprintf("crossbar %d past the %d crossbars the layout places tiles on", xbs, xbs)
	newImage := func() *Image {
		img, err := NewImage(g, a, gen.Layout, graph.RandomWeights(g, 3), seededInputs(g, 1, 4)[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(img.baseProg) != xbs || len(img.baseWeights) != xbs {
			t.Fatalf("image keeps %d / %d crossbar records, the placement uses %d", len(img.baseProg), len(img.baseWeights), xbs)
		}
		return img
	}
	init := slices.Clone(gen.Flow.Init)
	w := init[len(init)-1].(mop.WriteXB)
	w.XB = xbs
	init[len(init)-1] = w
	if err := newImage().ProgramInit(init); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("init write past the placement: err = %v, want one containing %q", err, want)
	}
	img := newImage()
	if err := img.ProgramInit(gen.Flow.Init); err != nil {
		t.Fatal(err)
	}
	body, moved := slices.Clone(gen.Flow.Body), false
	for i, op := range body {
		if rd, ok := op.(mop.ReadXB); ok {
			rd.XB = xbs
			body[i], moved = rd, true
			break
		}
	}
	if !moved {
		t.Fatal("the body reads no crossbar with a top-level readxb")
	}
	if _, err := img.CompileBody(body); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("read past the placement: err = %v, want one containing %q", err, want)
	}
}

// TestReferenceIgnoresCrossbarState holds Image.Reference to what lets
// Program.Verify run it on the stage image: a readcore multiplies its node's
// quantized matrix and reads no crossbar, so the reference answers the same on
// an image before ProgramInit and after, and it shares the programmed image
// with lane runs — which must keep matching it — without a race (run with
// -race). The cells cover the three modes and flows that reprogram crossbars
// per request.
func TestReferenceIgnoresCrossbarState(t *testing.T) {
	for i, tc := range []struct {
		name string
		g    *graph.Graph
		a    *arch.Arch
	}{
		{"conv-relu.xbm", models.ConvReLU(), toyInMode(arch.XBM)},
		{"conv-relu.wlm", models.ConvReLU(), toyInMode(arch.WLM)},
		{"conv-relu.cm", models.ConvReLU(), toyInMode(arch.CM)},
		{"mlp.xbm-reprogrammed", models.MLP(), toyInMode(arch.XBM)},
		{"lenet5.toy-table2-reprogrammed", models.LeNet5(), arch.ToyExample()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Compile(tc.g, tc.a, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := codegen.Generate(tc.g, tc.a, res.Schedule, res.Placement, res.Model, codegen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			const nreq = 4
			ins := seededInputs(tc.g, nreq, uint64(7100+100*i))
			img, err := NewImage(tc.g, tc.a, gen.Layout, graph.RandomWeights(tc.g, uint64(71+i)), ins[0])
			if err != nil {
				t.Fatal(err)
			}
			before := make([]map[int]*tensor.Tensor, nreq)
			for r, in := range ins {
				if before[r], err = img.Reference(in); err != nil {
					t.Fatal(err)
				}
			}
			if err := img.ProgramInit(gen.Flow.Init); err != nil {
				t.Fatal(err)
			}
			cf, err := img.CompileBody(gen.Flow.Body)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, r int, got map[int]*tensor.Tensor) error {
				for _, n := range tc.g.Nodes {
					if !tensor.AllClose(got[n.ID], before[r][n.ID], 0) {
						d, _ := tensor.MaxAbsDiff(got[n.ID], before[r][n.ID])
						return fmt.Errorf("%s, request %d, node %d (%s): off the reference before ProgramInit by %g", what, r, n.ID, n.Op, d)
					}
				}
				return nil
			}
			for r, in := range ins {
				after, err := img.Reference(in)
				if err != nil {
					t.Fatal(err)
				}
				if err := same("reference after ProgramInit", r, after); err != nil {
					t.Fatal(err)
				}
			}
			run := func(st *BatchState, in map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
				img.ResetBatch(st, 1)
				bm := img.ExecBatch(st)
				if err := bm.LoadInputs(0, in); err != nil {
					return nil, err
				}
				if err := bm.RunBody(cf); err != nil {
					return nil, err
				}
				bm.SettleAll()
				return bm.TensorsOf(0, nodeIDs(tc.g)), nil
			}
			// Four goroutines at once: the even ones take the reference of every
			// request, the odd ones run every request through the programmed body.
			errs := make(chan error, 4)
			var wg sync.WaitGroup
			for worker := 0; worker < 4; worker++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st := img.NewBatchState(1)
					for k := range ins {
						r := (k + worker) % nreq
						var got map[int]*tensor.Tensor
						var err error
						what := "concurrent reference"
						if worker%2 == 0 {
							got, err = img.Reference(ins[r])
						} else {
							what = "concurrent lane run"
							got, err = run(st, ins[r])
						}
						if err == nil {
							err = same(what, r, got)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
