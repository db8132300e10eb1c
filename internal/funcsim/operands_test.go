package funcsim

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/core"
	"cimmlc/internal/flowdata"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
)

// replaceFirst returns ops with the first leaf that edit accepts replaced by
// what it returns (parallel groups copied, never written through).
func replaceFirst(ops []mop.Op, edit func(mop.Op) (mop.Op, bool)) ([]mop.Op, bool) {
	out := slices.Clone(ops)
	for i, op := range out {
		if par, ok := op.(mop.Parallel); ok {
			if body, done := replaceFirst(par.Body, edit); done {
				out[i] = mop.Parallel{Body: body}
				return out, true
			}
		} else if edited, ok := edit(op); ok {
			out[i] = edited
			return out, true
		}
	}
	return out, false
}

// TestReadIntoForeignRegionIsAnError: a readxb whose columns land in another
// node's region — here the input's, a node without inputs of its own — used to
// panic the executor, which took the destination node from the address; the
// destination must lie in the region of the node the crossbar is programmed
// with, and the kernel says so before it writes, naming the operator.
func TestReadIntoForeignRegionIsAnError(t *testing.T) {
	c := newLaneCell(t, models.ConvReLU(), toyInMode(arch.XBM), 61, 1, programmed)
	var bad mop.ReadXB
	body, ok := replaceFirst(c.flow.Body, func(op mop.Op) (mop.Op, bool) {
		rd, ok := op.(mop.ReadXB)
		rd.Dst, rd.DstStride = 0, 1
		bad = rd
		return rd, ok
	})
	if !ok {
		t.Fatal("the flow has no readxb")
	}
	cf, err := c.img.CompileBody(body)
	if err != nil {
		t.Fatalf("what the crossbar holds is run-time state, yet CompileBody: %v", err)
	}
	st := c.img.NewBatchState(1)
	bm := c.img.ExecBatch(st)
	if err := bm.LoadInputs(0, c.ins[0]); err != nil {
		t.Fatal(err)
	}
	loaded := slices.Clone(st.mem)
	err = bm.RunBody(cf)
	var oe *codegen.OperandError
	if !errors.As(err, &oe) || oe.Rule != codegen.RuleRegionBounds || !strings.Contains(err.Error(), bad.String()) {
		t.Fatalf("RunBody: %v, want a %s error naming %s", err, codegen.RuleRegionBounds, bad)
	}
	// Everything before the bad read ran; the read itself wrote nothing.
	base, size := c.img.lay.Region[0].Base, c.img.lay.Region[0].Size
	if !slices.Equal(st.mem[base:base+size], loaded[base:base+size]) {
		t.Error("the rejected read wrote into the input's region")
	}
}

// TestKernelsWriteResolvedSpans holds the executor and the dataflow analysis
// to one operand geometry by observation: every kernel of a generated body,
// run on one lane of pattern-filled memory, changes exactly the words the
// analysis folded for the operators it executes (Analysis.Operands).
func TestKernelsWriteResolvedSpans(t *testing.T) {
	for _, mk := range []func() *graph.Graph{models.ConvReLU, models.LeNet5} {
		for _, a := range []*arch.Arch{arch.ToyExample(), arch.PUMAAccelerator(), arch.JiaAccelerator()} {
			g := mk()
			t.Run(g.Name+"."+a.Name, func(t *testing.T) {
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
				an := flowdata.Build(g, a, gen)
				if len(an.Problems) > 0 {
					t.Fatalf("analysis: %v", an.Problems)
				}
				img, err := NewImage(g, a, gen.Layout, graph.RandomWeights(g, 62), seededInputs(g, 1, 62)[0])
				if err != nil {
					t.Fatal(err)
				}
				if err := img.ProgramInit(gen.Flow.Init); err != nil {
					t.Fatal(err)
				}
				cf, err := img.CompileBody(gen.Flow.Body)
				if err != nil {
					t.Fatal(err)
				}
				inInit := len(an.Instrs) - len(cf.ops) // the analysis numbers init first
				if inInit < 0 || an.Instrs[inInit].Op != cf.ops[0] {
					t.Fatalf("analysis has %d instructions, the body %d operators", len(an.Instrs), len(cf.ops))
				}
				// Large and distinct: no quantized output, copied word or
				// accumulated sum leaves a word as it was.
				pattern := func(w int) int64 { return 1_000_003 + 7*int64(w) }
				st := img.NewBatchState(1)
				bm := img.ExecBatch(st)
				for k, kern := range cf.kernels {
					end := len(cf.ops)
					if k+1 < len(cf.first) {
						end = cf.first[k+1]
					}
					var want []int64
					for _, o := range an.Operands[inInit+cf.first[k] : inInit+end] {
						for r := int64(0); r < o.Writes.Rep; r++ {
							for sp, j := o.Writes.Row(r), int64(0); j < sp.Count; j++ {
								want = append(want, sp.Word(j))
							}
						}
					}
					slices.Sort(want)
					want = slices.Compact(want)
					bm.SettleAll() // so that no kernel requantizes a source region
					for w := range st.mem {
						st.mem[w] = pattern(w)
					}
					if err := kern(bm); err != nil {
						t.Fatalf("kernel %d (%s): %v", k, cf.ops[cf.first[k]], err)
					}
					var got []int64
					for w, v := range st.mem {
						if v != pattern(w) {
							got = append(got, int64(w))
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("kernel %d (%s, %d operators) changed %d words, the analysis folded %d: got %v, want %v",
							k, cf.ops[cf.first[k]], end-cf.first[k], len(got), len(want), head(got), head(want))
					}
				}
			})
		}
	}
}

// head cuts a word list to what an error message can show.
func head(ws []int64) []int64 { return ws[:min(len(ws), 12)] }
