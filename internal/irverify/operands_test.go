package irverify

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/funcsim"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// execute runs st's flow on the functional simulator the way a verifier-off
// Build and Run do — NewImage, ProgramInit, CompileBody, RunBody — and returns
// the first error.
func execute(st *pipe) error {
	inputs := map[int]*tensor.Tensor{}
	for _, id := range st.g.InputIDs() {
		in := tensor.New(st.g.MustNode(id).OutShape...)
		in.Rand(uint64(id)+23, 1)
		inputs[id] = in
	}
	img, err := funcsim.NewImage(st.g, st.a, st.fr.Layout, graph.RandomWeights(st.g, 11), inputs)
	if err != nil {
		return err
	}
	if err := img.ProgramInit(st.fr.Flow.Init); err != nil {
		return err
	}
	cf, err := img.CompileBody(st.fr.Flow.Body)
	if err != nil {
		return err
	}
	bm := img.ExecBatch(img.NewBatchState(1))
	if err := bm.LoadInputs(0, inputs); err != nil {
		return err
	}
	return bm.RunBody(cf)
}

// operandRule reports whether rule is one an operand alone can break: the
// executor resolves operands through the verifier's resolver, so it must
// reject those itself. The others are dataflow facts only the analysis
// derives; a flow that breaks one may still execute.
func operandRule(rule string) bool {
	switch rule {
	case RuleFlowStructure, RuleFlowEndpoint, RuleFlowUnknownNode, RuleFlowRegionBounds, RuleFlowUnprogrammed:
		return true
	}
	return false
}

// TestExecutorRejectsWhatVerifierRejects closes the silent-execution gap:
// with verification off, every flow corruption the verifier reports under an
// operand rule fails ProgramInit, CompileBody or RunBody with that same rule.
func TestExecutorRejectsWhatVerifierRejects(t *testing.T) {
	cases := Fixtures()
	for _, c := range []struct {
		name, rule string
		model      func() *graph.Graph
		mode       arch.Mode
		edit       func(st *pipe, op mop.Op) (mop.Op, bool)
	}{
		{"dcom-dst-0", RuleFlowEndpoint, models.ConvReLU, arch.XBM, func(_ *pipe, op mop.Op) (mop.Op, bool) {
			o, ok := op.(mop.Dcom)
			o.Dst = 0
			return o, ok
		}},
		{"readcore-src+5", RuleFlowEndpoint, models.ConvReLU, arch.CM, func(_ *pipe, op mop.Op) (mop.Op, bool) {
			o, ok := op.(mop.ReadCore)
			o.Src += 5
			return o, ok
		}},
		{"mov_window-srcbase+7", RuleFlowEndpoint, models.ConvReLU, arch.XBM, func(_ *pipe, op mop.Op) (mop.Op, bool) {
			o, ok := op.(mop.MovWindow)
			o.SrcBase += 7
			return o, ok
		}},
		{"mov_window-on-relu", RuleFlowUnknownNode, models.ConvReLU, arch.WLM, func(st *pipe, op mop.Op) (mop.Op, bool) {
			o, ok := op.(mop.MovWindow)
			o.Node = st.g.Outputs()[0]
			return o, ok
		}},
		{"readrow-past-the-tile", RuleFlowUnprogrammed, models.ConvReLU, arch.WLM, func(st *pipe, op mop.Op) (mop.Op, bool) {
			// The conv's tile leaves the crossbar's last wordlines unprogrammed:
			// shift the read of its last rows one wordline down.
			o, ok := op.(mop.ReadRow)
			ok = ok && o.Row+o.NumRows < st.a.XB.Rows && o.Row > 0
			o.Row++
			return o, ok
		}},
	} {
		cases = append(cases, flowFixture(c.name, c.rule, corruptFlow(c.model, c.mode, c.edit)))
	}
	for _, fx := range cases {
		if fx.flow == nil {
			continue
		}
		t.Run(fx.Name, func(t *testing.T) {
			vs, err := fx.Check()
			if err != nil {
				t.Fatal(err)
			}
			if !HasRule(vs, fx.Rule) {
				t.Fatalf("verifier: %v, want rule %s", vs, fx.Rule)
			}
			st, err := fx.flow()
			if err != nil {
				t.Fatal(err)
			}
			err = execute(st)
			if !operandRule(fx.Rule) {
				t.Logf("a dataflow rule: the executor may run the flow (it says: %v)", err)
				return
			}
			var oe *codegen.OperandError
			if !errors.As(err, &oe) || oe.Rule != fx.Rule {
				t.Fatalf("executor: %v, want an operand error of rule %s", err, fx.Rule)
			}
		})
	}
}

// TestShortLayoutTable: a layout whose region table stops short of the graph
// leaves its last node without a region, which the verifier and the executor
// both report under the region-bounds rule instead of indexing past the table.
func TestShortLayoutTable(t *testing.T) {
	st, err := buildPipeOn(models.MLP(), arch.XBM, true)
	if err != nil {
		t.Fatal(err)
	}
	lay := st.fr.Layout
	last := len(lay.Region) - 1
	lay.Region = lay.Region[:last]
	vs := VerifyFlow(st.g, st.a, st.fr)
	if len(vs) == 0 || vs[0].Rule != RuleFlowRegionBounds || vs[0].Node != last || !strings.Contains(vs[0].Msg, "no layout region") {
		t.Fatalf("verifier: %v, want node %d without a layout region first", vs, last)
	}
	var oe *codegen.OperandError
	if err := execute(st); !errors.As(err, &oe) || oe.Rule != RuleFlowRegionBounds {
		t.Fatalf("executor: %v, want an operand error of rule %s", err, RuleFlowRegionBounds)
	}
}

// intOperands returns pointers to every integer operand of a leaf operator
// held in an addressable reflect.Value.
func intOperands(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			out = append(out, f)
		case reflect.Slice: // Dcom.Srcs
			for j := 0; j < f.Len(); j++ {
				out = append(out, f.Index(j))
			}
		}
	}
	return out
}

// overwrite sets integer operand `field` (modulo their number) of leaf `leaf`
// (modulo theirs, init section first) of the flow to value, copying what it
// changes, and returns the operator before and after.
func overwrite(flow *mop.Flow, leaf, field int, value int64) (was, now mop.Op) {
	type slot struct {
		ops []mop.Op
		i   int
	}
	var leaves []slot
	var walk func(ops []mop.Op) []mop.Op
	walk = func(ops []mop.Op) []mop.Op {
		ops = append([]mop.Op(nil), ops...)
		for i, op := range ops {
			if par, ok := op.(mop.Parallel); ok {
				ops[i] = mop.Parallel{Body: walk(par.Body)}
			} else {
				leaves = append(leaves, slot{ops, i})
			}
		}
		return ops
	}
	flow.Init, flow.Body = walk(flow.Init), walk(flow.Body)
	at := leaves[leaf%len(leaves)]
	was = at.ops[at.i]
	v := reflect.New(reflect.TypeOf(was)).Elem()
	v.Set(reflect.ValueOf(was))
	if d, ok := was.(mop.Dcom); ok {
		v.FieldByName("Srcs").Set(reflect.ValueOf(append([]int64(nil), d.Srcs...)))
	}
	ints := intOperands(v)
	ints[field%len(ints)].SetInt(value)
	now = v.Interface().(mop.Op)
	at.ops[at.i] = now
	return was, now
}

// overwriteLayout sets the Base (even field) or Size (odd field) of one entry
// of the layout's tables (modulo their entries, node regions first, then
// scratch areas) to value, and names the entry and its old value.
func overwriteLayout(lay *codegen.Layout, entry, field int, value int64) string {
	areas := append(slices.Clone(lay.Region), lay.Scratch...)
	i := entry % len(areas)
	table, id := "region", i
	if i >= len(lay.Region) {
		table, id = "scratch", i-len(lay.Region)
	}
	was := areas[i]
	if field%2 == 0 {
		areas[i].Base = value
	} else {
		areas[i].Size = value
	}
	lay.Region, lay.Scratch = areas[:len(lay.Region)], areas[len(lay.Region):]
	return fmt.Sprintf("%s of node %d %+v → %+v", table, id, was, areas[i])
}

// FuzzFlowOperands is the operand calculus' agreement contract: overwrite one
// integer of a clean flow — an operand of one of its operators or, with
// layout set, the base or size of one entry of its layout's tables — and the
// verifier and the executor, which resolve operands and layouts through the
// same code, must agree. Nothing panics; a flow the verifier accepts
// programs, compiles and runs; and a flow the verifier rejects runs only when
// every rule it broke is a dataflow rule (use-before-def, parallel-conflict,
// scratch-overlap, output-undefined), which the executor does not compute.
func FuzzFlowOperands(f *testing.F) {
	// (model, mode, leaf, operand, value): the four flows that used to split
	// the two — readxb dst=0, dcom dst=0, readcore src+5, mov_window
	// srcbase+7 — located by their operator's position in the clean flow.
	modes := []arch.Mode{arch.CM, arch.XBM, arch.WLM}
	for _, seed := range []struct {
		mode  uint8 // index into modes
		match func(mop.Op) bool
		field uint8
		value func(mop.Op) int64
	}{
		{1, func(op mop.Op) bool { _, ok := op.(mop.ReadXB); return ok }, 2, func(mop.Op) int64 { return 0 }},
		{1, func(op mop.Op) bool { _, ok := op.(mop.Dcom); return ok }, 2, func(mop.Op) int64 { return 0 }},
		{0, func(op mop.Op) bool { _, ok := op.(mop.ReadCore); return ok }, 2, func(op mop.Op) int64 { return op.(mop.ReadCore).Src + 5 }},
		{1, func(op mop.Op) bool { _, ok := op.(mop.MovWindow); return ok }, 2, func(op mop.Op) int64 { return op.(mop.MovWindow).SrcBase + 7 }},
	} {
		st, err := buildPipe(modes[seed.mode], true)
		if err != nil {
			f.Fatal(err)
		}
		leaf, found := 0, false
		var visit func(ops []mop.Op)
		visit = func(ops []mop.Op) {
			for _, op := range ops {
				if par, ok := op.(mop.Parallel); ok {
					visit(par.Body)
				} else if !found {
					if found = seed.match(op); found {
						f.Add(uint8(0), seed.mode, false, uint16(leaf), seed.field, seed.value(op))
					}
					leaf++
				}
			}
		}
		visit(st.fr.Flow.Init)
		visit(st.fr.Flow.Body)
		if !found {
			f.Fatalf("the %s flow has no operator for its seed", modes[seed.mode])
		}
	}
	f.Add(uint8(1), uint8(2), false, uint16(9), uint8(1), int64(-1))
	f.Add(uint8(1), uint8(1), false, uint16(40), uint8(3), int64(1)<<40)
	// Layout entries of mlp (input, fc_1, relu, fc_2, ...): an output region
	// moved onto another, one resized, a scratch area cut to nothing, one
	// moved into node space, one grown past the layout.
	f.Add(uint8(1), uint8(1), true, uint16(1), uint8(0), int64(0))
	f.Add(uint8(1), uint8(2), true, uint16(2), uint8(1), int64(3))
	f.Add(uint8(1), uint8(1), true, uint16(7), uint8(1), int64(0))
	f.Add(uint8(0), uint8(2), true, uint16(4), uint8(0), int64(5))
	f.Add(uint8(0), uint8(1), true, uint16(4), uint8(1), int64(1)<<20)
	f.Fuzz(func(t *testing.T, modelB, modeB uint8, layout bool, leaf uint16, field uint8, value int64) {
		model := []func() *graph.Graph{models.ConvReLU, models.MLP}[int(modelB)%2]
		mode := modes[int(modeB)%len(modes)]
		st, err := buildPipeOn(model(), mode, true)
		if err != nil {
			t.Fatal(err)
		}
		var what string
		if layout {
			what = overwriteLayout(st.fr.Layout, int(leaf), int(field), value)
		} else {
			was, now := overwrite(st.fr.Flow, int(leaf), int(field), value)
			what = fmt.Sprintf("%s → %s", was, now)
		}
		vs := VerifyFlow(st.g, st.a, st.fr)
		err = execute(st)
		switch {
		case len(vs) == 0 && err != nil:
			t.Fatalf("%s: the verifier accepts a flow the executor rejects: %v", what, err)
		case len(vs) > 0 && err == nil:
			for _, v := range vs {
				if operandRule(v.Rule) {
					t.Fatalf("%s: the executor ran a flow the verifier rejects for its operands: %v", what, vs)
				}
			}
		}
	})
}
