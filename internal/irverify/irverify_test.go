package irverify

import (
	"context"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/codegen"
	"cimmlc/internal/cost"
	"cimmlc/internal/funcsim"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
	"cimmlc/internal/tensor"
)

// TestCleanPipelineAccepted is the positive baseline: every stage of an
// uncorrupted compilation must verify clean at every computing mode.
func TestCleanPipelineAccepted(t *testing.T) {
	for _, mode := range []arch.Mode{arch.CM, arch.XBM, arch.WLM} {
		st, err := buildPipe(mode, true)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if vs := CheckState(st.g, st.a, st.a.Mode, st.m.FPs, st.s, st.p); len(vs) > 0 {
			t.Errorf("mode %s: clean pipeline rejected: %v", mode, vs)
		}
		if vs := VerifyFlow(st.g, st.a, st.fr); len(vs) > 0 {
			t.Errorf("mode %s: clean flow rejected: %v", mode, vs)
		}
	}
}

// TestFixturesRejected drives every seeded corruption through the verifier
// and requires the named rule among the diagnostics — the same table
// `cimmlc vet -selftest` runs in the field.
func TestFixturesRejected(t *testing.T) {
	for _, fx := range Fixtures() {
		t.Run(fx.Name, func(t *testing.T) {
			vs, err := fx.Check()
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) == 0 {
				t.Fatalf("corruption passed the verifier clean; want rule %s", fx.Rule)
			}
			if !HasRule(vs, fx.Rule) {
				t.Fatalf("violations %v do not name rule %s", vs, fx.Rule)
			}
		})
	}
}

// TestVerifyScheduleNilAndStructure covers the degenerate entries.
func TestVerifyScheduleNilAndStructure(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	if vs := VerifySchedule(g, a, a.Mode, nil, nil); !HasRule(vs, RuleSchedStructure) {
		t.Fatalf("nil schedule not rejected: %v", vs)
	}
	if vs := VerifyGraph(nil); !HasRule(vs, RuleGraphStructure) {
		t.Fatalf("nil graph not rejected: %v", vs)
	}
}

// FuzzVerifyIR is the verifier's soundness contract: any schedule mutation
// the verifier accepts must place, lower, and execute on the functional
// simulator without error. Verifier-rejected mutants are simply skipped —
// rejecting too much costs optimality, accepting too much costs correctness,
// and only the latter is a soundness bug this fuzz target hunts.
func FuzzVerifyIR(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(1))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0))
	f.Add(uint8(2), uint8(7), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, modeB, dupB, remapB, flagB uint8) {
		mode := []arch.Mode{arch.CM, arch.XBM, arch.WLM}[int(modeB)%3]
		g := models.ConvReLU()
		a := arch.ToyExample()
		a.Mode = mode
		m, err := cost.New(g, a)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cg.Optimize(context.Background(), g, a, m, cg.Options{Pipeline: true, Duplicate: true})
		if err != nil {
			t.Fatal(err)
		}
		// Mutate the knobs the level optimizers normally set; most mutants
		// are illegal (over capacity, remap below WLM, ...) and must be
		// caught by VerifySchedule rather than crash anything downstream.
		ids := g.CIMNodeIDs()
		s.Dup[ids[int(dupB)%len(ids)]] = 1 + int(dupB%16)
		s.Remap[ids[int(remapB)%len(ids)]] = 1 + int(remapB%6)
		s.Stagger = flagB&1 != 0
		if vs := VerifySchedule(g, a, a.Mode, m.FPs, s); len(vs) > 0 {
			t.Skip("verifier rejected the mutant (fine)")
		}
		p, err := mapping.PlaceCtx(context.Background(), g, a, m.FPs, s.Dup, s.Remap, s.Segments)
		if err != nil {
			t.Fatalf("verifier accepted a schedule placement rejects: %v", err)
		}
		if vs := VerifyPlacement(g, a, m.FPs, s, p); len(vs) > 0 {
			t.Fatalf("placement of an accepted schedule fails verification: %v", vs)
		}
		fr, err := codegen.Generate(g, a, s, p, m, codegen.Options{})
		if err != nil {
			t.Fatalf("verifier accepted a schedule codegen rejects: %v", err)
		}
		if vs := VerifyFlow(g, a, fr); len(vs) > 0 {
			t.Fatalf("flow of an accepted schedule fails verification: %v", vs)
		}
		weights := graph.RandomWeights(g, 11)
		inputs := map[int]*tensor.Tensor{}
		for _, id := range g.InputIDs() {
			in := tensor.New(g.MustNode(id).OutShape...)
			in.Rand(uint64(id)+23, 1)
			inputs[id] = in
		}
		img, err := funcsim.NewImage(g, a, fr.Layout, weights, inputs)
		if err != nil {
			t.Fatalf("verifier accepted a flow funcsim cannot load: %v", err)
		}
		if err := img.ProgramInit(fr.Flow.Init); err != nil {
			t.Fatalf("verifier accepted a flow funcsim cannot program: %v", err)
		}
		mach := img.Exec(img.NewState())
		if err := mach.LoadInputs(inputs); err != nil {
			t.Fatalf("verifier accepted a flow funcsim cannot load: %v", err)
		}
		if err := mach.RunBody(fr.Flow); err != nil {
			t.Fatalf("verifier accepted a flow funcsim cannot run: %v", err)
		}
	})
}
