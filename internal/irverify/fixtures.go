package irverify

import (
	"context"
	"fmt"
	"slices"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/codegen"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
	"cimmlc/internal/mvm"
	"cimmlc/internal/sched"
	"cimmlc/internal/vvm"
)

// Fixture is one seeded corruption: Check compiles a small clean model,
// breaks exactly one artifact, and returns what the verifier reports. The
// verifier must name Rule among the violations. The negative test suite and
// `cimmlc vet -selftest` share this table, so the CLI proves in the field
// that the same corruptions the tests cover still get caught.
type Fixture struct {
	Name string
	Rule string
	// Check returns the violations the verifier reports on the corrupted
	// state, or an error if the fixture could not even build its clean
	// baseline (always a bug).
	Check func() ([]Violation, error)

	// flow, on the fixtures that corrupt a generated flow, builds what Check
	// verifies, so tests can hand the same flow to the executor.
	flow func() (*pipe, error)
}

// flowFixture is a fixture whose corruption is a generated flow's: corrupt
// builds a clean compilation and breaks its flow, Check runs VerifyFlow on it.
func flowFixture(name, rule string, corrupt func() (*pipe, error)) Fixture {
	return Fixture{Name: name, Rule: rule, flow: corrupt, Check: func() ([]Violation, error) {
		st, err := corrupt()
		if err != nil {
			return nil, err
		}
		return VerifyFlow(st.g, st.a, st.fr), nil
	}}
}

// editFirst replaces, in place, the first leaf operator of ops that edit
// accepts with what it returns, and reports whether there was one. Generated
// flows share no parallel body between operators, so writing through is safe.
func editFirst(ops []mop.Op, edit func(mop.Op) (mop.Op, bool)) bool {
	for i, op := range ops {
		if par, ok := op.(mop.Parallel); ok {
			if editFirst(par.Body, edit) {
				return true
			}
		} else if edited, ok := edit(op); ok {
			ops[i] = edited
			return true
		}
	}
	return false
}

// corruptFlow is the corrupt function of most flow fixtures: compile model on
// the toy architecture in mode, then apply edit to the first operator of the
// flow (init section first) that takes it.
func corruptFlow(model func() *graph.Graph, mode arch.Mode, edit func(st *pipe, op mop.Op) (mop.Op, bool)) func() (*pipe, error) {
	return func() (*pipe, error) {
		st, err := buildPipeOn(model(), mode, true)
		if err != nil {
			return nil, err
		}
		at := func(op mop.Op) (mop.Op, bool) { return edit(st, op) }
		if !editFirst(st.fr.Flow.Init, at) && !editFirst(st.fr.Flow.Body, at) {
			return nil, fmt.Errorf("fixture baseline: the %s flow has no operator to corrupt", mode)
		}
		return st, nil
	}
}

// pipe is one hand-built compilation of conv-relu on the toy architecture:
// the Figure-3 pipeline run directly on the internal packages, so fixtures
// can corrupt any intermediate artifact without going through the driver
// (whose own verification would reject the corruption before we could).
type pipe struct {
	g  *graph.Graph
	a  *arch.Arch
	m  *cost.Model
	s  *sched.Schedule
	p  *mapping.Placement
	fr *codegen.Result
}

func buildPipe(mode arch.Mode, withFlow bool) (*pipe, error) {
	return buildPipeOn(models.ConvReLU(), mode, withFlow)
}

// buildPipeOn is buildPipe on an arbitrary model, for fixtures that need more
// than conv-relu's single CIM node (e.g. cross-node scratch corruption). g
// comes from a Builder, so its shapes are inferred.
func buildPipeOn(g *graph.Graph, mode arch.Mode, withFlow bool) (*pipe, error) {
	a := arch.ToyExample()
	a.Mode = mode
	m, err := cost.New(g, a)
	if err != nil {
		return nil, fmt.Errorf("fixture baseline: %w", err)
	}
	s, err := cg.Optimize(context.Background(), m, cg.Options{Pipeline: true, Duplicate: true})
	if err != nil {
		return nil, fmt.Errorf("fixture baseline: %w", err)
	}
	if mode.AtLeast(arch.XBM) {
		if s, err = mvm.Optimize(s, m, mvm.Options{Duplicate: true, Stagger: true}); err != nil {
			return nil, fmt.Errorf("fixture baseline: %w", err)
		}
	}
	if mode.AtLeast(arch.WLM) {
		if s, err = vvm.Optimize(s, m, vvm.Options{Remap: true}); err != nil {
			return nil, fmt.Errorf("fixture baseline: %w", err)
		}
	}
	p, err := mapping.Place(context.Background(), g, a, m.FPs, s.Dup, s.Remap, s.Segments)
	if err != nil {
		return nil, fmt.Errorf("fixture baseline: %w", err)
	}
	st := &pipe{g: g, a: a, m: m, s: s, p: p}
	if withFlow {
		fr, err := codegen.Generate(g, a, s, p, m, codegen.Options{})
		if err != nil {
			return nil, fmt.Errorf("fixture baseline: %w", err)
		}
		st.fr = fr
	}
	return st, nil
}

// Fixtures returns the seeded-corruption table. Every entry must be rejected
// by the verifier with its named rule; a fixture passing clean means a rule
// regressed.
func Fixtures() []Fixture {
	return []Fixture{
		{
			Name: "graph-cycle",
			Rule: RuleGraphAcyclic,
			Check: func() ([]Violation, error) {
				g := graph.New("cycle")
				in := g.AddInput("input", 4, 8, 8)
				relu := g.AddNode("relu", graph.OpReLU, []int{in}, graph.Attr{}, nil)
				// Forward edge: the node feeds itself.
				g.Nodes[relu].Inputs[0] = relu
				return VerifyGraph(g), nil
			},
		},
		{
			Name: "graph-bad-weight-shape",
			Rule: RuleGraphShapes,
			Check: func() ([]Violation, error) {
				g := models.ConvReLU()
				// A conv whose weight tensor no longer matches its input
				// channel count cannot be shape-inferred.
				for _, n := range g.Nodes {
					if n.Op == graph.OpConv {
						n.WeightShape[1] += 3
						break
					}
				}
				return VerifyGraph(g), nil
			},
		},
		{
			Name: "dup-over-capacity",
			Rule: RuleSchedCapacity,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.CM, false)
				if err != nil {
					return nil, err
				}
				// More copies than any chip could host.
				id := st.g.CIMNodeIDs()[0]
				st.s.Dup[id] = 1 << 20
				return VerifySchedule(st.g, st.a, st.a.Mode, st.m.FPs, st.s), nil
			},
		},
		{
			Name: "remap-over-rowgroups",
			Rule: RuleSchedRemapBounds,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.WLM, false)
				if err != nil {
					return nil, err
				}
				id := st.g.CIMNodeIDs()[0]
				st.s.Remap[id] = st.m.FPs[id].RowGroups + 1
				return VerifySchedule(st.g, st.a, st.a.Mode, st.m.FPs, st.s), nil
			},
		},
		{
			Name: "oversized-divided",
			Rule: RuleSchedCapacity,
			Check: func() ([]Violation, error) {
				// A conv of 12 crossbars a copy on the 4-crossbar toy chip:
				// it places only undivided, its tiles wrapping into rounds.
				st, err := buildPipeOn(graph.NewBuilder("big", 8, 6, 6).Conv(128, 3, 1, 1).MustFinish(), arch.XBM, false)
				if err != nil {
					return nil, err
				}
				id := st.g.CIMNodeIDs()[0]
				if st.m.FPs[id].Rounds <= 1 {
					return nil, fmt.Errorf("fixture baseline: node %d fits the chip", id)
				}
				st.s.Dup[id] = 2
				return VerifySchedule(st.g, st.a, st.a.Mode, st.m.FPs, st.s), nil
			},
		},
		{
			Name: "remap-below-wlm",
			Rule: RuleSchedLevelRemap,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.WLM, false)
				if err != nil {
					return nil, err
				}
				id := st.g.CIMNodeIDs()[0]
				st.s.Remap[id] = 2
				// The compilation level was capped at XBM: wordline remap is
				// not reachable there (Table 1).
				return VerifySchedule(st.g, st.a, arch.XBM, st.m.FPs, st.s), nil
			},
		},
		{
			Name: "tile-overlap",
			Rule: RuleMapOverlap,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.XBM, false)
				if err != nil {
					return nil, err
				}
				e := &st.p.Extents[0]
				if e.Dup < 2 {
					return nil, fmt.Errorf("fixture baseline: want >=2 copies, got %d", e.Dup)
				}
				// Start every copy on the first copy's slots: the crossbars
				// stay inside the grid, so only overlap (and the drift it
				// causes) trips.
				e.Stride = 0
				return VerifyPlacement(st.g, st.a, st.m.FPs, st.s, st.p), nil
			},
		},
		{
			Name: "tile-out-of-grid",
			Rule: RuleMapGrid,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.XBM, false)
				if err != nil {
					return nil, err
				}
				st.p.Extents[0].FirstXB = st.a.TotalCrossbars() + 7
				return VerifyPlacement(st.g, st.a, st.m.FPs, st.s, st.p), nil
			},
		},
		{
			Name: "segment-core-drift",
			Rule: RuleMapPlanDrift,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.CM, false)
				if err != nil {
					return nil, err
				}
				st.p.SegmentCores[0]--
				return VerifyPlacement(st.g, st.a, st.m.FPs, st.s, st.p), nil
			},
		},
		flowFixture("flow-use-before-def", RuleFlowUseBeforeDef, func() (*pipe, error) {
			st, err := buildPipe(arch.XBM, true)
			if err != nil {
				return nil, err
			}
			// Read the network output's buffer before anything wrote it.
			out := st.g.Outputs()[0]
			base := st.fr.Layout.Region[out].Base
			st.fr.Flow.Body = append([]mop.Op{mop.Mov{Src: base, Dst: base, Len: 1}}, st.fr.Flow.Body...)
			return st, nil
		}),
		flowFixture("flow-bad-endpoint", RuleFlowEndpoint,
			corruptFlow(models.ConvReLU, arch.XBM, func(st *pipe, op mop.Op) (mop.Op, bool) {
				// Program a crossbar the chip does not have.
				wx, ok := op.(mop.WriteXB)
				wx.XB = st.a.TotalCrossbars() + 3
				return wx, ok
			})),
		flowFixture("flow-unaligned-tile", RuleFlowEndpoint,
			corruptFlow(models.ConvReLU, arch.XBM, func(st *pipe, op mop.Op) (mop.Op, bool) {
				// A tile that ends inside a weight: its last cells slice nothing.
				wx, ok := op.(mop.WriteXB)
				wx.Cols--
				return wx, ok && st.a.CellsPerWeight() > 1
			})),
		flowFixture("flow-read-foreign-dst", RuleFlowRegionBounds,
			corruptFlow(models.ConvReLU, arch.XBM, func(st *pipe, op mop.Op) (mop.Op, bool) {
				// Land a crossbar's columns in the input's region, not in the
				// region of the node it is programmed with.
				rd, ok := op.(mop.ReadXB)
				rd.Dst, rd.DstStride = st.fr.Layout.Region[st.g.InputIDs()[0]].Base, 1
				return rd, ok
			})),
		flowFixture("flow-dead-mop", RuleFlowDeadMOP, func() (*pipe, error) {
			st, err := buildPipe(arch.XBM, true)
			if err != nil {
				return nil, err
			}
			// A transfer into scratch that no later instruction reads:
			// copy one defined input word into the conv node's gather
			// buffer as the flow's very last act.
			cim := st.g.CIMNodeIDs()[0]
			in := st.g.InputIDs()[0]
			if st.fr.Layout.Scratch[cim].Size == 0 {
				return nil, fmt.Errorf("fixture baseline: node %d has no scratch region", cim)
			}
			st.fr.Flow.Body = append(st.fr.Flow.Body,
				mop.Mov{Src: st.fr.Layout.Region[in].Base, Dst: st.fr.Layout.Scratch[cim].Base, Len: 1})
			return st, nil
		}),
		flowFixture("flow-redundant-transfer", RuleFlowRedundant, func() (*pipe, error) {
			st, err := buildPipe(arch.XBM, true)
			if err != nil {
				return nil, err
			}
			// Re-issue the first gather verbatim right after itself: its
			// source region is unchanged and its destination words still
			// hold exactly what the original moved.
			body := st.fr.Flow.Body
			at := slices.IndexFunc(body, func(op mop.Op) bool { return op.Kind() == mop.KindDMOV })
			if at < 0 {
				return nil, fmt.Errorf("fixture baseline: flow body has no transfer to duplicate")
			}
			st.fr.Flow.Body = slices.Insert(slices.Clone(body), at+1, body[at])
			return st, nil
		}),
		flowFixture("flow-scratch-cross-read", RuleFlowScratchLap, func() (*pipe, error) {
			// Needs two CIM nodes sharing the scratch arena: drop the second
			// dense layer's gather, so its crossbar reads consume the words
			// the first layer gathered.
			st, err := buildPipeOn(models.MLP(), arch.XBM, true)
			if err != nil {
				return nil, err
			}
			cims := st.g.CIMNodeIDs()
			if len(cims) < 2 {
				return nil, fmt.Errorf("fixture baseline: want >=2 CIM nodes, got %d", len(cims))
			}
			second := st.g.MustNode(cims[1])
			body := st.fr.Flow.Body
			at := slices.IndexFunc(body, func(op mop.Op) bool {
				mv, ok := op.(mop.Mov)
				return ok && mv.Src == st.fr.Layout.Region[second.Inputs[0]].Base && mv.Dst == st.fr.Layout.Scratch[second.ID].Base
			})
			if at < 0 {
				return nil, fmt.Errorf("fixture baseline: no gather for node %d", second.ID)
			}
			st.fr.Flow.Body = slices.Delete(slices.Clone(body), at, at+1)
			return st, nil
		}),
	}
}

// HasRule reports whether any violation names the rule.
func HasRule(vs []Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}
