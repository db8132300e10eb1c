package irverify

import (
	"context"
	"fmt"

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
// than conv-relu's single CIM node (e.g. cross-node scratch corruption).
func buildPipeOn(g *graph.Graph, mode arch.Mode, withFlow bool) (*pipe, error) {
	a := arch.ToyExample()
	a.Mode = mode
	m, err := cost.New(g, a)
	if err != nil {
		return nil, fmt.Errorf("fixture baseline: %w", err)
	}
	s, err := cg.Optimize(context.Background(), g, a, m, cg.Options{Pipeline: true, Duplicate: true})
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
	p, err := mapping.PlaceCtx(context.Background(), g, a, m.FPs, s.Dup, s.Remap, s.Segments)
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
		{
			Name: "flow-use-before-def",
			Rule: RuleFlowUseBeforeDef,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.XBM, true)
				if err != nil {
					return nil, err
				}
				// Read the network output's buffer before anything wrote it.
				out := st.g.Outputs()[0]
				base := st.fr.Layout.Base[out]
				st.fr.Flow.Body = append([]mop.Op{mop.Mov{Src: base, Dst: base, Len: 1}}, st.fr.Flow.Body...)
				return VerifyFlow(st.g, st.a, st.s, st.m.FPs, st.fr), nil
			},
		},
		{
			Name: "flow-bad-endpoint",
			Rule: RuleFlowEndpoint,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.XBM, true)
				if err != nil {
					return nil, err
				}
				wx, ok := st.fr.Flow.Init[0].(mop.WriteXB)
				if !ok {
					return nil, fmt.Errorf("fixture baseline: init[0] is %T, want WriteXB", st.fr.Flow.Init[0])
				}
				// Program a crossbar the chip does not have.
				wx.XB = st.a.TotalCrossbars() + 3
				st.fr.Flow.Init[0] = wx
				return VerifyFlow(st.g, st.a, st.s, st.m.FPs, st.fr), nil
			},
		},
		{
			Name: "flow-dead-mop",
			Rule: RuleFlowDeadMOP,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.XBM, true)
				if err != nil {
					return nil, err
				}
				// A transfer into scratch that no later instruction reads:
				// copy one defined input word into the conv node's gather
				// buffer as the flow's very last act.
				cim := st.g.CIMNodeIDs()[0]
				in := st.g.InputIDs()[0]
				scratch, ok := st.fr.Layout.Scratch[cim]
				if !ok {
					return nil, fmt.Errorf("fixture baseline: node %d has no scratch region", cim)
				}
				st.fr.Flow.Body = append(st.fr.Flow.Body,
					mop.Mov{Src: st.fr.Layout.Base[in], Dst: scratch, Len: 1})
				return VerifyFlowStrict(st.g, st.a, st.s, st.m.FPs, st.fr), nil
			},
		},
		{
			Name: "flow-redundant-transfer",
			Rule: RuleFlowRedundant,
			Check: func() ([]Violation, error) {
				st, err := buildPipe(arch.XBM, true)
				if err != nil {
					return nil, err
				}
				// Re-issue the first gather verbatim right after itself: its
				// source region is unchanged and its destination words still
				// hold exactly what the original moved.
				body := st.fr.Flow.Body
				at := -1
				for i, op := range body {
					switch op.(type) {
					case mop.Mov, mop.MovWindow:
						at = i
					}
					if at >= 0 {
						break
					}
				}
				if at < 0 {
					return nil, fmt.Errorf("fixture baseline: flow body has no transfer to duplicate")
				}
				dup := make([]mop.Op, 0, len(body)+1)
				dup = append(dup, body[:at+1]...)
				dup = append(dup, body[at])
				dup = append(dup, body[at+1:]...)
				st.fr.Flow.Body = dup
				return VerifyFlowStrict(st.g, st.a, st.s, st.m.FPs, st.fr), nil
			},
		},
		{
			Name: "flow-scratch-cross-read",
			Rule: RuleFlowScratchLap,
			Check: func() ([]Violation, error) {
				// Needs two CIM nodes: redirect the second dense layer's
				// crossbar read into the first layer's gather buffer, so two
				// nodes consume the same staged words.
				st, err := buildPipeOn(models.MLP(), arch.XBM, true)
				if err != nil {
					return nil, err
				}
				cims := st.g.CIMNodeIDs()
				if len(cims) < 2 {
					return nil, fmt.Errorf("fixture baseline: want >=2 CIM nodes, got %d", len(cims))
				}
				first, ok := st.fr.Layout.Scratch[cims[0]]
				if !ok {
					return nil, fmt.Errorf("fixture baseline: node %d has no scratch region", cims[0])
				}
				second, ok := st.fr.Layout.Scratch[cims[1]]
				if !ok {
					return nil, fmt.Errorf("fixture baseline: node %d has no scratch region", cims[1])
				}
				redirected := false
				var walk func(ops []mop.Op) []mop.Op
				walk = func(ops []mop.Op) []mop.Op {
					for i, op := range ops {
						switch o := op.(type) {
						case mop.Parallel:
							o.Body = walk(o.Body)
							ops[i] = o
						case mop.ReadXB:
							if !redirected && o.Src >= second {
								o.Src = first
								ops[i] = o
								redirected = true
							}
						}
					}
					return ops
				}
				st.fr.Flow.Body = walk(st.fr.Flow.Body)
				if !redirected {
					return nil, fmt.Errorf("fixture baseline: no crossbar read sourced from node %d's scratch", cims[1])
				}
				return VerifyFlow(st.g, st.a, st.s, st.m.FPs, st.fr), nil
			},
		},
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
