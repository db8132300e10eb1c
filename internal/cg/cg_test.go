package cg

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
	"cimmlc/internal/mvm"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
	"cimmlc/internal/vvm"
)

func optimize(t *testing.T, g *graph.Graph, a *arch.Arch, opt Options) *sched.Schedule {
	t.Helper()
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Optimize(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// §3.4: on the Table-2 toy machine (2 cores, each holding the conv once) the
// CG optimizer duplicates the conv twice.
func TestToyConvDuplicatedTwice(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	s := optimize(t, g, a, Options{Duplicate: true})
	if got := s.DupOf(g.CIMNodeIDs()[0]); got != 2 {
		t.Fatalf("toy conv duplication = %d, want 2 (§3.4)", got)
	}
	if len(s.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(s.Segments))
	}
}

func TestDuplicationRespectsBudget(t *testing.T) {
	for _, name := range []string{"lenet5", "resnet18", "vgg7"} {
		g, _ := models.Build(name)
		a := arch.ISAACBaseline()
		m, _ := cost.New(g, a)
		s := optimize(t, g, a, Options{Duplicate: true})
		for _, seg := range s.Segments {
			cores := 0
			for _, id := range seg {
				if f := m.FPs[id]; g.Nodes[id].Op.CIMSupported() && f.Rounds == 1 {
					cores += s.DupOf(id) * f.CoresPerCopy
				}
			}
			if cores > a.Chip.CoreCount() {
				t.Errorf("%s: segment uses %d cores > %d", name, cores, a.Chip.CoreCount())
			}
		}
	}
}

func TestDuplicationSpeedsUpResNet(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	plain := optimize(t, g, a, Options{})
	dup := optimize(t, g, a, Options{Duplicate: true})
	rp, err := perfsim.Simulate(plain)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := perfsim.Simulate(dup)
	if err != nil {
		t.Fatal(err)
	}
	speedup := rp.Cycles / rd.Cycles
	// Figure 21(a): CG-Duplication alone reaches 25.4× on ResNet18; demand
	// at least a large multiple here.
	if speedup < 5 {
		t.Fatalf("CG duplication speedup on ResNet18 = %.2f, want ≥5", speedup)
	}
}

func TestDuplicationFavorsManyWindowLayers(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	m, _ := cost.New(g, a)
	s := optimize(t, g, a, Options{Duplicate: true})
	ids := g.CIMNodeIDs()
	stem := ids[0]          // 112×112 windows
	head := ids[len(ids)-1] // final Dense, 1 window
	if s.DupOf(stem) <= s.DupOf(head) {
		t.Fatalf("stem dup %d should exceed head dup %d", s.DupOf(stem), s.DupOf(head))
	}
	if s.DupOf(head) != 1 {
		t.Fatalf("single-window dense duplicated %d times", s.DupOf(head))
	}
	_ = m
}

func TestPipelineOptionPropagates(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	s := optimize(t, g, a, Options{Pipeline: true})
	if !s.Pipeline {
		t.Fatal("pipeline flag lost")
	}
	s2 := optimize(t, g, a, Options{})
	if s2.Pipeline {
		t.Fatal("pipeline enabled unrequested")
	}
}

func TestWaterfillAllocatorBalances(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	s := optimize(t, g, a, Options{Duplicate: true, Pipeline: true, Allocator: AllocWaterfill})
	m, _ := cost.New(g, a)
	// Waterfill's bottleneck stage should be no worse than the DP answer's
	// (they optimize different objectives but both must be sane).
	sDP := optimize(t, g, a, Options{Duplicate: true, Pipeline: true, Allocator: AllocDP})
	bottleneck := func(s *sched.Schedule) float64 {
		worst := 0.0
		for _, id := range g.CIMNodeIDs() {
			oc, err := m.Op(id, s.DupOf(id), 1)
			if err != nil {
				t.Fatal(err)
			}
			if r := oc.Run(); r > worst {
				worst = r
			}
		}
		return worst
	}
	bw, bd := bottleneck(s), bottleneck(sDP)
	if bw > bd*1.25 {
		t.Fatalf("waterfill bottleneck %v much worse than DP %v", bw, bd)
	}
}

func TestSegmentationVGG16OnPUMA(t *testing.T) {
	// VGG16 exceeds PUMA's 276 crossbars by far: segmentation must split it
	// and its giant classifier layers must sit in their own segments.
	g := models.VGG16()
	a := arch.PUMAAccelerator()
	m, _ := cost.New(g, a)
	s := optimize(t, g, a, Options{Duplicate: true, Pipeline: true})
	if len(s.Segments) < 2 {
		t.Fatalf("VGG16 on PUMA produced %d segments, want several", len(s.Segments))
	}
	for _, seg := range s.Segments {
		over := 0
		for _, id := range seg {
			if g.Nodes[id].Op.CIMSupported() && m.FPs[id].Rounds > 1 {
				over++
			}
		}
		if over > 0 && cimCountForTest(m, seg) != 1 {
			t.Fatalf("multi-round operator shares segment: %v", seg)
		}
	}
	if _, err := perfsim.Simulate(s); err != nil {
		t.Fatalf("segmented schedule does not simulate: %v", err)
	}
}

func cimCountForTest(m *cost.Model, seg []int) int {
	c := 0
	for _, id := range seg {
		if m.Graph.Nodes[id].Op.CIMSupported() {
			c++
		}
	}
	return c
}

func TestSegmentationJiaVGG16(t *testing.T) {
	// The Figure 20(a) scenario: VGG16 on Jia's 16-core chip — the model
	// exceeds on-chip resources, so the pipeline alone helps little and the
	// P&D duplication matters.
	g := models.VGG16()
	a := arch.JiaAccelerator()
	s := optimize(t, g, a, Options{Duplicate: true, Pipeline: true})
	if len(s.Segments) < 2 {
		t.Fatalf("VGG16 on Jia should need segmentation, got %d segments", len(s.Segments))
	}
	if _, err := perfsim.Simulate(s); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentsCoverAllNodesInOrder(t *testing.T) {
	g := models.VGG16()
	a := arch.PUMAAccelerator()
	s := optimize(t, g, a, Options{Duplicate: true})
	seen := map[int]bool{}
	count := 0
	for _, seg := range s.Segments {
		for _, id := range seg {
			if seen[id] {
				t.Fatalf("node %d in two segments", id)
			}
			seen[id] = true
			count++
		}
	}
	nonInput := 0
	for _, n := range g.Nodes {
		if n.Op != graph.OpInput {
			nonInput++
		}
	}
	if count != nonInput {
		t.Fatalf("segments cover %d nodes, want %d", count, nonInput)
	}
}

func TestRefinementNotWorse(t *testing.T) {
	// Popping nodes must never produce a slower schedule than plain greedy
	// segmentation (the refinement only accepts improvements).
	g := models.VGG16()
	a := arch.JiaAccelerator()
	m, _ := cost.New(g, a)
	greedy, err := Optimize(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Optimize(context.Background(), m, Options{Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := perfsim.SimulateWithModel(context.Background(), greedy, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := perfsim.SimulateWithModel(context.Background(), refined, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Cycles > rg.Cycles*1.02 {
		t.Fatalf("refined schedule slower: %v vs %v", rr.Cycles, rg.Cycles)
	}
}

// cimRow is the row of a CIM operator of one round that takes cores a copy,
// up to maxDup copies, over windows windows of perWindow cycles.
func cimRow(cores, maxDup int, windows int64, perWindow float64) cost.Row {
	return cost.Row{OpCost: cost.OpCost{Windows: windows, PerWindow: perWindow, Rounds: 1}, Cores: cores, MaxDup: maxDup}
}

func TestDPAllocatorPrefersHighWorkOps(t *testing.T) {
	// Two synthetic ops: one with 100 windows, one with 4; budget for 8
	// extra copies must mostly go to the first.
	rows := []cost.Row{{}, cimRow(1, 100, 100, 10), cimRow(1, 100, 4, 10)}
	dup, err := allocateList(context.Background(), new(dupTable), rows, []int{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dup[0] <= dup[1] {
		t.Fatalf("dp gave %v; heavy op should receive more copies", dup)
	}
	if dup[0]+dup[1] > 10 {
		t.Fatalf("dp exceeded budget: %v", dup)
	}
}

func TestAllocateRejectsImpossibleBudget(t *testing.T) {
	w := workspace{
		m:      &cost.Model{Rows: []cost.Row{{}, cimRow(10, 1, 1, 1)}},
		budget: 5,
		dup:    make([]int, 2),
	}
	if err := w.allocate(context.Background(), &w.scratch, []int{1}); err == nil {
		t.Fatal("accepted impossible budget")
	}
}

func TestAllocatorsAblation(t *testing.T) {
	// The DESIGN.md ablation: both allocators produce feasible schedules on
	// the same model; DP wins on total runtime, waterfill on bottleneck.
	rows := []cost.Row{{}, cimRow(2, 50, 1000, 5), cimRow(1, 50, 300, 5), cimRow(4, 50, 50, 5)}
	ops := []int{1, 2, 3}
	budget := 40
	dp, err := allocateList(context.Background(), new(dupTable), rows, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	wf := waterfill(rows, ops, budget, nil)
	sum := func(dup []int) float64 {
		t := 0.0
		for i, id := range ops {
			t += rows[id].RunAt(dup[i])
		}
		return t
	}
	worst := func(dup []int) float64 {
		w := 0.0
		for i, id := range ops {
			if r := rows[id].RunAt(dup[i]); r > w {
				w = r
			}
		}
		return w
	}
	if sum(dp) > sum(wf)*1.001 {
		t.Fatalf("DP total %v worse than waterfill %v", sum(dp), sum(wf))
	}
	if worst(wf) > worst(dp)*1.001 {
		t.Fatalf("waterfill bottleneck %v worse than DP %v", worst(wf), worst(dp))
	}
	for _, dup := range [][]int{dp, wf} {
		used := 0
		for i, id := range ops {
			used += dup[i] * rows[id].Cores
		}
		if used > budget {
			t.Fatalf("allocator exceeded budget: %v", dup)
		}
	}
}

// exhaustiveDP is the duplication search as it stood before the forward table
// pruned it — every copy count of every operator tried at every core count,
// RunAt(d) re-evaluated each time — kept verbatim as the oracle the pruned
// search is tested against. ops are node IDs into rows. It also returns the
// choice table it walks back. dup[i] is the copies of ops[i].
func exhaustiveDP(rows []cost.Row, ops []int, budget int) ([][]int, []int) {
	const inf = math.MaxFloat64 / 4
	choice := make([][]int, len(ops))
	// dp is built operator by operator; cur[r] = min total runtime of the
	// first i operators using at most r cores.
	prev := make([]float64, budget+1)
	for r := range prev {
		prev[r] = 0
	}
	for i, id := range ops {
		oi := &rows[id]
		cur := make([]float64, budget+1)
		ch := make([]int, budget+1)
		for r := 0; r <= budget; r++ {
			cur[r] = inf
			ch[r] = 0
			maxD := oi.MaxDup
			if oi.Cores > 0 {
				if lim := r / oi.Cores; lim < maxD {
					maxD = lim
				}
			}
			for d := 1; d <= maxD; d++ {
				c := d * oi.Cores
				if c > r {
					break
				}
				v := prev[r-c] + oi.RunAt(d)
				if v < cur[r] {
					cur[r] = v
					ch[r] = d
				}
				// Early exit: once the operator is down to one window per
				// copy, more copies cannot help.
				if int64(d) >= oi.Windows {
					break
				}
			}
		}
		choice[i] = ch
		prev = cur
	}
	// Walk back the choices from the full budget.
	dup := make([]int, len(ops))
	r := budget
	for i := len(ops) - 1; i >= 0; i-- {
		d := choice[i][r]
		if d < 1 {
			d = 1
		}
		dup[i] = d
		r -= d * rows[ops[i]].Cores
		if r < 0 {
			r = 0
		}
	}
	return choice, dup
}

// TestSearchPricesWhatTheSimulatorCharges: the duplication search prices a
// copy count with the model's row, cost.Row.RunAt, the simulator with
// cost.OpCost.Run on what CIMOp returns at those copies. For every zoo node
// on every preset they must agree bit for bit: a CIM node at each of its
// candidate copy counts, a digital node at one copy. Both charge an
// oversized operator the reprogramming of its rounds after the first only
// (Rounds−1 of them: round 0 is its segment's), and that is pinned here too.
func TestSearchPricesWhatTheSimulatorCharges(t *testing.T) {
	checked, oversized := 0, 0
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
			if err := g.InferShapes(); err != nil {
				t.Fatal(err)
			}
			m, err := cost.New(g, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range nonInputs(g) {
				r := &m.Rows[id]
				cands := []candidate{{d: 1, run: r.RunAt(1)}}
				if r.Cores > 0 {
					cands = candidates(r, a.Chip.CoreCount(), nil)
				}
				for _, c := range cands {
					oc, err := m.Op(id, c.d, 1)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := math.Float64bits(c.run), math.Float64bits(oc.Run()); got != want {
						t.Fatalf("%s.%s node %d at %d copies: the search prices %v, the simulator %v", model, preset, id, c.d, c.run, oc.Run())
					}
					checked++
				}
				if r.Rounds > 1 {
					oc, err := m.CIMOp(id, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					_, later := m.FPs[id].Wordlines(a)
					want := float64(oc.Rounds)*float64(oc.Windows)*oc.PerWindow + m.Program(later)
					if oc.Run() != want || r.RunAt(1) != want {
						t.Fatalf("%s.%s node %d: %d rounds run %v in the simulator, %v in the search, want %v (rounds after the first write %d wordlines)",
							model, preset, id, oc.Rounds, oc.Run(), r.RunAt(1), want, later)
					}
					oversized++
				}
			}
		}
	}
	t.Logf("%d (node, copies) prices agree, %d oversized operators", checked, oversized)
	if oversized == 0 {
		t.Error("no zoo node is oversized: the Rounds−1 rule went unchecked")
	}
}

// TestSegmenterPricesReloadPerCore: a pop is worth it only if the
// copies it frees save more than programming the popped operator, one copy
// at remap 1, costs: the cost model's Program of the wordlines that copy
// writes on its busiest core, every crossbar of a core programmed serially.
// On a Table-2 machine with four crossbars a core, the fixture's pop saves
// twice one full crossbar's programming: it pays for an operator that writes
// one crossbar (32 input features), and not for one that fills its core
// (128: four stripes), so that prefix stays whole. The price is what the
// simulator charges a segment that holds one copy of the operator.
func TestSegmenterPricesReloadPerCore(t *testing.T) {
	a := arch.ToyExample()
	a.Core.XBCols = 2
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	segment := func(features int) ([][]int, *cost.Model) {
		g := graph.NewBuilder("pop", 32).Dense(features).Dense(16).Dense(16).MustFinish()
		m, err := cost.New(g, a)
		if err != nil {
			t.Fatal(err)
		}
		// Nodes 1 and 2 take one core each and fill the two-core chip, so
		// node 3 starts the next prefix. Popping node 2 lets both run at two
		// copies, saving one window of each: 2 × one crossbar's programming.
		// The search reads these rows; the pops are priced off m.
		perXB := m.Program(a.XB.Rows)
		synthetic := *m
		synthetic.Rows = []cost.Row{{}, cimRow(1, 2, 2, perXB), cimRow(1, 2, 2, perXB), cimRow(2, 2, 2, perXB)}
		w := workspace{m: &synthetic, budget: a.Chip.CoreCount(), opt: Options{Duplicate: true}, dup: make([]int, len(synthetic.Rows))}
		segs, err := w.segment(context.Background(), []int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return segs, m
	}
	full, m := segment(4 * a.XB.Rows)
	if want := [][]int{{1, 2}, {3}}; !reflect.DeepEqual(full, want) {
		t.Errorf("popping a copy that fills its core (%v cycles): segments %v, want the prefix whole: %v", popPrice(m, 2), full, want)
	}
	if got, want := popPrice(m, 2), m.Program(a.Core.XBCount()*a.XB.Rows); got != want {
		t.Errorf("a copy of four full stripes costs %v to program, want a whole core's %v", got, want)
	}
	one, m := segment(a.XB.Rows)
	if want := [][]int{{1}, {2}, {3}}; !reflect.DeepEqual(one, want) {
		t.Errorf("popping a copy of one crossbar (%v cycles): segments %v, want node 2 popped: %v", popPrice(m, 2), one, want)
	}
	// Each operator in a segment of its own, at one copy: the simulator
	// charges the second and third segments what a pop of them is priced.
	s := &sched.Schedule{Graph: m.Graph, Arch: a, Dup: make([]int, 4), Remap: make([]int, 4), Segments: [][]int{{1}, {2}, {3}}}
	rep, err := perfsim.SimulateWithModel(context.Background(), s, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := popPrice(m, 2) + popPrice(m, 3); rep.ReloadCycles != want || want <= 0 {
		t.Errorf("segments of one copy each reload %v cycles, their pops are priced %v", rep.ReloadCycles, want)
	}
}

// TestReloadCyclesAreTheModelsPrice: the simulator charges each segment
// after the first the cost model's Program of the wordlines its busiest core
// writes, as the placement records them, on a multi-segment cell of every
// preset. No segment holds digital nodes alone: those after an oversized
// operator, up to the next CIM node, share its segment (perfsim's
// TestSegmentsAddReload prices such a segment, built by hand, at 0). An
// oversized operator's run pays the rounds after its first, round 0 being
// its segment's.
func TestReloadCyclesAreTheModelsPrice(t *testing.T) {
	for _, preset := range arch.PresetNames() {
		a, err := arch.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		g := models.VGG16()
		m, err := cost.New(g, a)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Optimize(context.Background(), m, Options{Pipeline: true, Duplicate: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Segments) < 2 {
			t.Fatalf("vgg16.%s: %d segments, want several", preset, len(s.Segments))
		}
		rep, err := perfsim.SimulateWithModel(context.Background(), s, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, wordlines, err := mapping.Occupancy(context.Background(), g, a, m.FPs, s.Dup, s.Remap, s.Segments)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for seg := 1; seg < len(s.Segments); seg++ {
			want += m.Program(wordlines[seg])
			if !slices.ContainsFunc(s.Segments[seg], func(id int) bool { return g.Nodes[id].Op.CIMSupported() }) {
				t.Errorf("vgg16.%s: segment %d holds digital nodes alone: %v", preset, seg, s.Segments[seg])
			}
		}
		if rep.ReloadCycles != want {
			t.Errorf("vgg16.%s: %d segments reload %v cycles, want %v (wordlines %v)", preset, len(s.Segments), rep.ReloadCycles, want, wordlines)
		}
		for _, id := range g.CIMNodeIDs() {
			oc, err := m.CIMOp(id, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, later := m.FPs[id].Wordlines(a)
			if oc.Reload != m.Program(later) || (oc.Rounds > 1) != (later > 0) {
				t.Errorf("vgg16.%s node %d: %d rounds reload %v cycles, the rounds after the first write %d wordlines", preset, id, oc.Rounds, oc.Reload, later)
			}
		}
		t.Logf("vgg16.%s: %d segments, %v reload cycles", preset, len(s.Segments), rep.ReloadCycles)
	}
}

// TestArbitrationKeepsTheFaster: on every segment of every zoo cell (the
// mixed models, which need a host, aside) at CM, XBM and WLM, the copies the
// default allocator keeps simulate no slower than the dynamic program's own.
// Both schedules go through the levels a compile runs after CG (the MVM
// level's repack and stagger at XBM and finer, the VVM level's remap at
// WLM), and each segment is timed by the simulator alone; the DP's copies
// are Optimize's with Pipeline off, which arbitrates nothing and cuts the
// same segments.
func TestArbitrationKeepsTheFaster(t *testing.T) {
	var sim perfsim.Segment
	segments, moved := 0, 0
	for _, preset := range arch.PresetNames() {
		for _, model := range models.Names() {
			if models.Mixed(model) {
				continue
			}
			for _, level := range []arch.Mode{arch.CM, arch.XBM, arch.WLM} {
				a, err := arch.Preset(preset)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Mode.AtLeast(level) {
					continue
				}
				g, err := models.Build(model)
				if err != nil {
					t.Fatal(err)
				}
				m, err := cost.New(g, a)
				if err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("%s.%s@%s", model, preset, level)
				opt := Options{Pipeline: true, Duplicate: true, Repack: level.AtLeast(arch.XBM)}
				kept, err := Optimize(context.Background(), m, opt)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				opt.Pipeline = false
				dp, err := Optimize(context.Background(), m, opt)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				dp.Pipeline = true
				if !reflect.DeepEqual(kept.Segments, dp.Segments) {
					t.Fatalf("%s: arbitrated segments %v, DP's %v", cell, kept.Segments, dp.Segments)
				}
				for _, s := range []*sched.Schedule{kept, dp} {
					if level.AtLeast(arch.XBM) {
						if _, err := mvm.Optimize(s, m, mvm.Options{Duplicate: true, Stagger: true}); err != nil {
							t.Fatal(err)
						}
					}
					if level.AtLeast(arch.WLM) {
						if _, err := vvm.Optimize(s, m, vvm.Options{Remap: true}); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i, seg := range kept.Segments {
					k, err := sim.Makespan(context.Background(), kept, m, seg)
					if err != nil {
						t.Fatal(err)
					}
					d, err := sim.Makespan(context.Background(), dp, m, seg)
					if err != nil {
						t.Fatal(err)
					}
					if k > d {
						t.Errorf("%s segment %d: kept copies run %v cycles, the DP's %v", cell, i, k, d)
					}
					if k < d {
						moved++
					}
					segments++
				}
			}
		}
	}
	t.Logf("%d segments, %d faster than the DP's copies", segments, moved)
}
