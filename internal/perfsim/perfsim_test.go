package perfsim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
	"cimmlc/internal/sched"
)

// sequential is a schedule of every operator once, with no pipeline, in one
// segment; it suits a model that fits the chip.
func sequential(g *graph.Graph, a *arch.Arch) *sched.Schedule {
	var seg []int
	for _, n := range g.Nodes {
		if n.Op != graph.OpInput {
			seg = append(seg, n.ID)
		}
	}
	return &sched.Schedule{
		Graph:    g,
		Arch:     a,
		Dup:      make([]int, len(g.Nodes)),
		Remap:    make([]int, len(g.Nodes)),
		Segments: [][]int{seg},
	}
}

func toySchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	return sequential(models.ConvReLU(), arch.ToyExample())
}

// runCycles is node id's busy time alone under s, as the cost model prices
// it (a report keeps timings, not costs).
func runCycles(t *testing.T, s *sched.Schedule, id int) float64 {
	t.Helper()
	m, err := cost.New(s.Graph, s.Arch)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := m.Op(id, s.DupOf(id), s.RemapOf(id))
	if err != nil {
		t.Fatal(err)
	}
	return oc.Run()
}

func TestSequentialLatencyIsSumOfOps(t *testing.T) {
	s := toySchedule(t)
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	conv := rep.PerOp[1]
	relu := rep.PerOp[2]
	if conv.Start != 0 {
		t.Fatalf("conv starts at %v, want 0", conv.Start)
	}
	if relu.Start < conv.Finish {
		t.Fatal("sequential: relu must start after conv finishes")
	}
	want := runCycles(t, s, 1) + runCycles(t, s, 2)
	if math.Abs(rep.Cycles-want) > want*0.05 {
		t.Fatalf("cycles = %v, want ≈%v", rep.Cycles, want)
	}
}

func TestPipelineOverlapsOperators(t *testing.T) {
	seq := toySchedule(t)
	pipe := toySchedule(t)
	pipe.Pipeline = true
	rs, err := Simulate(seq)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Simulate(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cycles >= rs.Cycles {
		t.Fatalf("pipeline %v not faster than sequential %v", rp.Cycles, rs.Cycles)
	}
	// The ReLU must start before the conv finishes under pipelining.
	if rp.PerOp[2].Start >= rp.PerOp[1].Finish {
		t.Fatal("pipelined relu did not overlap conv")
	}
}

func TestDuplicationSpeedsUp(t *testing.T) {
	base := toySchedule(t)
	dup := toySchedule(t)
	dup.Dup[1] = 4
	rb, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Simulate(dup)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Cycles >= rb.Cycles {
		t.Fatalf("dup-4 %v not faster than dup-1 %v", rd.Cycles, rb.Cycles)
	}
	// Nearly 4× on the conv itself.
	ratio := runCycles(t, base, 1) / runCycles(t, dup, 1)
	if ratio < 3.5 {
		t.Fatalf("conv speedup = %v, want ≈4", ratio)
	}
}

func TestRemapSpeedsUpWLM(t *testing.T) {
	base := toySchedule(t)
	remap := toySchedule(t)
	remap.Remap[1] = 2
	rb, _ := Simulate(base)
	rr, err := Simulate(remap)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Cycles >= rb.Cycles {
		t.Fatalf("remap %v not faster than base %v", rr.Cycles, rb.Cycles)
	}
}

func TestStaggerCutsPeakPowerNotLatency(t *testing.T) {
	// Need an op with TilesR > 1: ResNet18 stem on the baseline (2 row
	// stripes). Use pipeline so ops overlap.
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	plain := sequential(g, a)
	plain.Pipeline = true
	stag := sequential(g, a)
	stag.Pipeline = true
	stag.Stagger = true
	rp, err := Simulate(plain)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(stag)
	if err != nil {
		t.Fatal(err)
	}
	if !(rs.PeakActiveXBs < rp.PeakActiveXBs) {
		t.Fatalf("stagger peak %v not below plain %v", rs.PeakActiveXBs, rp.PeakActiveXBs)
	}
	if math.Abs(rs.Cycles-rp.Cycles) > rp.Cycles*0.01 {
		t.Fatalf("stagger changed latency: %v vs %v", rs.Cycles, rp.Cycles)
	}
	if rs.PeakPower.Total() >= rp.PeakPower.Total() {
		t.Fatal("stagger must cut peak power")
	}
}

// twoConvs is two 3×3 convolutions with a ReLU between them: on the Table-2
// machine the second takes 72 wordlines in three stripes of one tile, 64 of
// them on the two crossbars of core 0.
func twoConvs() *graph.Graph {
	return graph.NewBuilder("conv-relu-conv", 3, 8, 8).
		Conv(8, 3, 1, 1).ReLU().
		Conv(8, 3, 1, 1).
		MustFinish()
}

// TestSegmentsAddReload: a segment after the first pays to program what its
// busiest core writes, and a segment of digital nodes alone programs nothing
// and pays nothing. The chip is the Table-2 machine with twice its cores, so
// that both convolutions also fit one segment: on two cores the second would
// wrap from core 1, which placement refuses.
func TestSegmentsAddReload(t *testing.T) {
	g := twoConvs()
	a := arch.ToyExample()
	a.Chip.CoreCols = 2
	one := sequential(g, a)
	two := sequential(g, a)
	two.Segments = [][]int{{1, 2}, {3}}
	r1, err := Simulate(one)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(two)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cost.New(g, two.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Program(64); r2.ReloadCycles != want {
		t.Fatalf("two segments reload %v cycles, want core 0's 64 wordlines: %v", r2.ReloadCycles, want)
	}
	if len(r2.SegmentCycles) != 2 {
		t.Fatalf("segment cycles = %v", r2.SegmentCycles)
	}
	if r2.Cycles <= r1.Cycles {
		t.Fatal("segmentation cannot be free")
	}
	digital := toySchedule(t)
	digital.Segments = [][]int{{1}, {2}}
	rd, err := Simulate(digital)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(toySchedule(t))
	if err != nil {
		t.Fatal(err)
	}
	if rd.ReloadCycles != 0 || rd.Cycles != rs.Cycles {
		t.Fatalf("a ReLU alone in a segment reloads %v cycles and takes %v, want 0 and the serial %v", rd.ReloadCycles, rd.Cycles, rs.Cycles)
	}
}

func TestReloadCostlierOnReRAM(t *testing.T) {
	g := twoConvs()
	mkSched := func(dev arch.Device) *sched.Schedule {
		a := arch.ToyExample()
		a.XB.Device = dev
		s := sequential(g, a)
		s.Segments = [][]int{{1, 2}, {3}}
		return s
	}
	rs, err := Simulate(mkSched(arch.SRAM))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Simulate(mkSched(arch.ReRAM))
	if err != nil {
		t.Fatal(err)
	}
	if rr.ReloadCycles <= rs.ReloadCycles || rs.ReloadCycles <= 0 {
		t.Fatalf("ReRAM reload %v must exceed SRAM %v", rr.ReloadCycles, rs.ReloadCycles)
	}
}

func TestPeakPowerGrowsWithDuplication(t *testing.T) {
	base := toySchedule(t)
	base.Pipeline = true
	dup := toySchedule(t)
	dup.Pipeline = true
	dup.Dup[1] = 4
	rb, _ := Simulate(base)
	rd, _ := Simulate(dup)
	if rd.PeakActiveXBs <= rb.PeakActiveXBs {
		t.Fatalf("dup-4 peak %v not above dup-1 %v", rd.PeakActiveXBs, rb.PeakActiveXBs)
	}
}

func TestEnergyIndependentOfDuplication(t *testing.T) {
	base := toySchedule(t)
	dup := toySchedule(t)
	dup.Dup[1] = 4
	rb, _ := Simulate(base)
	rd, _ := Simulate(dup)
	if math.Abs(rb.Energy-rd.Energy) > rb.Energy*1e-9 {
		t.Fatalf("energy changed with duplication: %v vs %v", rb.Energy, rd.Energy)
	}
	if rb.Energy <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestOccupancyReported(t *testing.T) {
	s := toySchedule(t)
	s.Dup[1] = 4
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoresUsed != 2 || rep.XBsUsed != 4 {
		t.Fatalf("cores/xbs = %d/%d, want 2/4", rep.CoresUsed, rep.XBsUsed)
	}
}

func TestSimulateRejectsInvalidSchedule(t *testing.T) {
	s := toySchedule(t)
	s.Segments = nil
	if _, err := Simulate(s); err == nil {
		t.Fatal("accepted invalid schedule")
	}
}

// TestSimulateRejectsOverCapacity: Simulate, which validates the schedule
// itself, refuses every setting placement refuses — more copies than the
// chip holds, a remap past the row groups, copies or a remap on an operator
// larger than the chip — with Place's error, verbatim.
func TestSimulateRejectsOverCapacity(t *testing.T) {
	big := graph.NewBuilder("big", 8, 6, 6).Conv(128, 3, 1, 1).MustFinish()
	for _, c := range []struct {
		name       string
		g          *graph.Graph
		dup, remap int
	}{
		{"over-capacity duplication", models.ConvReLU(), 64, 1}, // toy has 4 crossbars
		{"remap beyond row groups", models.ConvReLU(), 1, 3},
		{"oversized with dup", big, 2, 1},
		{"oversized with remap", big, 1, 2},
	} {
		s := sequential(c.g, arch.ToyExample())
		s.Dup[1], s.Remap[1] = c.dup, c.remap
		_, err := Simulate(s)
		m, merr := cost.New(s.Graph, s.Arch)
		if merr != nil {
			t.Fatal(merr)
		}
		_, perr := mapping.Place(context.Background(), s.Graph, s.Arch, m.FPs, s.Dup, s.Remap, s.Segments)
		if perr == nil || err == nil || err.Error() != "perfsim: placement: "+perr.Error() {
			t.Fatalf("%s: Simulate: %v, Place: %v", c.name, err, perr)
		}
	}
}

// TestSimulateRejectsWhatPlacementRejects pins every rejection the simulator
// takes from the placement calculus rather than from its own event model.
// SimulateWithModel is the entry the autotuner drives; it does not run
// sched.Validate, so the calculus is the only guard for most of these.
func TestSimulateRejectsWhatPlacementRejects(t *testing.T) {
	seq := func(g *graph.Graph) func(*arch.Arch) *sched.Schedule {
		return func(a *arch.Arch) *sched.Schedule { return sequential(g, a) }
	}
	toy := seq(models.ConvReLU())
	// 12 crossbars per copy on the 4-crossbar toy chip.
	big := seq(graph.NewBuilder("big", 8, 6, 6).Conv(128, 3, 1, 1).MustFinish())
	// Three one-crossbar CIM nodes (1, 3, 5) on two cores: legal only with
	// the last one in a segment of its own.
	chain := func(a *arch.Arch) *sched.Schedule {
		s := sequential(graph.NewBuilder("chain", 8, 6, 6).
			Conv(8, 1, 1, 0).ReLU().Conv(8, 1, 1, 0).ReLU().Conv(8, 1, 1, 0).MustFinish(), a)
		s.Segments = [][]int{{1, 2, 3, 4}, {5}}
		return s
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name     string
		schedule func(*arch.Arch) *sched.Schedule
		ctx      context.Context
		corrupt  func(s *sched.Schedule)
		want     string // substring of the error
	}{
		{"no segments", toy, nil, func(s *sched.Schedule) { s.Segments = nil }, "no segments"},
		{"node in two segments", toy, nil, func(s *sched.Schedule) { s.Segments = append(s.Segments, []int{1}) }, "multiple segments"},
		{"uncovered CIM node", chain, nil, func(s *sched.Schedule) { s.Segments = s.Segments[:1] }, "not covered"},
		{"dup < 1", toy, nil, func(s *sched.Schedule) { s.Dup[1] = -1 }, "dup -1"},
		{"remap < 1", toy, nil, func(s *sched.Schedule) { s.Remap[1] = -1 }, "remap -1"},
		{"oversized with dup", big, nil, func(s *sched.Schedule) { s.Dup[1] = 2 }, "exceeds chip capacity"},
		{"oversized with remap", big, nil, func(s *sched.Schedule) { s.Remap[1] = 2 }, "exceeds chip capacity"},
		{"remap beyond row groups", toy, nil, func(s *sched.Schedule) { s.Remap[1] = 3 }, "remapped by 3 beyond its 2 row groups"},
		{"window overflow", toy, nil, func(s *sched.Schedule) { s.Dup[1] = 64 }, "crossbars but only"},
		{"segment over the core grid", chain, nil, func(s *sched.Schedule) { s.Segments = [][]int{{1, 2, 3, 4, 5}} }, "no crossbars left"},
		{"cancelled ctx", toy, cancelled, func(*sched.Schedule) {}, "cancelled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := arch.ToyExample()
			s := c.schedule(a)
			m, err := cost.New(s.Graph, a)
			if err != nil {
				t.Fatal(err)
			}
			ctx := c.ctx
			if ctx == nil {
				ctx = context.Background()
				if _, err := SimulateWithModel(ctx, s, m, nil); err != nil {
					t.Fatalf("clean schedule rejected: %v", err)
				}
			}
			c.corrupt(s)
			_, err = SimulateWithModel(ctx, s, m, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
			// The refusal is the placement calculus's own, word for word.
			_, _, _, perr := mapping.Occupancy(ctx, s.Graph, s.Arch, m.FPs, s.Dup, s.Remap, s.Segments)
			if perr == nil || !strings.HasSuffix(err.Error(), ": "+perr.Error()) {
				t.Fatalf("err = %v, the placement calculus refuses with %v", err, perr)
			}
			if c.ctx != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not wrap context.Canceled", err)
			}
		})
	}
}

func TestResNetPipelineSpeedupShape(t *testing.T) {
	// The Figure 21(a) CG-Pipeline effect: pipelining a ResNet on the
	// baseline should give a clear speedup (paper: 2.3–4.7×).
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	seq := sequential(g, a)
	pipe := sequential(g, a)
	pipe.Pipeline = true
	rs, err := Simulate(seq)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Simulate(pipe)
	if err != nil {
		t.Fatal(err)
	}
	speedup := rs.Cycles / rp.Cycles
	if speedup < 1.5 || speedup > 20 {
		t.Fatalf("ResNet18 pipeline speedup = %.2f, expected a clear but bounded gain", speedup)
	}
}

func TestBranchingGraphTimings(t *testing.T) {
	// Residual: add must wait for both branches.
	b := graph.NewBuilder("res", 4, 8, 8)
	b.Conv(4, 3, 1, 1)
	conv1 := b.Last
	b.Conv(4, 3, 1, 1)
	b.AddFrom(conv1)
	g := b.MustFinish()
	a := arch.ISAACBaseline()
	s := sequential(g, a)
	s.Pipeline = true
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	add := rep.PerOp[3]
	c2 := rep.PerOp[2]
	if add.Finish < c2.Finish {
		t.Fatal("add finished before its producer")
	}
}
