package baseline

import (
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
)

func TestNoOptIsSerialSingleCopy(t *testing.T) {
	g := models.ResNet18()
	s, err := NoOpt(g, arch.ISAACBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if s.Pipeline || s.Stagger {
		t.Fatal("NoOpt must not pipeline")
	}
	for _, id := range g.CIMNodeIDs() {
		if s.DupOf(id) != 1 || s.RemapOf(id) != 1 {
			t.Fatalf("NoOpt duplicated node %d", id)
		}
	}
	if _, err := perfsim.Simulate(s); err != nil {
		t.Fatal(err)
	}
}

func TestPolyScheduleBeatsNoOpt(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	no, err := NoOpt(g, a)
	if err != nil {
		t.Fatal(err)
	}
	poly, err := PolySchedule(g, a)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := perfsim.Simulate(no)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := perfsim.Simulate(poly)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cycles >= rn.Cycles {
		t.Fatalf("poly-schedule %v not faster than no-opt %v", rp.Cycles, rn.Cycles)
	}
	// Figure 20(d): Poly-Schedule reduces computation cycles by ~84%, i.e.
	// a large multiple; require at least 2×.
	if rn.Cycles/rp.Cycles < 2 {
		t.Fatalf("poly-schedule speedup only %.2f×", rn.Cycles/rp.Cycles)
	}
}

func TestPolyScheduleIsGraphLevelOnly(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	s, err := PolySchedule(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// Poly-Schedule stays at the computing-graph level: no intra-image
	// pipeline, no staggered activation, no wordline remapping — only
	// greedy core-granularity duplication.
	if s.Pipeline {
		t.Fatal("poly-schedule must not use the intra-image pipeline")
	}
	if s.Stagger {
		t.Fatal("poly-schedule must not stagger crossbar activation")
	}
	for _, id := range g.CIMNodeIDs() {
		if s.RemapOf(id) != 1 {
			t.Fatalf("poly-schedule remapped node %d", id)
		}
	}
	dupped := 0
	for _, id := range g.CIMNodeIDs() {
		if s.DupOf(id) > 1 {
			dupped++
		}
	}
	if dupped == 0 {
		t.Fatal("poly-schedule applied no duplication at all")
	}
}

func TestPolyScheduleRespectsBudget(t *testing.T) {
	g := models.ResNet50()
	a := arch.ISAACBaseline()
	s, err := PolySchedule(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := perfsim.Simulate(s); err != nil {
		t.Fatalf("poly schedule unplaceable: %v", err)
	}
}

func TestVendorNativeSchedules(t *testing.T) {
	vgg := models.VGG16()
	if s, err := JiaNative(vgg); err != nil || len(s.Segments) < 2 {
		t.Fatalf("JiaNative: err=%v segments=%d (VGG16 cannot fit 16 cores)", err, len(s.Segments))
	}
	if _, err := PUMANative(models.VGG7()); err != nil {
		t.Fatalf("PUMANative: %v", err)
	}
}

func TestOversizedSegmentsNotDuplicated(t *testing.T) {
	g := models.VGG16()
	a := arch.PUMAAccelerator()
	s, err := PolySchedule(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := perfsim.Simulate(s); err != nil {
		t.Fatal(err)
	}
}

// TestBaselinesRefuseHostOnlyOperators: a baseline maps the whole graph onto
// the chip, so a graph with a host-only operator gets the compiler's own
// refusal rather than a schedule that prices the operator as a chip one.
func TestBaselinesRefuseHostOnlyOperators(t *testing.T) {
	baselines := map[string]func(*graph.Graph) (*sched.Schedule, error){
		"NoOpt":        func(g *graph.Graph) (*sched.Schedule, error) { return NoOpt(g, arch.PUMAAccelerator()) },
		"PolySchedule": func(g *graph.Graph) (*sched.Schedule, error) { return PolySchedule(g, arch.PUMAAccelerator()) },
		"JiaNative":    JiaNative,
		"PUMANative":   PUMANative,
	}
	for _, name := range models.MixedNames() {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for bn, fn := range baselines {
			_, err := fn(g)
			if err == nil || !strings.Contains(err.Error(), "has no CIM lowering") {
				t.Errorf("%s on %s: err = %v, want the host-only refusal", bn, name, err)
			}
		}
	}
}
