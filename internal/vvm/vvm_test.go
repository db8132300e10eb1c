package vvm

import (
	"context"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
	"cimmlc/internal/mvm"
	"cimmlc/internal/perfsim"
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

func mvmSchedule(t *testing.T, g *graph.Graph, a *arch.Arch) (*sched.Schedule, *cost.Model) {
	t.Helper()
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cg.Optimize(context.Background(), m, cg.Options{Duplicate: true, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err = mvm.Optimize(s, m, mvm.Options{Duplicate: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestRemapUsesSpareCrossbars(t *testing.T) {
	// The toy machine with duplication 1 leaves crossbars idle; VVM should
	// spend them on remapping the conv (RowGroups = 2).
	g := models.ConvReLU()
	a := arch.ToyExample()
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	s := sequential(g, a)
	s.Levels = []string{"CG", "MVM"}
	s, err = Optimize(s, m, Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	node := g.CIMNodeIDs()[0]
	if s.RemapOf(node) != 2 {
		t.Fatalf("remap = %d, want 2", s.RemapOf(node))
	}
}

func TestRemapSpeedsUpLowParallelRow(t *testing.T) {
	// Figure 22(d)'s rescue effect: with few parallel rows, remapping wins.
	g := models.LeNet5()
	a := arch.ISAACBaseline()
	a.XB.ParallelRow = 8
	s, m := mvmSchedule(t, g, a)
	before, err := perfsim.SimulateWithModel(context.Background(), s, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Optimize(s.Clone(), m, Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := perfsim.SimulateWithModel(context.Background(), s2, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cycles >= before.Cycles {
		t.Fatalf("remap did not speed up: %v vs %v", after.Cycles, before.Cycles)
	}
}

func TestRemapRespectsCapacity(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	s, m := mvmSchedule(t, g, a)
	s, err := Optimize(s, m, Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	// The placement (exercised by the simulator) must still fit.
	if _, err := perfsim.SimulateWithModel(context.Background(), s, m, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range g.CIMNodeIDs() {
		if s.RemapOf(id) > m.FPs[id].RowGroups {
			t.Fatalf("node %d remap %d exceeds row groups %d", id, s.RemapOf(id), m.FPs[id].RowGroups)
		}
	}
}

func TestRemapNoopWhenParallelRowFull(t *testing.T) {
	// PUMA-like WLM variant: all rows already activate at once, remap must
	// change nothing.
	g := models.LeNet5()
	a := arch.ISAACBaseline()
	a.XB.ParallelRow = a.XB.Rows
	s, m := mvmSchedule(t, g, a)
	s, err := Optimize(s, m, Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.CIMNodeIDs() {
		if s.RemapOf(id) != 1 {
			t.Fatalf("node %d remapped to %d with full parallel rows", id, s.RemapOf(id))
		}
	}
}

func TestRejectsNonWLM(t *testing.T) {
	g := models.ConvReLU()
	a := arch.PUMAAccelerator() // XBM
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	s := sequential(g, a)
	if _, err := Optimize(s, m, Options{Remap: true}); err == nil {
		t.Fatal("accepted XBM-mode architecture")
	}
}

func TestLevelsAppended(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	s, m := mvmSchedule(t, g, a)
	s, err := Optimize(s, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Levels[len(s.Levels)-1] != "VVM" {
		t.Fatalf("levels = %v", s.Levels)
	}
}

func TestRemapOnSegmentedModel(t *testing.T) {
	// VGG7 on Jain's little machine needs segmentation; remapping must stay
	// within each segment's capacity.
	g := models.VGG7()
	a := arch.JainAccelerator()
	s, m := mvmSchedule(t, g, a)
	s, err := Optimize(s, m, Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := perfsim.SimulateWithModel(context.Background(), s, m, nil); err != nil {
		t.Fatal(err)
	}
}
