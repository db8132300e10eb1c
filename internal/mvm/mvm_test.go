package mvm

import (
	"context"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
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

func cgSchedule(t *testing.T, g *graph.Graph, a *arch.Arch) (*sched.Schedule, *cost.Model) {
	t.Helper()
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cg.Optimize(context.Background(), m, cg.Options{Duplicate: true, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// §3.4: the toy machine's CG duplication of 2 becomes 4 at MVM granularity
// (each core has two crossbars, each crossbar holds one copy).
func TestEquationOneToyWalkthrough(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	s, m := cgSchedule(t, g, a)
	node := g.CIMNodeIDs()[0]
	if s.DupOf(node) != 2 {
		t.Fatalf("CG dup = %d, want 2", s.DupOf(node))
	}
	s, err := Optimize(s, m, Options{Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.DupOf(node) != 4 {
		t.Fatalf("MVM dup = %d, want 4 (§3.4)", s.DupOf(node))
	}
}

func TestEquationOneNeverLowersDup(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	s, m := cgSchedule(t, g, a)
	before := map[int]int{}
	for _, id := range g.CIMNodeIDs() {
		before[id] = s.DupOf(id)
	}
	s, err := Optimize(s, m, Options{Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.CIMNodeIDs() {
		if s.DupOf(id) < before[id] {
			t.Fatalf("node %d dup dropped %d → %d", id, before[id], s.DupOf(id))
		}
	}
}

func TestEquationOneCappedByWindows(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	s, m := cgSchedule(t, g, a)
	s, err := Optimize(s, m, Options{Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.CIMNodeIDs() {
		if int64(s.DupOf(id)) > m.FPs[id].MVMs {
			t.Fatalf("node %d dup %d exceeds its %d MVMs", id, s.DupOf(id), m.FPs[id].MVMs)
		}
	}
}

func TestMVMDupSpeedsUp(t *testing.T) {
	// Figure 21(b): CG+MVM-Duplication beats CG-P&D.
	g := models.ResNet50()
	a := arch.ISAACBaseline()
	s, m := cgSchedule(t, g, a)
	rCG, err := perfsim.SimulateWithModel(context.Background(), s, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Optimize(s.Clone(), m, Options{Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	rMVM, err := perfsim.SimulateWithModel(context.Background(), s2, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rMVM.Cycles >= rCG.Cycles {
		t.Fatalf("MVM duplication did not speed up ResNet50: %v vs %v", rMVM.Cycles, rCG.Cycles)
	}
}

func TestStaggerReducesPeakPower(t *testing.T) {
	// Figure 21(d): the MVM pipeline lowers the peak activated crossbars.
	g := models.ResNet34()
	a := arch.ISAACBaseline()
	s, m := cgSchedule(t, g, a)
	plain, err := Optimize(s.Clone(), m, Options{Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	stag, err := Optimize(s.Clone(), m, Options{Duplicate: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := perfsim.SimulateWithModel(context.Background(), plain, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := perfsim.SimulateWithModel(context.Background(), stag, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.PeakPower.Total() >= rp.PeakPower.Total() {
		t.Fatalf("stagger peak %v not below plain %v", rs.PeakPower.Total(), rp.PeakPower.Total())
	}
}

func TestRejectsCMArchitecture(t *testing.T) {
	g := models.ConvReLU()
	a := arch.JiaAccelerator() // CM mode
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	s := sequential(g, a)
	if _, err := Optimize(s, m, Options{Duplicate: true}); err == nil {
		t.Fatal("accepted CM-mode architecture")
	}
}

func TestLevelsAppended(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	s, m := cgSchedule(t, g, a)
	s, err := Optimize(s, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Levels) != 2 || s.Levels[1] != "MVM" {
		t.Fatalf("levels = %v", s.Levels)
	}
}

func TestOversizedOpsSkipped(t *testing.T) {
	g := models.VGG16()
	a := arch.PUMAAccelerator()
	s, m := cgSchedule(t, g, a)
	s, err := Optimize(s, m, Options{Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.CIMNodeIDs() {
		if m.FPs[id].Rounds > 1 && s.DupOf(id) != 1 {
			t.Fatalf("oversized node %d duplicated", id)
		}
	}
	if _, err := perfsim.SimulateWithModel(context.Background(), s, m, nil); err != nil {
		t.Fatal(err)
	}
}
