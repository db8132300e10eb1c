package perfsim_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/cost"
	"cimmlc/internal/models"
	"cimmlc/internal/perfsim"
)

// These tests build their schedules with cg.Optimize, which prices segments
// with this package: they live outside it.

// BenchmarkSimulate is one autotuner-candidate evaluation: a duplicated,
// pipelined ResNet-18 schedule on the baseline through a shared cost model.
func BenchmarkSimulate(b *testing.B) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	m, err := cost.New(g, a)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cg.Optimize(context.Background(), m, cg.Options{Pipeline: true, Duplicate: true})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := perfsim.SimulateWithModel(context.Background(), s, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShortTablesSimulateAsUnset: a schedule built outside the compiler may
// leave its Dup and Remap tables nil or stop them at its last setting other
// than the default; every node past the end reads as the default, so the
// report equals that of the same decisions in full-length tables.
func TestShortTablesSimulateAsUnset(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	m, err := cost.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cg.Optimize(context.Background(), m, cg.Options{Pipeline: true, Duplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	short := full.Clone()
	last := 0
	for id, d := range short.Dup {
		if d > 1 {
			last = id
		}
	}
	if last == 0 || last == len(g.Nodes)-1 {
		t.Fatalf("want a schedule duplicating a node before the graph's last, got node %d of %d", last, len(g.Nodes))
	}
	short.Dup, short.Remap = short.Dup[:last+1], nil
	want, err := perfsim.Simulate(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := perfsim.Simulate(short)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("short tables simulate to %+v, full ones to %+v", got, want)
	}
}

// TestSegmentMakespanIsTheSimulations holds Segment.Makespan, one segment
// simulated alone, to the segment's time in the whole simulation, over
// segmented and single-segment zoo schedules, pipelined or not, in one
// Segment reused across cells of different graphs: the first segment
// (which starts at 0) bit for bit, every later one (which starts after
// earlier segments and a reload) to within rounding of its start.
func TestSegmentMakespanIsTheSimulations(t *testing.T) {
	var seg perfsim.Segment
	segments := 0
	for _, preset := range []string{"isaac-baseline", "puma", "jia-isscc21"} {
		for _, model := range []string{"lenet5", "resnet18", "vgg16", "vit-tiny"} {
			for _, pipeline := range []bool{true, false} {
				g, err := models.Build(model)
				if err != nil {
					t.Fatal(err)
				}
				a, err := arch.Preset(preset)
				if err != nil {
					t.Fatal(err)
				}
				m, err := cost.New(g, a)
				if err != nil {
					t.Fatal(err)
				}
				s, err := cg.Optimize(context.Background(), m, cg.Options{Pipeline: pipeline, Duplicate: true})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := perfsim.SimulateWithModel(context.Background(), s, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, nodes := range s.Segments {
					got, err := seg.Makespan(context.Background(), s, m, nodes)
					if err != nil {
						t.Fatal(err)
					}
					want := rep.SegmentCycles[i]
					if (i == 0 && got != want) || math.Abs(got-want) > 1e-9*rep.Cycles {
						t.Errorf("%s.%s pipeline %v segment %d: Makespan %v, simulation %v", model, preset, pipeline, i, got, want)
					}
					segments++
				}
			}
		}
	}
	t.Logf("%d segments", segments)
}
