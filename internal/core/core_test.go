package core

import (
	"slices"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/models"
)

func TestCompileAppliesLevelsByMode(t *testing.T) {
	g := models.LeNet5()
	cases := []struct {
		arch   *arch.Arch
		levels []string
	}{
		{arch.JiaAccelerator(), []string{"CG"}},
		{arch.PUMAAccelerator(), []string{"CG", "MVM"}},
		{arch.ISAACBaseline(), []string{"CG", "MVM", "VVM"}},
	}
	for _, c := range cases {
		res, err := Compile(g, c.arch, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.arch.Name, err)
		}
		got := res.Schedule.Levels
		if len(got) != len(c.levels) {
			t.Fatalf("%s: levels = %v, want %v", c.arch.Name, got, c.levels)
		}
		for i := range got {
			if got[i] != c.levels[i] {
				t.Fatalf("%s: levels = %v, want %v", c.arch.Name, got, c.levels)
			}
		}
	}
}

func TestCompileMaxLevelCap(t *testing.T) {
	g := models.LeNet5()
	a := arch.ISAACBaseline()
	res, err := Compile(g, a, Options{MaxLevel: arch.CM})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Levels) != 1 || res.Schedule.Levels[0] != "CG" {
		t.Fatalf("levels = %v, want [CG]", res.Schedule.Levels)
	}
	res2, err := Compile(g, a, Options{MaxLevel: arch.XBM})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Schedule.Levels) != 2 {
		t.Fatalf("levels = %v, want [CG MVM]", res2.Schedule.Levels)
	}
}

func TestCompileFullStackFasterThanCapped(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	full, err := Compile(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := Compile(g, a, Options{MaxLevel: arch.CM})
	if err != nil {
		t.Fatal(err)
	}
	if full.Report.Cycles > cg.Report.Cycles {
		t.Fatalf("full stack (%v) slower than CG-only (%v)", full.Report.Cycles, cg.Report.Cycles)
	}
}

func TestCompileDisableFlags(t *testing.T) {
	g := models.LeNet5()
	a := arch.ISAACBaseline()
	res, err := Compile(g, a, Options{
		DisablePipeline:    true,
		DisableDuplication: true,
		DisableStagger:     true,
		DisableRemap:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	if s.Pipeline || s.Stagger {
		t.Fatal("disabled techniques still on")
	}
	for _, id := range g.CIMNodeIDs() {
		if s.DupOf(id) != 1 || s.RemapOf(id) != 1 {
			t.Fatal("disabled duplication/remap still applied")
		}
	}
}

func TestCompileProducesConsistentArtifacts(t *testing.T) {
	g := models.VGG7()
	a := arch.ISAACBaseline()
	res, err := Compile(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil || res.Report == nil || res.Model == nil {
		t.Fatal("missing artifacts")
	}
	if res.Report.Cycles <= 0 {
		t.Fatal("non-positive latency")
	}
	if res.Report.CoresUsed > a.Chip.CoreCount() {
		t.Fatalf("used %d cores of %d", res.Report.CoresUsed, a.Chip.CoreCount())
	}
	// Placement tiles must exist for every CIM node.
	for _, id := range g.CIMNodeIDs() {
		if len(res.Placement.TilesOf(id)) == 0 {
			t.Fatalf("no tiles for node %d", id)
		}
	}
}

func TestCompileSegmentedModels(t *testing.T) {
	// VGG16 on PUMA and on Jia: both need segmentation end-to-end.
	for _, a := range []*arch.Arch{arch.PUMAAccelerator(), arch.JiaAccelerator()} {
		res, err := Compile(models.VGG16(), a, Options{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(res.Schedule.Segments) < 2 {
			t.Fatalf("%s: expected segmentation", a.Name)
		}
		if res.Report.ReloadCycles <= 0 {
			t.Fatalf("%s: segmented schedule with no reload cost", a.Name)
		}
	}
}

func TestCompileRejectsInvalidArch(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	a.XB.Rows = 0
	if _, err := Compile(g, a, Options{}); err == nil {
		t.Fatal("accepted invalid arch")
	}
}

func TestCompileViTOnBaseline(t *testing.T) {
	res, err := Compile(models.ViTTiny(), arch.ISAACBaseline(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cycles <= 0 {
		t.Fatal("ViT compile produced no latency")
	}
}

// TestReportOccupancyMatchesPlacement: the simulator counts occupancy from the
// placement calculus without placing; over the benchmark's compile-zoo grid
// (single- and multi-segment, multi-round, all three modes) those counts must
// equal what the tiles of the compile's own placement touch.
func TestReportOccupancyMatchesPlacement(t *testing.T) {
	for _, model := range []string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"} {
		g, err := models.Build(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range arch.PresetNames() {
			a, err := arch.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Compile(g, a, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, preset, err)
			}
			segCores := make([]int, len(res.Schedule.Segments))
			xbs := map[[2]int]bool{}
			for _, e := range res.Placement.Extents {
				for _, tl := range res.Placement.TilesOf(e.Node) {
					segCores[tl.Segment] = max(segCores[tl.Segment], tl.Core+1)
					xbs[[2]int{tl.Segment, tl.XB}] = true
				}
			}
			if cores := slices.Max(segCores); res.Report.CoresUsed != cores || res.Report.XBsUsed != len(xbs) {
				t.Errorf("%s/%s: report says %d cores / %d crossbars, the placement's tiles occupy %d / %d",
					model, preset, res.Report.CoresUsed, res.Report.XBsUsed, cores, len(xbs))
			}
		}
	}
}
