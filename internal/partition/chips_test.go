package partition

import (
	"reflect"
	"strings"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
)

// tinyChip returns a preset shrunk to a rows×cols core grid, so small zoo
// graphs overflow one chip and exercise the stage cuts.
func tinyChip(t *testing.T, rows, cols int) *arch.Arch {
	t.Helper()
	a, err := arch.Preset("jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	a.Chip.CoreRows, a.Chip.CoreCols = rows, cols
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// mlp builds the three-dense stack used across the chip-split tests.
func mlp() *graph.Graph {
	return graph.NewBuilder("mlp3", 256).
		Dense(512).ReLU().Dense(512).ReLU().Dense(64).
		MustFinish()
}

func TestChipStagesSingleStageWhenFits(t *testing.T) {
	a, err := arch.Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	g := allCIM()
	plan, err := ChipStages(g, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subs) != 1 {
		t.Fatalf("fitting graph split into %d stages, want 1", len(plan.Subs))
	}
	if len(plan.Transfers) != 0 {
		t.Errorf("single-stage plan has transfers %+v", plan.Transfers)
	}
	if plan.Subs[0].Target != graph.TargetCIM {
		t.Errorf("stage target %q, want CIM", plan.Subs[0].Target)
	}
}

func TestChipStagesSplitsOverCapacityModel(t *testing.T) {
	g := mlp()
	a := tinyChip(t, 4, 4) // 16 cores; the mlp needs 34 in total
	plan, err := ChipStages(g, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subs) < 2 {
		t.Fatalf("over-capacity model produced %d stages, want ≥ 2", len(plan.Subs))
	}
	budget := a.Chip.CoreCount()
	seen := map[int]bool{}
	for _, s := range plan.Subs {
		if s.Target != graph.TargetCIM {
			t.Errorf("stage %d target %q, want CIM", s.Index, s.Target)
		}
		// Each stage must independently satisfy the stationary fit.
		fps, err := mapping.Footprints(s.G, a)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, f := range fps {
			if f.Rounds(a) > 1 {
				t.Errorf("stage %d has a multi-round operator", s.Index)
			}
			total += f.CoresPerCopy
		}
		if total > budget {
			t.Errorf("stage %d needs %d cores, chip has %d", s.Index, total, budget)
		}
		for _, gid := range s.NodeIDs {
			if seen[gid] {
				t.Errorf("node %d appears in two stages", gid)
			}
			seen[gid] = true
		}
	}
	if len(seen) != len(plan.Graph.Nodes) {
		t.Errorf("stages cover %d of %d nodes", len(seen), len(plan.Graph.Nodes))
	}
	// Transfers must connect consecutive-or-later stages, forward only.
	for _, x := range plan.Transfers {
		if x.FromSub >= x.ToSub {
			t.Errorf("backward transfer %+v", x)
		}
		if x.Elems <= 0 {
			t.Errorf("transfer %+v has no volume", x)
		}
	}
	if len(plan.Transfers) == 0 {
		t.Error("multi-stage plan has no transfers")
	}
}

func TestChipStagesMaxChips(t *testing.T) {
	g := mlp()
	a := tinyChip(t, 4, 4)
	if _, err := ChipStages(g, a, 1); err == nil {
		t.Error("maxChips=1 accepted a model needing several chips")
	}
	plan, err := ChipStages(g, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChipStages(g, a, len(plan.Subs)); err != nil {
		t.Errorf("maxChips equal to the needed stage count rejected: %v", err)
	}
}

func TestChipStagesRejectsHostOnlyOps(t *testing.T) {
	g := graph.NewBuilder("gated", 32).Dense(16).Sigmoid().MustFinish()
	a := tinyChip(t, 4, 4)
	_, err := ChipStages(g, a, 0)
	if err == nil || !strings.Contains(err.Error(), "host-only") {
		t.Errorf("host-only graph accepted (err=%v)", err)
	}
}

func TestChipStagesRejectsOversizedOperator(t *testing.T) {
	// One dense needing more cores than the whole 1×1 chip.
	g := graph.NewBuilder("big", 512).Dense(512).MustFinish()
	a := tinyChip(t, 1, 1)
	_, err := ChipStages(g, a, 0)
	if err == nil || !strings.Contains(err.Error(), "cannot be split") {
		t.Errorf("oversized operator accepted (err=%v)", err)
	}
}

func TestChipStagesDeterministic(t *testing.T) {
	g := mlp()
	a := tinyChip(t, 4, 4)
	p1, err := ChipStages(g, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ChipStages(g, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("two ChipStages runs of the same graph differ")
	}
	for _, n := range g.Nodes {
		if n.Target != "" {
			t.Errorf("input graph node %d was annotated %q", n.ID, n.Target)
		}
	}
}
