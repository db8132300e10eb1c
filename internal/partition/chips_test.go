package partition

import (
	"reflect"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/perfsim"
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
	plan, err := Partition(g, Options{Chip: a})
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
	plan, err := Partition(g, Options{Chip: a})
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
			if f.Rounds > 1 {
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
	if _, err := Partition(g, Options{Chip: a, MaxChips: 1}); err == nil {
		t.Error("maxChips=1 accepted a model needing several chips")
	}
	plan, err := Partition(g, Options{Chip: a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(g, Options{Chip: a, MaxChips: len(plan.Subs)}); err != nil {
		t.Errorf("maxChips equal to the needed stage count rejected: %v", err)
	}
}

// TestChipStagesComposeWithHostCut: both policies at once. A gated stack
// whose CIM part overflows the chip is cut at the host-only operator and at
// chip capacity in one plan: labels never run backwards, the host stage rides
// with the chip last filled, only the edge between CIM stages on different
// chips crosses the chip link, and an evicted (ForceHost) operator occupies no
// cores. The build-and-verify half is the root package's mixed plan shape
// (TestPartitionedRunBatchDeterminism/mixed) and FuzzPartition.
func TestChipStagesComposeWithHostCut(t *testing.T) {
	// input(0) dense(1) dense(2) sigmoid(3) dense(4): 16 + 16 + 2 cores on
	// chips of 16.
	g := graph.NewBuilder("gated", 256).Dense(512).Dense(512).Sigmoid().Dense(64).MustFinish()
	a := tinyChip(t, 4, 4)
	type label struct {
		target graph.Target
		chip   int
		ids    []int
	}
	labels := func(p *Plan) (ls []label) {
		for _, s := range p.Subs {
			ls = append(ls, label{s.Target, s.Chip, s.NodeIDs})
		}
		return ls
	}
	links := func(p *Plan) (ls []perfsim.Link) {
		for _, x := range p.Transfers {
			ls = append(ls, x.Link)
		}
		return ls
	}

	plan, err := Partition(g, Options{Chip: a})
	if err != nil {
		t.Fatal(err)
	}
	want := []label{
		{graph.TargetCIM, 0, []int{0, 1}},
		{graph.TargetCIM, 1, []int{2}},
		{graph.TargetHost, 1, []int{3}},
		{graph.TargetCIM, 2, []int{4}},
	}
	if got := labels(plan); !reflect.DeepEqual(got, want) {
		t.Fatalf("labels:\n got %+v\nwant %+v", got, want)
	}
	if got, want := links(plan), []perfsim.Link{perfsim.ChipLink, perfsim.HostLink, perfsim.HostLink}; !reflect.DeepEqual(got, want) {
		t.Fatalf("transfer links %v, want %v", got, want)
	}
	if _, err := Partition(g, Options{Chip: a, MaxChips: 2}); err == nil {
		t.Error("maxChips=2 accepted a mixed model needing three chips")
	}

	// Evicting the second Dense leaves the accelerator 18 cores of work —
	// still two chips — and folds nothing: both CIM runs keep a weight.
	plan, err = Partition(g, Options{Chip: a, ForceHost: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	want = []label{
		{graph.TargetCIM, 0, []int{0, 1}},
		{graph.TargetHost, 0, []int{2, 3}},
		{graph.TargetCIM, 1, []int{4}},
	}
	if got := labels(plan); !reflect.DeepEqual(got, want) {
		t.Fatalf("labels with the second Dense evicted:\n got %+v\nwant %+v", got, want)
	}
	if got, want := links(plan), []perfsim.Link{perfsim.HostLink, perfsim.HostLink}; !reflect.DeepEqual(got, want) {
		t.Fatalf("transfer links with the second Dense evicted %v, want %v", got, want)
	}
}

func TestChipStagesDeterministic(t *testing.T) {
	g := mlp()
	a := tinyChip(t, 4, 4)
	p1, err := Partition(g, Options{Chip: a})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Partition(g, Options{Chip: a})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("two chip cuts of the same graph differ")
	}
	for _, n := range g.Nodes {
		if n.Target != "" {
			t.Errorf("input graph node %d was annotated %q", n.ID, n.Target)
		}
	}
}
