package partition_test

import (
	"context"
	"errors"
	"testing"

	"cimmlc"
	"cimmlc/internal/graph"
	"cimmlc/internal/partition"
)

// oversized returns two Dense layers that each need more cores than the whole
// 1×1 chip it returns them with. Node granularity is the finest the cutter
// splits at, so each sits alone on a chip it does not fit.
func oversized(t *testing.T) (*graph.Graph, *cimmlc.Arch) {
	t.Helper()
	a, err := cimmlc.Preset("jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	a.Chip.CoreRows, a.Chip.CoreCols = 1, 1
	return graph.NewBuilder("big", 512).Dense(512).ReLU().Dense(512).MustFinish(), a
}

// TestChipStagesRejectsOversizedOperator: where weights must stay stationary
// an operator larger than a whole chip has no place. The cutter cannot split
// it and gives it a chip to itself; the rejection is cg's, compiling that
// chip, with the error a fleet matches. MaxChips counts such chips too.
func TestChipStagesRejectsOversizedOperator(t *testing.T) {
	g, a := oversized(t)
	plan, err := partition.Partition(g, partition.Options{Chip: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subs) != 2 || plan.Subs[0].Chip != 0 || plan.Subs[1].Chip != 1 {
		t.Fatalf("two oversized operators cut into %d stages, want one chip each", len(plan.Subs))
	}
	if _, err := partition.Partition(g, partition.Options{Chip: a, MaxChips: 1}); err == nil {
		t.Error("maxChips=1 accepted two oversized operators")
	}
	stationary, err := cimmlc.New(a, cimmlc.WithStationaryWeights())
	if err != nil {
		t.Fatal(err)
	}
	_, err = stationary.BuildPipeline(context.Background(), g, cimmlc.RandomWeights(g, 3), cimmlc.CodegenOptions{}, 0)
	if !errors.Is(err, cimmlc.ErrOverCapacity) {
		t.Fatalf("stationary BuildPipeline err = %v, want ErrOverCapacity", err)
	}
}

// TestChipStagesReloadOversizedOperator: a compiler that may reload weights
// builds the same plan — the one case of a chip whose weights are not
// stationary, segmented as Build segments an over-capacity model on one chip —
// and runs it bit-exact per stage.
func TestChipStagesReloadOversizedOperator(t *testing.T) {
	ctx := context.Background()
	g, a := oversized(t)
	in := cimmlc.NewTensor(512)
	in.Rand(5, 1)
	inputs := map[int]*cimmlc.Tensor{0: in}
	reloading, err := cimmlc.New(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reloading.BuildPipeline(ctx, g, cimmlc.RandomWeights(g, 3), cimmlc.CodegenOptions{}, 0, cimmlc.WithCalibration(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if p.Chips() != 2 {
		t.Fatalf("program occupies %d chips, want 2", p.Chips())
	}
	if err := p.Verify(ctx, inputs, 0.05); err != nil {
		t.Fatal(err)
	}
}
