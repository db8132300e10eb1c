package cimmlc

import (
	"context"
	"errors"
	"testing"
)

// smallChipCompiler returns a compiler for a jia-isscc21 variant shrunk to 8
// cores — the zoo mlp needs 13 in total (largest operator 8), so it overflows
// one chip without any single operator overflowing it.
func smallChipCompiler(t *testing.T, copts ...Option) (*Compiler, *Graph, Weights, map[int]*Tensor) {
	t.Helper()
	a, err := Preset("jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
	c, err := New(a, copts...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Model("mlp")
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 7)
	in := NewTensor(g.MustNode(0).OutShape...)
	in.Rand(11, 1)
	return c, g, w, map[int]*Tensor{0: in}
}

// TestStationaryBuildFailsOverCapacity pins the serving-grade capacity
// contract: under WithStationaryWeights an over-capacity model must fail
// Build with ErrOverCapacity instead of silently falling back to weight
// reloading, while a fitting model still builds.
func TestStationaryBuildFailsOverCapacity(t *testing.T) {
	ctx := context.Background()
	c, g, w, inputs := smallChipCompiler(t, WithStationaryWeights())
	_, err := c.Build(ctx, g, w, CodegenOptions{}, WithCalibration(inputs))
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("Build err = %v, want ErrOverCapacity", err)
	}
	// The same compiler still serves models that fit.
	small, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	sw := RandomWeights(small, 1)
	if _, err := c.Build(ctx, small, sw, CodegenOptions{}); err != nil {
		t.Fatalf("fitting model rejected under WithStationaryWeights: %v", err)
	}
	// Without the option the over-capacity model builds via segmentation.
	c2, g2, w2, inputs2 := smallChipCompiler(t)
	if _, err := c2.Build(ctx, g2, w2, CodegenOptions{}, WithCalibration(inputs2)); err != nil {
		t.Fatalf("non-stationary build failed: %v", err)
	}
}

// TestPipelineSingleStageMatchesProgram pins the degenerate case: a model
// that fits one chip builds the same one-stage plan through BuildPipeline as
// through Build — no partition, bit-exact Verify, bit-identical outputs.
func TestPipelineSingleStageMatchesProgram(t *testing.T) {
	ctx := context.Background()
	c, g, w, inputs, p := buildToyProgram(t)
	pl, err := c.BuildPipeline(ctx, g, w, CodegenOptions{}, 0, WithCalibration(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stages() != 1 || pl.Stats().Partition != nil || pl.Result().Partition != nil {
		t.Fatalf("fitting model built %d stages (partition %+v), want the one-stage plan", pl.Stages(), pl.Stats().Partition)
	}
	if err := pl.Verify(ctx, inputs, 0.05); err != nil {
		t.Fatal(err)
	}
	want, err := p.Run(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Run(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, got, want)
}

// TestBuildPipelineMaxChips bounds the fleet's chip budget.
func TestBuildPipelineMaxChips(t *testing.T) {
	ctx := context.Background()
	c, g, w, inputs := smallChipCompiler(t, WithStationaryWeights())
	if _, err := c.BuildPipeline(ctx, g, w, CodegenOptions{}, 1, WithCalibration(inputs)); err == nil {
		t.Fatal("maxChips=1 accepted a model needing several chips")
	}
}
