package cimmlc

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	if pl.Chips() != 1 || pl.Flow() == nil || pl.Stats().Partition != nil || pl.Result().Partition != nil {
		t.Fatalf("fitting model built on %d chips (partition %+v), want the one-stage plan", pl.Chips(), pl.Stats().Partition)
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

// TestCutterPoliciesMatchTheOldCutters pins the one cutter to the two it
// replaced, on the plans the benchmark and the zoo run: the target policy
// alone makes the host cut partition.Partition made, the chip policy alone
// the chip cut partition.ChipStages made — same subgraphs, exports and
// transfers, and TransferCycles to the bit, each transfer now priced on its
// own link. The digests were printed at the parent commit.
func TestCutterPoliciesMatchTheOldCutters(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		model, preset string
		pipeline      bool // jia-small through BuildPipeline
		copts         []Option
		want          string
	}{
		{"mlp-sig", "toy-table2", false, []Option{WithHostFallback()},
			"cim[0 1]>[1] host[2]>[1] cim[3]>[1] host[4]>[1] cim[5]>[1] n1:0>1*256 n2:1>2*256 n3:2>3*128 n4:3>4*128 0x4089000000000000"},
		{"conv-gate", "puma", false, []Option{WithHostFallback()},
			"cim[0 1 2]>[2] host[3 4]>[2] cim[5 6]>[2] n2:0>1*4096 n4:1>2*4096 0x40b43aaaaaaaaaaa"},
		{"mlp", "jia-isscc21", true, []Option{WithStationaryWeights()},
			"cim[0 1 2]>[2] cim[3 4 5]>[3] n2:0>1*256 0x4066400000000000"},
		// Both policies on change neither plan: the gated models fit one
		// chip, and mlp has nothing for the host.
		{"conv-gate", "puma", true, []Option{WithHostFallback()},
			"cim[0 1 2]>[2] host[3 4]>[2] cim[5 6]>[2] n2:0>1*4096 n4:1>2*4096 0x40b43aaaaaaaaaaa"},
		{"mlp", "jia-isscc21", true, []Option{WithHostFallback(), WithStationaryWeights()},
			"cim[0 1 2]>[2] cim[3 4 5]>[3] n2:0>1*256 0x4066400000000000"},
	} {
		g, err := Model(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Preset(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		if tc.preset == "jia-isscc21" {
			a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
		}
		c, err := New(a, tc.copts...)
		if err != nil {
			t.Fatal(err)
		}
		var p *Program
		if tc.pipeline {
			p, err = c.BuildPipeline(ctx, g, RandomWeights(g, 7), CodegenOptions{}, 0)
		} else {
			p, err = c.Build(ctx, g, RandomWeights(g, 7), CodegenOptions{})
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.model, tc.preset, err)
		}
		info := p.Result().Partition
		got := ""
		for _, sub := range info.Plan.Subs {
			got += fmt.Sprintf("%s%v>%v ", sub.Target, sub.NodeIDs, sub.Exports)
		}
		for _, x := range info.Plan.Transfers {
			got += fmt.Sprintf("n%d:%d>%d*%d ", x.FromNode, x.FromSub, x.ToSub, x.Elems)
		}
		got += fmt.Sprintf("%#x", math.Float64bits(info.TransferCycles))
		if got != tc.want {
			t.Errorf("%s on %s (pipeline %v):\n got %s\nwant %s", tc.model, tc.preset, tc.pipeline, got, tc.want)
		}
	}
}
