package cimmlc

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := RandomWeights(g, 1)
	in := NewTensor(3, 32, 32)
	in.Rand(2, 1)
	inputs := map[int]*Tensor{0: in}
	p, err := c.Build(ctx, g, w, CodegenOptions{}, WithCalibration(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if p.Result().Report.Cycles <= 0 {
		t.Fatal("no latency")
	}
	if err := p.Verify(ctx, inputs, 0.05); err != nil {
		t.Fatal(err)
	}
	outs, err := p.Run(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[g.Outputs()[0]].Len() != 32*32*32 {
		t.Fatal("wrong output size")
	}
}

func TestFacadeRoundTrips(t *testing.T) {
	a, _ := Preset("puma")
	data, err := EncodeArch(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArch(data)
	if err != nil {
		t.Fatal(err)
	}
	if *b != *a {
		t.Fatal("arch round trip changed")
	}
	g, _ := Model("lenet5")
	gd, err := EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := DecodeGraph(gd)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes) != len(g.Nodes) {
		t.Fatal("graph round trip changed")
	}
}

func TestFacadeFlowParse(t *testing.T) {
	g, _ := Model("conv-relu")
	a, _ := Preset("toy-table2")
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := c.Lower(context.Background(), g, res, CodegenOptions{MaxWindowsPerOp: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := fr.Flow.Print()
	back, err := ParseFlow(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Print() != text {
		t.Fatal("flow parse round trip changed")
	}
}

func TestFacadeListings(t *testing.T) {
	if len(Presets()) != 5 {
		t.Fatalf("presets = %v", Presets())
	}
	if len(ModelNames()) < 14 {
		t.Fatalf("model zoo too small: %v", ModelNames())
	}
	if len(ExperimentIDs()) != 14 {
		t.Fatalf("experiments = %v", ExperimentIDs())
	}
}

func TestFacadeBaselines(t *testing.T) {
	g, _ := Model("lenet5")
	a, _ := Preset("isaac-baseline")
	no, err := NoOptSchedule(g, a)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Simulate(no)
	if err != nil {
		t.Fatal(err)
	}
	poly, err := PolySchedule(g, a)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Simulate(poly)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cycles > rn.Cycles {
		t.Fatal("poly slower than no-opt")
	}
}

func TestFacadeExperiment(t *testing.T) {
	tab, err := Experiment("fig16")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Format(), "fig16") {
		t.Fatal("bad experiment table")
	}
	if _, err := Experiment("nope"); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}
