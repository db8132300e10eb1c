package core

import (
	"context"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/models"
	"cimmlc/internal/partition"
	"cimmlc/internal/tuner"
)

// TestCompileWithTune checks the free-function path splices the autotune
// pass in when Options.Tune is set and that the tuned result carries the
// tuning record and never loses to the heuristic compilation.
func TestCompileWithTune(t *testing.T) {
	g := models.MLP()
	a := arch.ISAACBaseline()
	a.Mode = arch.WLM

	plain, err := Compile(g.Clone(), a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Tuning != nil {
		t.Error("untuned compile has a tuning record")
	}

	budget := tuner.Budget{MaxCandidates: 24}
	tuned, err := Compile(g.Clone(), a, Options{Tune: &budget})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Tuning == nil {
		t.Fatal("tuned compile has no tuning record")
	}
	if tuned.Report.Cycles > plain.Report.Cycles {
		t.Errorf("tuned latency %v exceeds heuristic %v", tuned.Report.Cycles, plain.Report.Cycles)
	}
	if tuned.Tuning.HeuristicCycles != plain.Report.Cycles {
		t.Errorf("tuning record heuristic %v != plain compile %v", tuned.Tuning.HeuristicCycles, plain.Report.Cycles)
	}

	// The tune pass is inert without a budget: pipelines containing it must
	// reproduce the untuned result exactly.
	passes, err := BuildPasses([]Insertion{{After: PassVVM, Pass: TunePass()}})
	if err != nil {
		t.Fatal(err)
	}
	inert, err := CompilePasses(context.Background(), g.Clone(), a, Options{}, partition.Options{}, passes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inert.Tuning != nil {
		t.Error("inert tune pass produced a tuning record")
	}
	if inert.Report.Cycles != plain.Report.Cycles {
		t.Errorf("inert tune pass changed the result: %v vs %v", inert.Report.Cycles, plain.Report.Cycles)
	}
}
