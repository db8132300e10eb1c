package conformance

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"cimmlc"
)

// runTuneFamily enforces the autotune property family on one cell (the
// fourth family of the harness):
//
//  1. Never worse than the heuristic — the autotuned schedule's simulated
//     cycles are ≤ the heuristic schedule's cycles for the same machine.
//  2. Deterministic recompilation — two independent tuned compilations
//     produce bit-identical digests and identical schedule fingerprints.
//  3. Arithmetic preservation — for executed cells, the outputs of a
//     Program built from the tuned compilation hash bit-identically to the
//     untuned reference outputs: tuning changes the schedule, never the
//     numbers.
//  4. The heuristic inside — a monolithic tuned compilation records the
//     untuned latency as its HeuristicCycles, and its level trail is the
//     untuned one plus exactly one TUNE, so `cimmlc tune` reports both
//     schedules from one compile.
//
// hres is the cell's untuned compilation; baseHash the untuned exec-battery
// output hash ("" for compile-only cells). It reports whether the tuned
// schedule is strictly faster than the heuristic one.
func runTuneFamily(ctx context.Context, cell Cell, cfg Config, g *cimmlc.Graph, a *cimmlc.Arch, hres *cimmlc.Result, baseHash string, vs *violationSet) (improved bool) {
	key := cell.Key()
	heuristic := digestOf(hres)

	tres, fp1, err := compileTuned(ctx, cell, g, a, cfg.TuneBudget)
	if err != nil {
		vs.addf("%s: tuned compile: %v", key, err)
		return
	}
	tuned1 := digestOf(tres)
	improved = tuned1.Cycles < heuristic.Cycles
	if tuned1.Cycles > heuristic.Cycles {
		vs.addf("%s: tuned latency %v exceeds heuristic latency %v (never-worse guarantee broken)",
			key, tuned1.Cycles, heuristic.Cycles)
	}
	if hres.Partition == nil {
		if hc := tres.Tuning.HeuristicCycles; hc != heuristic.Cycles {
			vs.addf("%s: tuning record heuristic cycles %v, untuned compile %v", key, hc, heuristic.Cycles)
		}
		if want := append(slices.Clone(hres.Schedule.Levels), "TUNE"); !slices.Equal(tres.Schedule.Levels, want) {
			vs.addf("%s: tuned levels %v, want the untuned %v plus one TUNE", key, tres.Schedule.Levels, hres.Schedule.Levels)
		}
	}

	tres2, fp2, err := compileTuned(ctx, cell, g, a, cfg.TuneBudget)
	if err != nil {
		vs.addf("%s: tuned recompile: %v", key, err)
		return
	}
	if fp1 != fp2 {
		vs.addf("%s: tuned recompilation chose a different schedule: fingerprint %s vs %s", key, fp1, fp2)
	}
	for _, d := range digestOf(tres2).diff(tuned1) {
		vs.addf("%s: nondeterministic tuned compilation: %s", key, d)
	}

	if baseHash == "" {
		return
	}
	// Rebuild the exec battery's exact program inputs on a tuned compiler
	// and demand the same output bits.
	opts, _ := cellOptions(cell, cimmlc.WithAutoTune(cfg.TuneBudget))
	c, err := cimmlc.New(a, opts...)
	if err != nil {
		vs.addf("%s: tuned exec compiler: %v", key, err)
		return
	}
	w := cimmlc.RandomWeights(g, cfg.Seed)
	reqs := seededRequests(g, cfg.Requests, cfg.Seed)
	p, err := c.Build(ctx, g, w, cimmlc.CodegenOptions{}, cimmlc.WithCalibration(reqs[0]))
	if err != nil {
		vs.addf("%s: tuned Build: %v", key, err)
		return
	}
	// A staged program's stages carry their own records, which compileTuned
	// already demands.
	if p.Result().Partition == nil && p.Stats().Tuning == nil {
		vs.addf("%s: tuned Program.Stats reports no tuning record", key)
	}
	outs := make([]map[int]*cimmlc.Tensor, len(reqs))
	for i, req := range reqs {
		out, err := p.Run(ctx, req)
		if err != nil {
			vs.addf("%s: tuned Program.Run request %d: %v", key, i, err)
			return
		}
		outs[i] = out
	}
	if h := hashOutputs(outs); h != baseHash {
		vs.addf("%s: tuned outputs hash %s differ from untuned %s (tuning must never change the arithmetic)", key, h, baseHash)
	}
	return improved
}

// compileTuned compiles g on a fresh autotuning compiler and returns the
// result and the canonical fingerprint of the tuned schedule — of every CIM
// stage's schedule, in stage order, for a staged compilation. Every stage
// carries its tuning record.
func compileTuned(ctx context.Context, cell Cell, g *cimmlc.Graph, a *cimmlc.Arch, b cimmlc.Budget) (*cimmlc.Result, string, error) {
	opts, _ := cellOptions(cell, cimmlc.WithAutoTune(b))
	c, err := cimmlc.New(a, opts...)
	if err != nil {
		return nil, "", err
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		return nil, "", err
	}
	var fps []string
	for _, sr := range stageResults(res) {
		fp := sr.Schedule.Fingerprint()
		if sr.Tuning == nil {
			return nil, "", fmt.Errorf("tuned compilation returned no tuning record")
		}
		if sr.Tuning.ScheduleFingerprint != fp {
			return nil, "", fmt.Errorf("tuning record fingerprint %s does not match the compiled schedule %s",
				sr.Tuning.ScheduleFingerprint, fp)
		}
		fps = append(fps, fp)
	}
	return res, strings.Join(fps, "+"), nil
}

// tuneCell reports whether the cell runs the autotune family.
func tuneCell(c Cell, cfg Config) bool {
	if !cfg.TuneCheck {
		return false
	}
	return len(cfg.TuneModels) == 0 || slices.Contains(cfg.TuneModels, c.Model)
}
