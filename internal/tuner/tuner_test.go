package tuner_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/core"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
	"cimmlc/internal/tuner"
)

// heuristic compiles a zoo model at the given preset and level and returns
// the level-optimized schedule plus its cost model.
func heuristic(t testing.TB, model, preset string, mode arch.Mode) (*sched.Schedule, *cost.Model) {
	t.Helper()
	g, err := models.Build(model)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	a.Mode = mode
	res, err := core.Compile(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule, res.Model
}

// TestNeighborsEmitOnlyValidSchedules sweeps several cells and checks every
// emitted candidate is a valid, placement-feasible schedule — the pruner's
// contract.
func TestNeighborsEmitOnlyValidSchedules(t *testing.T) {
	cells := []struct {
		model, preset string
		mode          arch.Mode
	}{
		{"mlp", "toy-table2", arch.WLM},
		{"lenet5", "toy-table2", arch.XBM},
		{"lenet5", "puma", arch.CM},
		{"vgg7", "toy-table2", arch.WLM}, // segmented: exercises merge/split
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s-%s-%s", c.model, c.preset, c.mode), func(t *testing.T) {
			s, m := heuristic(t, c.model, c.preset, c.mode)
			cands := tuner.Neighbors(s, m, tuner.KnobsFor(c.mode))
			if len(cands) == 0 {
				t.Fatal("no candidates emitted")
			}
			for _, cand := range cands {
				if err := cand.Schedule.Validate(); err != nil {
					t.Errorf("move %q produced invalid schedule: %v", cand.Move, err)
				}
				for segIdx, seg := range cand.Schedule.Segments {
					if _, err := mapping.SegmentCores(cand.Schedule.Graph, cand.Schedule.Arch, m.FPs, cand.Schedule.Dup, cand.Schedule.Remap, seg); err != nil {
						t.Errorf("move %q segment %d infeasible: %v", cand.Move, segIdx, err)
					}
				}
			}
		})
	}
}

// TestNeighborsTableDriven pins the knob-space boundaries the generator must
// respect, case by case.
func TestNeighborsTableDriven(t *testing.T) {
	s, m := heuristic(t, "mlp", "isaac-baseline", arch.WLM)

	// Pick a CIM node to reason about.
	ids := s.Graph.CIMNodeIDs()
	if len(ids) == 0 {
		t.Fatal("no CIM nodes")
	}

	moveKinds := func(cands []tuner.Candidate) map[string]int {
		kinds := map[string]int{}
		for _, c := range cands {
			kind := strings.SplitN(c.Move, "[", 2)[0]
			kind = strings.SplitN(kind, " ", 2)[0]
			kinds[kind]++
		}
		return kinds
	}

	t.Run("level gating", func(t *testing.T) {
		wlm := moveKinds(tuner.Neighbors(s, m, tuner.KnobsFor(arch.WLM)))
		xbm := moveKinds(tuner.Neighbors(s, m, tuner.KnobsFor(arch.XBM)))
		cm := moveKinds(tuner.Neighbors(s, m, tuner.KnobsFor(arch.CM)))
		if wlm["remap"] == 0 {
			t.Error("WLM level should emit remap moves")
		}
		if xbm["remap"] != 0 || cm["remap"] != 0 {
			t.Errorf("remap moves below WLM: xbm=%d cm=%d", xbm["remap"], cm["remap"])
		}
		if xbm["stagger"] == 0 {
			t.Error("XBM level should emit a stagger toggle")
		}
		if cm["stagger"] != 0 {
			t.Error("stagger toggle below XBM")
		}
		if cm["pipeline"] == 0 || wlm["pipeline"] == 0 {
			t.Error("pipeline toggle should exist at every level")
		}
	})

	t.Run("dup ceiling at MVM count", func(t *testing.T) {
		// Cap a node's duplication at its MVM count: no dup+1 move may
		// appear for it (more copies than MVMs is wasted silicon).
		capped := s.Clone()
		id := -1
		for _, nid := range ids {
			if f := m.FPs[nid]; f.Rounds == 1 && f.MVMs >= 1 {
				capped.Dup[nid] = int(f.MVMs)
				id = nid
				break
			}
		}
		if id < 0 {
			t.Skip("no single-round CIM node")
		}
		banned := fmt.Sprintf("dup[%d] %d->%d", id, capped.Dup[id], capped.Dup[id]+1)
		for _, c := range tuner.Neighbors(capped, m, tuner.KnobsFor(arch.WLM)) {
			if c.Move == banned {
				t.Fatalf("emitted %q beyond the node's %d MVMs", c.Move, m.FPs[id].MVMs)
			}
		}
	})

	t.Run("remap ceiling at row groups", func(t *testing.T) {
		for _, c := range tuner.Neighbors(s, m, tuner.KnobsFor(arch.WLM)) {
			var id, from, to int
			if n, _ := fmt.Sscanf(c.Move, "remap[%d] %d->%d", &id, &from, &to); n == 3 {
				if to > m.FPs[id].RowGroups {
					t.Errorf("move %q exceeds RowGroups %d", c.Move, m.FPs[id].RowGroups)
				}
			}
		}
	})

	t.Run("dup floor at one", func(t *testing.T) {
		for _, c := range tuner.Neighbors(s, m, tuner.KnobsFor(arch.WLM)) {
			var id, from, to int
			if n, _ := fmt.Sscanf(c.Move, "dup[%d] %d->%d", &id, &from, &to); n == 3 && to < 1 {
				t.Errorf("move %q lowers dup below 1", c.Move)
			}
		}
	})
}

// TestNeighborsMergeRespectsCapacity constructs both sides of the merge
// boundary: a split schedule whose halves fit together (merge emitted) and a
// pair of segments that cannot share the chip (merge pruned).
func TestNeighborsMergeRespectsCapacity(t *testing.T) {
	// vgg7 on the toy machine is segmented by the CG optimizer precisely
	// because the whole model exceeds the chip, so every emitted merge must
	// still pass the placement calculus.
	s, m := heuristic(t, "vgg7", "toy-table2", arch.WLM)
	if len(s.Segments) < 2 {
		t.Fatalf("expected a segmented schedule, got %d segments", len(s.Segments))
	}
	merges := 0
	for _, c := range tuner.Neighbors(s, m, tuner.KnobsFor(arch.WLM)) {
		if !strings.HasPrefix(c.Move, "merge") {
			continue
		}
		merges++
		for segIdx, seg := range c.Schedule.Segments {
			if _, err := mapping.SegmentCores(c.Schedule.Graph, c.Schedule.Arch, m.FPs, c.Schedule.Dup, c.Schedule.Remap, seg); err != nil {
				t.Errorf("merge %q segment %d overflows: %v", c.Move, segIdx, err)
			}
		}
	}

	// A small model split in half by hand fits back together: the merge
	// move must be offered.
	s2, m2 := heuristic(t, "mlp", "isaac-baseline", arch.WLM)
	if len(s2.Segments) != 1 {
		t.Fatalf("mlp should fit in one segment, got %d", len(s2.Segments))
	}
	split := s2.Clone()
	seg := split.Segments[0]
	if len(seg) < 2 {
		t.Fatal("need at least two nodes to split")
	}
	mid := len(seg) / 2
	split.Segments = [][]int{append([]int{}, seg[:mid]...), append([]int{}, seg[mid:]...)}
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range tuner.Neighbors(split, m2, tuner.KnobsFor(arch.WLM)) {
		if c.Move == "merge segments 0+1" {
			found = true
		}
	}
	if !found {
		t.Error("feasible merge of a hand-split schedule was not offered")
	}
	_ = merges // zero feasible merges is legitimate on an over-full chip
}

// TestTuneBudgetExhaustion checks the search stops exactly at the candidate
// cap when moves are plentiful.
func TestTuneBudgetExhaustion(t *testing.T) {
	s, m := heuristic(t, "lenet5", "toy-table2", arch.WLM)
	for _, cap := range []int{1, 7, 23} {
		_, st, err := tuner.Tune(context.Background(), s, m, tuner.KnobsFor(arch.WLM), tuner.Budget{MaxCandidates: cap, Beam: 2, MaxRounds: 100})
		if err != nil {
			t.Fatal(err)
		}
		if st.Evaluated != cap {
			t.Errorf("cap %d: evaluated %d candidates", cap, st.Evaluated)
		}
	}
}

// TestTuneNeverWorse checks the core guarantee across machine classes and
// levels: the tuned schedule simulates at most as many cycles as the
// heuristic, and the returned schedule reproduces exactly the reported
// tuned latency.
func TestTuneNeverWorse(t *testing.T) {
	cells := []struct {
		model, preset string
		mode          arch.Mode
	}{
		{"conv-relu", "toy-table2", arch.CM},
		{"mlp", "isaac-baseline", arch.WLM},
		{"lenet5", "puma", arch.XBM},
		{"vgg7", "puma", arch.WLM},
	}
	for _, c := range cells {
		s, m := heuristic(t, c.model, c.preset, c.mode)
		tuned, st, err := tuner.Tune(context.Background(), s, m, tuner.KnobsFor(c.mode), tuner.Budget{})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.model, c.preset, err)
		}
		if st.TunedCycles > st.HeuristicCycles {
			t.Errorf("%s/%s: tuned %v > heuristic %v", c.model, c.preset, st.TunedCycles, st.HeuristicCycles)
		}
		rep, err := perfsim.SimulateWithModel(context.Background(), tuned, m, nil)
		if err != nil {
			t.Fatalf("%s/%s: tuned schedule does not simulate: %v", c.model, c.preset, err)
		}
		if rep.Cycles != st.TunedCycles {
			t.Errorf("%s/%s: reported tuned cycles %v but schedule simulates %v", c.model, c.preset, st.TunedCycles, rep.Cycles)
		}
		if err := tuned.Validate(); err != nil {
			t.Errorf("%s/%s: tuned schedule invalid: %v", c.model, c.preset, err)
		}
		if got := tuned.Levels[len(tuned.Levels)-1]; got != "TUNE" {
			t.Errorf("%s/%s: tuned schedule levels %v missing TUNE", c.model, c.preset, tuned.Levels)
		}
	}
}

// TestTuneDeterministicAcrossWorkers runs two concurrent tunes with worker
// counts 1 and 8 and demands byte-identical schedule fingerprints and
// identical perfsim digests — the determinism contract that makes tuned
// artifacts cacheable and CI-comparable. Run with -race this also proves
// the scorer pool is data-race-free.
func TestTuneDeterministicAcrossWorkers(t *testing.T) {
	s, m := heuristic(t, "mlp", "isaac-baseline", arch.WLM)
	type out struct {
		fp     string
		cycles float64
		energy float64
		stats  tuner.Stats
	}
	results := make([]out, 2)
	var wg sync.WaitGroup
	for i, workers := range []int{1, 8} {
		wg.Add(1)
		go func(i, workers int) {
			defer wg.Done()
			tuned, st, err := tuner.Tune(context.Background(), s, m, tuner.KnobsFor(arch.WLM), tuner.Budget{Workers: workers})
			if err != nil {
				t.Errorf("workers=%d: %v", workers, err)
				return
			}
			rep, err := perfsim.SimulateWithModel(context.Background(), tuned, m, nil)
			if err != nil {
				t.Errorf("workers=%d: %v", workers, err)
				return
			}
			results[i] = out{fp: tuned.Fingerprint(), cycles: rep.Cycles, energy: rep.Energy, stats: *st}
		}(i, workers)
	}
	wg.Wait()
	if results[0].fp != results[1].fp {
		t.Errorf("schedule fingerprints diverge: %s vs %s", results[0].fp, results[1].fp)
	}
	if math.Float64bits(results[0].cycles) != math.Float64bits(results[1].cycles) {
		t.Errorf("cycles diverge: %v vs %v", results[0].cycles, results[1].cycles)
	}
	if math.Float64bits(results[0].energy) != math.Float64bits(results[1].energy) {
		t.Errorf("energy diverges: %v vs %v", results[0].energy, results[1].energy)
	}
	if results[0].stats.Evaluated != results[1].stats.Evaluated || results[0].stats.Rounds != results[1].stats.Rounds {
		t.Errorf("search trajectories diverge: %+v vs %+v", results[0].stats, results[1].stats)
	}
	if !results[0].stats.Improved {
		t.Error("mlp@isaac-baseline/WLM is a known-improvable cell; the tuner found nothing")
	}
}

// TestTuneCancellation checks a cancelled context aborts the search with an
// error instead of returning a half-tuned schedule.
func TestTuneCancellation(t *testing.T) {
	s, m := heuristic(t, "lenet5", "toy-table2", arch.WLM)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tuner.Tune(ctx, s, m, tuner.KnobsFor(arch.WLM), tuner.Budget{}); err == nil {
		t.Fatal("cancelled tune returned no error")
	}
}

// FuzzTuneSchedule drives arbitrary small chain networks and presets through
// a one-round tune and requires the result to pass schedule validation and
// placement validation — the tuner must never emit a corrupt schedule, no
// matter the graph.
func FuzzTuneSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(8), uint8(4), uint8(1))
	f.Add(uint8(1), uint8(3), uint8(16), uint8(8), uint8(2))
	f.Add(uint8(2), uint8(1), uint8(12), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, presetSel, depth, width, imgC, kind uint8) {
		presets := arch.PresetNames()
		a, err := arch.Preset(presets[int(presetSel)%len(presets)])
		if err != nil {
			t.Fatal(err)
		}
		g := fuzzGraph(depth, width, imgC, kind)
		res, err := core.Compile(g, a, core.Options{})
		if err != nil {
			t.Skip() // graph/arch combination the heuristics reject
		}
		tuned, st, err := tuner.Tune(context.Background(), res.Schedule, res.Model,
			tuner.KnobsFor(a.Mode), tuner.Budget{MaxCandidates: 12, Beam: 2, MaxRounds: 1})
		if err != nil {
			t.Fatalf("tune failed on a compilable cell: %v", err)
		}
		if st.TunedCycles > st.HeuristicCycles {
			t.Fatalf("tuned %v > heuristic %v", st.TunedCycles, st.HeuristicCycles)
		}
		if err := tuned.Validate(); err != nil {
			t.Fatalf("tuned schedule invalid: %v", err)
		}
		p, err := mapping.Place(context.Background(), tuned.Graph, tuned.Arch, res.Model.FPs, tuned.Dup, tuned.Remap, tuned.Segments)
		if err != nil {
			t.Fatalf("tuned schedule does not place: %v", err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("tuned placement invalid: %v", err)
		}
	})
}

// fuzzGraph builds a small chain network from fuzz bytes: a few conv/dense
// blocks with bounded sizes, always structurally valid.
func fuzzGraph(depth, width, imgC, kind uint8) *graph.Graph {
	d := int(depth)%3 + 1
	w := int(width)%24 + 2
	c := int(imgC)%4 + 1
	if kind%2 == 0 {
		b := graph.NewBuilder("fuzz-conv", c, 10, 10)
		for i := 0; i < d; i++ {
			b.Conv(w, 3, 1, 1).ReLU()
		}
		return b.Flatten().Dense(int(kind)%8 + 2).MustFinish()
	}
	b := graph.NewBuilder("fuzz-mlp", c*16)
	for i := 0; i < d; i++ {
		b.Dense(w).ReLU()
	}
	return b.Dense(int(kind)%8 + 2).MustFinish()
}
