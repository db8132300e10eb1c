package conformance

import (
	"context"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"cimmlc"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json with this run's digests")

const goldenPath = "testdata/golden.json"

// runMatrix executes a config against the committed goldens, honoring
// -update (which merges this run's digests into the golden file instead of
// comparing), and returns the run's result.
func runMatrix(t *testing.T, cfg Config) *Result {
	t.Helper()
	if *update {
		cfg.Golden = nil
	} else {
		golden, err := LoadGolden(filepath.FromSlash(goldenPath))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Golden = golden
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Errorf("cell %s: %s", c.Cell.Key(), c.Err)
		}
	}
	if *update {
		// Goldens only ever snapshot a conforming matrix: a run that
		// violated any invariant must not overwrite the committed file.
		if t.Failed() {
			t.Fatal("refusing to -update goldens from a non-conforming run")
		}
		existing, err := LoadGolden(filepath.FromSlash(goldenPath))
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveGolden(filepath.FromSlash(goldenPath), MergeGolden(existing, res.Digests())); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// requireMixedCells guards the matrix's coverage of mixed models (host-only
// operators), so that a config edit cannot silently drop them again: each
// must be a cell on every arch and level, and each of those cells must have
// been exec-, determinism- and tune-checked with the partition check on.
func requireMixedCells(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	if !cfg.PartitionCheck {
		t.Error("config runs no partition check")
	}
	mixed := 0
	for _, c := range res.Cells {
		if !cimmlc.ModelMixed(c.Cell.Model) {
			continue
		}
		mixed++
		if !c.ExecChecked || !c.DetChecked || !c.TuneChecked {
			t.Errorf("mixed cell %s: exec %v, determinism %v, tune %v checked; want all three",
				c.Cell.Key(), c.ExecChecked, c.DetChecked, c.TuneChecked)
		}
	}
	if want := len(cimmlc.MixedModelNames()) * len(cfg.Archs) * len(cfg.Levels); mixed != want {
		t.Errorf("matrix carries %d mixed cells, want %d", mixed, want)
	}
}

// TestMatrixShort is the always-on conformance sweep. Under the race
// detector it downshifts to the exec-focused RaceConfig — that is where the
// concurrency coverage lives, and race instrumentation makes the broader
// compile sweep an order of magnitude slower.
func TestMatrixShort(t *testing.T) {
	if RaceEnabled {
		runMatrix(t, RaceConfig())
		return
	}
	cfg := ShortConfig()
	requireMixedCells(t, cfg, runMatrix(t, cfg))
}

// TestMatrixFull sweeps the whole zoo across every preset and level. It is
// the conformance CI job's workload; skipped under -short and under race
// (TestMatrixShort covers the race-relevant paths).
func TestMatrixFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full zoo matrix skipped in -short mode")
	}
	if RaceEnabled {
		t.Skip("full zoo matrix skipped under the race detector; TestMatrixShort covers the concurrent paths")
	}
	cfg := FullConfig()
	requireMixedCells(t, cfg, runMatrix(t, cfg))
}

// TestGoldenDiffReadable pins the failure mode the harness exists for: a
// perturbed metric must produce a violation that names the cell and the
// drifted field with both values — the readable diff a reviewer acts on.
func TestGoldenDiffReadable(t *testing.T) {
	got := Digest{Cycles: 4352, Energy: 10, XBsUsed: 3, Segments: 1, OutputHash: "abc"}
	want := got
	want.Cycles = 4000
	want.OutputHash = "def"
	diffs := got.diff(want)
	if len(diffs) != 2 {
		t.Fatalf("want 2 field diffs, got %v", diffs)
	}
	joined := strings.Join(diffs, "\n")
	for _, needle := range []string{"cycles", "4000", "4352", "output_hash", `"def"`, `"abc"`} {
		if !strings.Contains(joined, needle) {
			t.Errorf("diff %q should mention %q", joined, needle)
		}
	}

	vs := newViolationSet()
	compareGolden(
		[]CellResult{{Cell: Cell{Model: "conv-relu", Arch: "toy-table2", Level: "WLM"}, Digest: got}},
		map[string]Digest{"conv-relu|toy-table2|WLM": want}, vs)
	out := strings.Join(vs.sorted(), "\n")
	if !strings.Contains(out, "conv-relu|toy-table2|WLM") || !strings.Contains(out, "golden drift") {
		t.Errorf("golden violation %q should name the cell and the drift", out)
	}

	// A cell with no golden entry must point at the -update workflow.
	vs = newViolationSet()
	compareGolden(
		[]CellResult{{Cell: Cell{Model: "mlp", Arch: "puma", Level: "CM"}, Digest: got}},
		map[string]Digest{}, vs)
	if out := strings.Join(vs.sorted(), "\n"); !strings.Contains(out, "-update") {
		t.Errorf("missing-golden violation %q should mention -update", out)
	}
}

// TestTuneImprovementFloor pins the matrix-level autotune floor: per-cell
// never-worse alone would pass a tuner that never finds anything.
func TestTuneImprovementFloor(t *testing.T) {
	cells := make([]CellResult, 8)
	for i := range cells {
		cells[i] = CellResult{TuneChecked: true, tuneImproved: i < 4}
	}
	vs := newViolationSet()
	checkTuneImprovement(cells, vs)
	if out := strings.Join(vs.sorted(), "\n"); !strings.Contains(out, "only 4 of 8") {
		t.Errorf("4 improved cells of 8 should trip the floor of 5, got %q", out)
	}
	cells[4].tuneImproved = true
	vs = newViolationSet()
	checkTuneImprovement(cells[:5], vs)
	checkTuneImprovement(nil, vs) // no tune-checked cells (RaceConfig): nothing to demand
	if out := vs.sorted(); len(out) != 0 {
		t.Errorf("floor met, got violations %q", out)
	}
}

// TestGoldenRoundTrip checks save/load/merge stability of the golden file
// format.
func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.json")
	in := map[string]Digest{
		"a|b|CM":  {Cycles: 1.25, Energy: 3e-7, MOPs: &MOPCounts{CIM: 2, Parallel: 1}, OutputHash: "xyz"},
		"a|b|WLM": {Cycles: 1},
	}
	if err := SaveGolden(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out["a|b|CM"].Cycles != 1.25 || out["a|b|CM"].MOPs == nil || out["a|b|CM"].MOPs.CIM != 2 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	if d := out["a|b|CM"].diff(in["a|b|CM"]); len(d) != 0 {
		t.Fatalf("round-tripped digest differs: %v", d)
	}
	merged := MergeGolden(out, map[string]Digest{"a|b|WLM": {Cycles: 2}, "c|d|CM": {Cycles: 3}})
	if len(merged) != 3 || merged["a|b|WLM"].Cycles != 2 || merged["a|b|CM"].Cycles != 1.25 {
		t.Fatalf("merge wrong: %+v", merged)
	}

	missing, err := LoadGolden(filepath.Join(dir, "nope.json"))
	if err != nil || len(missing) != 0 {
		t.Fatalf("missing file should load as empty matrix, got %v, %v", missing, err)
	}
}
