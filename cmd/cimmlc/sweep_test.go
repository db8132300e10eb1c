package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"cimmlc"
)

// TestSweepZooVisitsEveryCellPastFailures pins the fix for the silent
// mid-sweep abort: a failing cell (including one whose model does not load)
// must not stop the sweep, and the summary must list every cell with its
// outcome and count the failures.
func TestSweepZooVisitsEveryCellPastFailures(t *testing.T) {
	cells := []zooCell{
		{Model: "a", Arch: "x", Level: cimmlc.CM},
		{Model: "b", Arch: "x", Level: cimmlc.CM},
		{Model: "c", Arch: "x", Level: cimmlc.CM},
	}
	var visited []string
	outcomes := sweepZoo(io.Discard, cells, func(c zooCell) error {
		visited = append(visited, c.Model)
		if c.Model == "b" {
			return errors.New("boom\nwith detail")
		}
		return nil
	})
	if got := strings.Join(visited, ","); got != "a,b,c" {
		t.Fatalf("sweep visited %q, want every cell in order", got)
	}
	if len(outcomes) != 3 || outcomes[1].Err == nil || outcomes[0].Err != nil || outcomes[2].Err != nil {
		t.Fatalf("outcomes = %+v, want only the middle cell failed", outcomes)
	}

	var sum bytes.Buffer
	if bad := summarizeSweep(&sum, "test sweep", outcomes); bad != 1 {
		t.Fatalf("summarizeSweep = %d failures, want 1", bad)
	}
	out := sum.String()
	for _, needle := range []string{"1 of 3 cells failed", "a|x|CM", "b|x|CM", "c|x|CM", "FAIL: boom ..."} {
		if !strings.Contains(out, needle) {
			t.Errorf("summary %q should contain %q", out, needle)
		}
	}
	if strings.Contains(out, "with detail") {
		t.Errorf("summary %q should truncate multi-line errors to one row", out)
	}
}

// TestVetZooCellLoadFailureIsPerCell proves an unloadable model or arch
// becomes that cell's outcome in the shared zoo sweep (so it reports the
// cell and moves on) rather than an early exit, and that healthy cells
// still verify.
func TestVetZooCellLoadFailureIsPerCell(t *testing.T) {
	cells := []zooCell{
		{Model: "no-such-model", Arch: "toy-table2", Level: cimmlc.XBM},
		{Model: "conv-relu", Arch: "no-such-arch", Level: cimmlc.XBM},
		{Model: "conv-relu", Arch: "toy-table2", Level: cimmlc.XBM},
	}
	outcomes := sweepZoo(io.Discard, cells, func(c zooCell) error {
		_, err := analyzeZooCell(context.Background(), c)
		return err
	})
	if len(outcomes) != 3 {
		t.Fatalf("sweep stopped early: %d outcomes, want 3", len(outcomes))
	}
	if outcomes[0].Err == nil || outcomes[1].Err == nil {
		t.Fatalf("load failures not recorded: %+v", outcomes[:2])
	}
	if outcomes[2].Err != nil {
		t.Fatalf("healthy cell failed: %v", outcomes[2].Err)
	}
}

// TestSummarizeSweepAlignsLongCellNames pins the fix for the summary table's
// fixed 40-column cell field: a cell key longer than the old width must not
// push its result out of alignment — every result column starts at the same
// offset, one past the longest key.
func TestSummarizeSweepAlignsLongCellNames(t *testing.T) {
	long := zooCell{Model: "a-very-long-experimental-model-name", Arch: "isaac-baseline-2xcores", Level: cimmlc.XBM}
	outcomes := []sweepOutcome{
		{Cell: zooCell{Model: "mlp", Arch: "puma", Level: cimmlc.CM}},
		{Cell: long, Err: errors.New("boom")},
	}
	var sum bytes.Buffer
	if bad := summarizeSweep(&sum, "test sweep", outcomes); bad != 1 {
		t.Fatalf("summarizeSweep = %d failures, want 1", bad)
	}
	lines := strings.Split(strings.TrimRight(sum.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("summary has %d lines, want 4:\n%s", len(lines), sum.String())
	}
	want := len(long.Key()) + 1
	checks := map[string]string{lines[1]: "result", lines[2]: "ok", lines[3]: "FAIL: boom"}
	for line, result := range checks {
		if idx := strings.Index(line, result); idx != want {
			t.Errorf("line %q: result column at %d, want %d", line, idx, want)
		}
	}
}

// TestSummarizeSweepAllOK keeps the happy path quiet: one line, zero exit.
func TestSummarizeSweepAllOK(t *testing.T) {
	var sum bytes.Buffer
	outcomes := []sweepOutcome{{Cell: zooCell{Model: "m", Arch: "a", Level: cimmlc.CM}}}
	if bad := summarizeSweep(&sum, "test sweep", outcomes); bad != 0 {
		t.Fatalf("summarizeSweep = %d, want 0", bad)
	}
	if got := sum.String(); got != "test sweep: all 1 cells ok\n" {
		t.Fatalf("summary = %q", got)
	}
}

// TestShortZooCellsPolicy pins the sweep matrix shape: 63 cells (seven
// models, two of them mixed host/CIM graphs), exec models uncapped, large
// models window-capped so the sweep (and the analyze golden) stays fast.
func TestShortZooCellsPolicy(t *testing.T) {
	cells := shortZooCells()
	if len(cells) != 63 {
		t.Fatalf("short zoo has %d cells, want 63", len(cells))
	}
	caps := map[string]int64{}
	for _, c := range cells {
		caps[c.Model] = c.WinCap
	}
	for _, m := range []string{"conv-relu", "mlp", "lenet5", "conv-gate", "mlp-sig"} {
		if caps[m] != 0 {
			t.Errorf("exec model %s capped at %d windows, want full emission", m, caps[m])
		}
	}
	for _, m := range []string{"vgg7", "vit-tiny"} {
		if caps[m] == 0 {
			t.Errorf("large model %s uncapped; the sweep would take minutes", m)
		}
	}
}
