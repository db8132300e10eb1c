package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cimmlc"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments_golden.json with this run's tables")

// goldenPath is the committed experiments golden, from this package's
// directory.
var goldenPath = filepath.FromSlash("../../testdata/experiments_golden.json")

// TestExperimentsGolden regenerates every experiment and holds each table to
// the committed golden, which is `cimbench -json`'s output: a change that
// moves a figure shows here value by value, and -update writes the tables as
// they are.
func TestExperimentsGolden(t *testing.T) {
	var tables []*cimmlc.ExperimentTable
	for _, id := range cimmlc.ExperimentIDs() {
		tb, err := cimmlc.Experiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tables = append(tables, tb)
	}
	if *update {
		var b bytes.Buffer
		if err := writeJSON(&b, tables); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden []*cimmlc.ExperimentTable
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(golden) != len(tables) {
		t.Errorf("the golden holds %d tables, cimbench makes %d", len(golden), len(tables))
	}
	drifted := 0
	for i, got := range tables {
		if i >= len(golden) {
			break
		}
		want := golden[i]
		if got.ID != want.ID || got.Title != want.Title || !slices.Equal(got.Columns, want.Columns) ||
			!slices.Equal(got.Notes, want.Notes) || len(got.Rows) != len(want.Rows) {
			t.Errorf("%s: the table's shape or text differs from the golden's %s", got.ID, want.ID)
			drifted++
			continue
		}
		for r, row := range got.Rows {
			w := want.Rows[r]
			if row.Label != w.Label || !slices.Equal(row.Values, w.Values) {
				t.Errorf("%s row %d: golden %q %v, got %q %v", got.ID, r, w.Label, w.Values, row.Label, row.Values)
				drifted++
			}
		}
	}
	if drifted > 0 {
		t.Errorf("%d table(s) or row(s) drifted; regenerate with `go test ./cmd/cimbench -update` and list the moved rows", drifted)
	}
}
