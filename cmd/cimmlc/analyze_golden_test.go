package main

import (
	"context"
	"flag"
	"io"
	"path/filepath"
	"testing"

	"cimmlc/internal/flowdata"
)

var update = flag.Bool("update", false, "rewrite testdata/analyze_golden.json with this sweep's reports")

// goldenPath is the committed analyze golden, from this package's directory.
var goldenPath = filepath.FromSlash("../../testdata/analyze_golden.json")

// TestAnalyzeGolden runs the short-zoo sweep behind `cimmlc vet -zoo` and
// `cimmlc analyze -zoo` and holds every report to the committed golden,
// which must hold exactly the sweep's cells; -update writes the reports as
// they are.
func TestAnalyzeGolden(t *testing.T) {
	reports, bad := sweepShortZoo(context.Background(), io.Discard, "analyze golden sweep")
	if bad > 0 {
		t.Fatalf("%d of %d cells failed to analyze", bad, len(shortZooCells()))
	}
	if *update {
		if err := flowdata.SaveReportGolden(goldenPath, reports); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := flowdata.LoadReportGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	drift, drifted := goldenDrift(reports, golden)
	for _, d := range drift {
		t.Error(d)
	}
	if drifted > 0 || len(golden) != len(reports) {
		t.Errorf("%d cell(s) drifted; the golden holds %d cells, the sweep %d; regenerate with `cimmlc analyze -zoo -golden testdata/analyze_golden.json -update`",
			drifted, len(golden), len(reports))
	}
}
