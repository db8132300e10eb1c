package cimmlc_test

import (
	"context"
	"flag"
	"path/filepath"
	"testing"

	"cimmlc"
	"cimmlc/internal/flowdata"
)

var updateAnalyze = flag.Bool("update", false, "rewrite testdata/analyze_golden.json with this run's reports")

const analyzeGoldenPath = "testdata/analyze_golden.json"

// TestAnalyzeGolden sweeps Compiler.Analyze over the short zoo (full flows
// for the exec models, window-capped counts-only reports for the large ones)
// and compares every report against the committed golden; -update merges
// this run's reports into the file, mirroring the conformance golden flow.
func TestAnalyzeGolden(t *testing.T) {
	ctx := context.Background()
	models := []string{"conv-relu", "mlp", "lenet5", "vgg7", "vit-tiny"}
	full := map[string]bool{"conv-relu": true, "mlp": true, "lenet5": true}

	reports := map[string]flowdata.Report{}
	for _, mn := range models {
		for _, an := range []string{"isaac-baseline", "puma", "toy-table2"} {
			for _, lv := range []cimmlc.Mode{cimmlc.CM, cimmlc.XBM, cimmlc.WLM} {
				g, err := cimmlc.Model(mn)
				if err != nil {
					t.Fatal(err)
				}
				a, err := cimmlc.Preset(an)
				if err != nil {
					t.Fatal(err)
				}
				c, err := cimmlc.New(a, cimmlc.WithCache(0), cimmlc.WithVerifyIR(), cimmlc.WithMaxLevel(lv))
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Compile(ctx, g)
				if err != nil {
					t.Fatalf("%s/%s/%s compile: %v", mn, an, lv, err)
				}
				var winCap int64 = 2
				if full[mn] {
					winCap = 0
				}
				rep, err := c.Analyze(ctx, g, res, cimmlc.CodegenOptions{MaxWindowsPerOp: winCap})
				if err != nil {
					t.Fatalf("%s/%s/%s analyze: %v", mn, an, lv, err)
				}
				if !rep.Truncated && rep.Problems > 0 {
					t.Errorf("%s/%s/%s: analysis reports %d problems on a verified flow", mn, an, lv, rep.Problems)
				}
				reports[flowdata.ReportKey(mn, an, string(lv))] = *rep
			}
		}
	}

	path := filepath.FromSlash(analyzeGoldenPath)
	if *updateAnalyze {
		if t.Failed() {
			t.Fatal("refusing to -update analyze goldens from a failing sweep")
		}
		existing, err := flowdata.LoadReportGolden(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := flowdata.SaveReportGolden(path, flowdata.MergeReportGolden(existing, reports)); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := flowdata.LoadReportGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	for key, rep := range reports {
		want, ok := golden[key]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with `go test . -run TestAnalyzeGolden -update`)", key)
			continue
		}
		for _, d := range flowdata.DiffReports(rep, want) {
			t.Errorf("%s: golden drift: %s", key, d)
		}
	}
}
