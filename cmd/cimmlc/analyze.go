package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cimmlc"
	"cimmlc/internal/flowdata"
)

// runAnalyze implements `cimmlc analyze`: lower one cell (or the short zoo)
// and emit the static dataflow resource report — MOP counts by class and
// mnemonic, transfer volume, layout and scratch footprint, liveness peaks
// and the live-range pressure histogram — as text or stable JSON.
//
//	cimmlc analyze -model mlp -arch puma              one cell, text report
//	cimmlc analyze -model mlp -arch puma -json        same, golden-format JSON
//	cimmlc analyze -zoo -json                         every short-zoo cell
//	cimmlc analyze -zoo -golden testdata/analyze_golden.json          CI diff
//	cimmlc analyze -zoo -golden testdata/analyze_golden.json -update  refresh
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	cf := declareCellFlags(fs, true, true)
	var (
		maxWin = fs.Int64("max-windows", 0, "cap emitted window blocks per operator (0 = all; capped flows get a counts-only report)")
		asJSON = fs.Bool("json", false, "emit the report as stable JSON instead of text")
		zoo    = fs.Bool("zoo", false, "analyze every cell of the short conformance matrix")
		golden = fs.String("golden", "", "with -zoo: committed golden file to diff the reports against")
		update = fs.Bool("update", false, "with -zoo -golden: write this run's reports to the golden file instead of diffing")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cimmlc analyze -model <m> -arch <a> [-json] | cimmlc analyze -zoo [-json] [-golden file [-update]]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if (!*zoo && (*golden != "" || *update)) || (*update && *golden == "") {
		fs.Usage()
		os.Exit(2)
	}

	ctx, stop := signalContext()
	defer stop()

	if *zoo {
		os.Exit(analyzeZoo(ctx, *asJSON, *golden, *update))
	}

	g, a, level := cf.load()
	rep, err := analyzeCell(ctx, g, a, level, *maxWin)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(map[string]*cimmlc.FlowReport{flowdata.ReportKey(rep.Model, rep.Arch, rep.Level): rep})
		return
	}
	printAnalyzeText(rep)
}

// analyzeCell compiles one cell at the given level cap (empty = native) with
// verification after every pass, lowers and verifies each CIM stage's flow,
// then runs the dataflow analysis and returns the report; `cimmlc vet` is
// this with the report discarded. maxWindows caps emission for large models;
// a capped (truncated) flow still gets its structural checks.
func analyzeCell(ctx context.Context, g *cimmlc.Graph, a *cimmlc.Arch, level cimmlc.Mode, maxWindows int64) (*cimmlc.FlowReport, error) {
	// Host fallback is on so mixed models analyze and vet too; fully
	// supported models compile monolithically either way.
	opts := []cimmlc.Option{cimmlc.WithVerifyIR(), cimmlc.WithCache(0), cimmlc.WithHostFallback()}
	if level != "" {
		opts = append(opts, cimmlc.WithMaxLevel(level))
	}
	c, err := cimmlc.New(a, opts...)
	if err != nil {
		return nil, err
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		return nil, err
	}
	return c.Analyze(ctx, g, res, cimmlc.CodegenOptions{MaxWindowsPerOp: maxWindows})
}

// analyzeZoo sweeps the short conformance matrix, optionally diffing the
// reports against (or writing them to) the golden file. Like vet -zoo, a
// failing cell never aborts the sweep.
func analyzeZoo(ctx context.Context, asJSON bool, goldenPath string, update bool) int {
	reports, bad := sweepShortZoo(ctx, os.Stderr, "cimmlc analyze -zoo")
	switch {
	case update:
		if bad > 0 {
			fmt.Fprintln(os.Stderr, "cimmlc analyze: refusing to -update goldens from a failing sweep")
			return 1
		}
		if err := flowdata.SaveReportGolden(goldenPath, reports); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cimmlc analyze: wrote %d reports to %s\n", len(reports), goldenPath)
	case goldenPath != "":
		want, err := flowdata.LoadReportGolden(goldenPath)
		if err != nil {
			fatal(err)
		}
		drift, drifted := goldenDrift(reports, want)
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "DRIFT "+d)
		}
		if drifted > 0 {
			fmt.Fprintf(os.Stderr, "cimmlc analyze: %d cell(s) drifted from %s\n", drifted, goldenPath)
		}
		bad += drifted
	}

	if asJSON {
		printJSON(reports)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// goldenDrift compares a sweep's reports with the golden in sweep order. It
// returns one "cell: difference" line per drifted field or missing golden
// entry, and the number of cells that drifted. A cell the sweep could not
// analyze has no report and is skipped: its failure is already counted.
func goldenDrift(reports, golden map[string]cimmlc.FlowReport) (drift []string, cells int) {
	for _, cell := range shortZooCells() {
		key := cell.Key()
		got, ok := reports[key]
		if !ok {
			continue
		}
		want, ok := golden[key]
		diffs := []string{"no golden entry (regenerate with `cimmlc analyze -zoo -golden <file> -update`)"}
		if ok {
			diffs = flowdata.DiffReports(got, want)
		}
		if len(diffs) > 0 {
			cells++
		}
		for _, d := range diffs {
			drift = append(drift, key+": "+d)
		}
	}
	return drift, cells
}

// printJSON writes stable JSON to stdout.
func printJSON(v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

// printAnalyzeText renders one report for humans.
func printAnalyzeText(r *cimmlc.FlowReport) {
	fmt.Printf("cell:            %s × %s @ %s\n", r.Model, r.Arch, r.Level)
	if r.Truncated {
		fmt.Println("note:            window emission capped; counts-only report (liveness facts need the full flow)")
	}
	fmt.Printf("mops:            %d total (cim %d, dcom %d, dmov %d, parallel %d)\n",
		r.MOPs.Total, r.MOPs.CIM, r.MOPs.DCOM, r.MOPs.DMOV, r.MOPs.Parallel)
	fmt.Println("op counts:")
	for _, oc := range r.OpCounts {
		fmt.Printf("  %-14s %d\n", oc.Op, oc.Count)
	}
	fmt.Printf("transfer words:  %d\n", r.TransferWords)
	fmt.Printf("layout words:    %d (scratch %d)\n", r.LayoutWords, r.ScratchWords)
	if !r.Truncated {
		fmt.Printf("peak live:       %d scratch words, %d regions, %d crossbars\n",
			r.PeakLiveScratchWords, r.PeakLiveRegions, r.PeakLiveCrossbars)
		fmt.Printf("dead mops:       %d   redundant transfers: %d\n", r.DeadMOPs, r.RedundantTransfers)
		fmt.Println("live-range pressure (instrs at N live regions):")
		for _, b := range r.Pressure {
			fmt.Printf("  %-6s %d\n", b.Bucket, b.Instrs)
		}
	}
	if p := r.Partition; p != nil {
		fmt.Printf("partition:       %d subgraphs (%d cim nodes, %d host nodes)\n",
			p.Subgraphs, p.CIMNodes, p.HostNodes)
		fmt.Printf("  transfers:     %d cut edges, %d elements over the host link\n",
			p.Transfers, p.TransferElems)
		fmt.Printf("  host ops:      %d\n", p.HostOps)
		fmt.Printf("  cycles:        cim %.0f + host %.0f + transfer %.0f = %.0f\n",
			p.CIMCycles, p.HostCycles, p.TransferCycles, p.CIMCycles+p.HostCycles+p.TransferCycles)
	}
}
