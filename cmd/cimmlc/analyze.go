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
	var (
		modelName = fs.String("model", "", "zoo model name (see -list)")
		modelFile = fs.String("model-file", "", "graph JSON file (alternative to -model)")
		archName  = fs.String("arch", "", "preset architecture name")
		archFile  = fs.String("arch-file", "", "architecture JSON file (alternative to -arch)")
		maxLevel  = fs.String("max-level", "", "cap optimization level (CM, XBM or WLM)")
		maxWin    = fs.Int64("max-windows", 0, "cap emitted window blocks per operator (0 = all; capped flows get a counts-only report)")
		asJSON    = fs.Bool("json", false, "emit the report as stable JSON instead of text")
		zoo       = fs.Bool("zoo", false, "analyze every cell of the short conformance matrix")
		golden    = fs.String("golden", "", "with -zoo: committed golden file to diff the reports against")
		update    = fs.Bool("update", false, "with -zoo -golden: merge this run's reports into the golden file instead of diffing")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cimmlc analyze -model <m> -arch <a> [-json] | cimmlc analyze -zoo [-json] [-golden file [-update]]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	ctx, stop := signalContext()
	defer stop()

	if *zoo {
		os.Exit(analyzeZoo(ctx, *asJSON, *golden, *update))
	}

	g, err := loadModel(*modelName, *modelFile)
	if err != nil {
		fatal(err)
	}
	a, err := loadArch(*archName, *archFile)
	if err != nil {
		fatal(err)
	}
	level, err := parseMaxLevel(*maxLevel)
	if err != nil {
		fatal(err)
	}
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

// analyzeZoo sweeps the short conformance matrix, optionally diffing against
// (or refreshing) the committed golden file. Like vet -zoo, a failing cell
// never aborts the sweep.
func analyzeZoo(ctx context.Context, asJSON bool, goldenPath string, update bool) int {
	reports := map[string]cimmlc.FlowReport{}
	outcomes := sweepZoo(os.Stderr, shortZooCells(), func(cell zooCell) error {
		g, err := cimmlc.Model(cell.Model)
		if err != nil {
			return err
		}
		a, err := cimmlc.Preset(cell.Arch)
		if err != nil {
			return err
		}
		rep, err := analyzeCell(ctx, g, a, cell.Level, cell.WinCap)
		if err != nil {
			return err
		}
		reports[cell.Key()] = *rep
		return nil
	})
	bad := summarizeSweep(os.Stderr, "cimmlc analyze -zoo", outcomes)

	switch {
	case goldenPath != "" && update:
		if bad > 0 {
			fmt.Fprintln(os.Stderr, "cimmlc analyze: refusing to -update goldens from a failing sweep")
			return 1
		}
		existing, err := flowdata.LoadReportGolden(goldenPath)
		if err != nil {
			fatal(err)
		}
		if err := flowdata.SaveReportGolden(goldenPath, flowdata.MergeReportGolden(existing, reports)); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cimmlc analyze: wrote %d reports to %s\n", len(reports), goldenPath)
	case goldenPath != "":
		want, err := flowdata.LoadReportGolden(goldenPath)
		if err != nil {
			fatal(err)
		}
		bad += diffAgainstGolden(reports, want, outcomes)
	}

	if asJSON {
		printJSON(reports)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// diffAgainstGolden compares this sweep's reports against the committed map
// and prints field-level drift; cells that failed to analyze are skipped
// (their failure is already counted). Returns the number of drifted or
// missing cells.
func diffAgainstGolden(got map[string]cimmlc.FlowReport, want map[string]cimmlc.FlowReport, outcomes []sweepOutcome) int {
	bad := 0
	for _, o := range outcomes {
		if o.Err != nil {
			continue
		}
		key := o.Cell.Key()
		g, ok := got[key]
		if !ok {
			continue
		}
		w, ok := want[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "DRIFT %s: no golden entry (regenerate with `cimmlc analyze -zoo -golden <file> -update`)\n", key)
			bad++
			continue
		}
		diffs := flowdata.DiffReports(g, w)
		if len(diffs) > 0 {
			bad++
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "DRIFT %s: %s\n", key, d)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "cimmlc analyze: %d cell(s) drifted from %s\n", bad, "golden")
	}
	return bad
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
