// Command bench is the repository's benchmark: five workloads from
// Compiler.Compile to /v1/run, each checked against an independent reference,
// reporting the end-to-end metrics of spec.go with tracing off and the
// per-layer metrics with tracing on. See README.md beside this file.
//
// Run it through run.sh from the root of the checkout:
//
//	bash bench/run.sh --seed 1                      # all workloads, writes bench/results/latest.json
//	bash bench/run.sh --trace 1                     # per-layer metrics and span files
//	bash bench/run.sh --repeat 2                    # two sets, must agree within the bounds
//	bash bench/run.sh --workload exec-single --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --compare A.json B.json
//
// With a single --workload the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// runSeconds is the timed length of one run, BENCHMARK.json's run_seconds.
const runSeconds = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", runSeconds, "timed length of each workload")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	repeat := fs.Int("repeat", 1, "with all workloads: number of sets; two or more must agree within the bounds")
	out := fs.String("out", filepath.Join("bench", "results"), "directory for result and span files")
	result := fs.String("result", "", "result file name inside -out (default latest.json, or latest-trace.json with -trace 1)")
	cmp := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out, Size: full}

	if *workload != "all" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		res, err := w.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		printResult(stdout, res)
		fmt.Fprintln(stdout, res.contractLine())
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	file := &ResultFile{Schema: 1, Env: currentEnv(*seed, *seconds), Note: simNote}
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		set := make([]*WorkloadResult, len(workloads))
		for k := range workloads {
			i := k
			if rep%2 == 1 {
				i = len(workloads) - 1 - k // alternate the order, so drift does not favour one workload
			}
			res, err := workloads[i].Run(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", workloads[i].Name, err)
				return 1
			}
			printResult(stdout, res)
			failed = failed || res.Failed > 0
			set[i] = res
		}
		file.Sets = append(file.Sets, set)
	}
	file.computeSpread()
	name := *result
	if name == "" {
		name = "latest.json"
		if cfg.Trace {
			name = "latest-trace.json"
		}
	}
	path := filepath.Join(*out, name)
	if err := file.write(path); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if !cfg.Trace && !setsAgree(stdout, file) {
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// setsAgree checks every end-to-end metric across the sets of one invocation:
// two sets may differ by at most the metric's bound; of three or more, the
// spread (inter-quartile distance over median, the rule ten runs of the
// contract's driver are held to) may be at most the bound.
func setsAgree(w io.Writer, f *ResultFile) bool {
	ok := true
	for _, wl := range workloads {
		for _, m := range endToEnd {
			vs := sorted(f.values(wl.Name, m.Name))
			if len(vs) < 2 {
				continue
			}
			d := spread(vs)
			if len(vs) == 2 {
				lo, hi := vs[0], vs[1]
				if m.Better == higher {
					lo, hi = hi, lo // the better end is the base
				}
				d = worsening(m, lo, hi)
			}
			if d > m.Bound {
				fmt.Fprintf(w, "sets disagree: %s %s ranges %g..%g %s, %.1f%% apart, bound %.1f%%\n", wl.Name, m.Name, vs[0], vs[len(vs)-1], m.Unit, 100*d, 100*m.Bound)
				ok = false
			}
		}
	}
	return ok
}

func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files")
		return 2
	}
	a, err := readResultFile(paths[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResultFile(paths[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	rows, failWorse := compare(a, b)
	if !printCompare(stdout, rows, failWorse) {
		return 1
	}
	return 0
}

// printResult prints every metric of one run by name, with unit, direction,
// bound (end-to-end) or the metric it should move (per-layer), and the
// number of samples behind it; then the per-cell rows.
func printResult(w io.Writer, r *WorkloadResult) {
	mode, specs := "end-to-end, tracing off", endToEnd
	if r.Traced {
		mode, specs = "per-layer, tracing on", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s): attempted %d, failed %d, fail_ratio %g, counts %v\n", r.Workload, mode, r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Counts)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	if r.Traced {
		fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tn\tshould move")
	} else {
		fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tn\tbound")
	}
	for _, m := range specs {
		v, ok := r.Metrics[m.Name]
		if !ok || (r.Traced && v.N == 0) {
			continue // a layer this workload never enters
		}
		last := fmt.Sprintf("%g", m.Bound)
		if r.Traced {
			last = m.Moves
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t%s\n", m.Name, v.Value, m.Unit, m.Better, v.N, last)
	}
	tw.Flush()
	if r.GeneratorCPUShare > 0 {
		fmt.Fprintf(w, "generator CPU share %.3f\n", r.GeneratorCPUShare)
	}
	tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "cell\twhat\tunit\tn\tp50\tq1\tq3\ttail\tdetail")
	for _, row := range r.Rows {
		if row.Dist.N == 0 && len(row.Detail) == 0 {
			continue
		}
		keys := make([]string, 0, len(row.Detail))
		for k := range row.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var detail strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&detail, "%s=%.4g ", k, row.Detail[k])
		}
		d := row.Dist
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\tp%g=%.4g\t%s\n", row.Cell, row.What, row.Unit, d.N, d.P50, d.Q1, d.Q3, d.TailPct, d.Tail, detail.String())
	}
	tw.Flush()
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
}
