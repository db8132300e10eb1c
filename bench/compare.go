package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one (workload, end-to-end metric) of B set against A.
type compareRow struct {
	Workload, Metric, Unit string
	Bound                  float64
	A, B                   dist    // median and quartiles across each file's sets
	Ratio                  float64 // B's median over A's: the base is A
	Verdict                string
}

// compare sets result file b against a: one row per workload and end-to-end
// metric, judged by the metric's own bound and direction. A spread wider than
// the bound on either side leaves the row unresolved, unless every run of b
// reads better than every run of a. failWorse lists the workloads whose share
// of failed operations rose. It is a pure function of the two files.
func compare(a, b *ResultFile) (rows []compareRow, failWorse []string) {
	for _, w := range workloads {
		if b.failRatio(w.Name) > a.failRatio(w.Name) {
			failWorse = append(failWorse, w.Name)
		}
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := compareRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, A: summarize(va), B: summarize(vb)}
			if row.A.P50 != 0 {
				row.Ratio = row.B.P50 / row.A.P50
			}
			worse := worsening(m, row.A.P50, row.B.P50)
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				row.Verdict = verdictUnresolved
				if allBetter(m, va, vb) {
					row.Verdict = verdictBetter
				}
			case worse > m.Bound:
				row.Verdict = verdictWorse
			case worse < -m.Bound:
				row.Verdict = verdictBetter
			default:
				row.Verdict = verdictSame
			}
			rows = append(rows, row)
		}
	}
	return rows, failWorse
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(m metricSpec, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if m.Better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// printCompare writes the rows as a table and returns whether the comparison
// passes: no row worse, no workload failing more.
func printCompare(w io.Writer, rows []compareRow, failWorse []string) bool {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB/A (base A)\tbound\tverdict")
	ok := len(failWorse) == 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.4f\t%g\t%s\n",
			r.Workload, r.Metric, r.Unit, r.A.P50, r.A.Q1, r.A.Q3, r.B.P50, r.B.Q1, r.B.Q3, r.Ratio, r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			ok = false
		}
	}
	tw.Flush()
	for _, name := range failWorse {
		fmt.Fprintf(w, "%s: a larger share of operations failed in B\n", name)
	}
	return ok
}
