package main

import (
	"bytes"
	"strings"
	"testing"
)

// fileWith builds a result file whose exec-single sets report the given
// op_ms_gm and ops_per_s values, one set per value, with `failed` failed
// operations out of 100 in every set.
func fileWith(opMS, opsPerS []float64, failed int) *ResultFile {
	f := &ResultFile{Schema: 1}
	for i := range opMS {
		r := newResult("exec-single", false)
		r.Attempted, r.Failed = 100, failed
		r.set("op_ms_gm", opMS[i], 1)
		r.set("ops_per_s", opsPerS[i], 1)
		f.Sets = append(f.Sets, []*WorkloadResult{r})
	}
	return f
}

func TestCompare(t *testing.T) {
	base := fileWith([]float64{1.00, 1.01, 0.99}, []float64{1000, 1010, 990}, 0)
	cases := []struct {
		name    string
		b       *ResultFile
		latency string // verdict for op_ms_gm (lower is better, bound 25 %)
		rate    string // verdict for ops_per_s (higher is better, bound 25 %)
		pass    bool
	}{
		{"identical", fileWith([]float64{1.00, 1.01, 0.99}, []float64{1000, 1010, 990}, 0), verdictSame, verdictSame, true},
		{"within the bound", fileWith([]float64{1.15, 1.16, 1.14}, []float64{860, 850, 870}, 0), verdictSame, verdictSame, true},
		{"latency worse", fileWith([]float64{1.40, 1.41, 1.39}, []float64{1000, 1010, 990}, 0), verdictWorse, verdictSame, false},
		{"rate worse means lower", fileWith([]float64{1.00, 1.01, 0.99}, []float64{700, 710, 690}, 0), verdictSame, verdictWorse, false},
		{"both better", fileWith([]float64{0.60, 0.61, 0.59}, []float64{1400, 1410, 1390}, 0), verdictBetter, verdictBetter, true},
		{"spread wider than the bound", fileWith([]float64{0.7, 1.0, 1.4}, []float64{1000, 1010, 990}, 0), verdictUnresolved, verdictSame, true},
		{"wide spread, yet every run better", fileWith([]float64{0.4, 0.6, 0.8}, []float64{1000, 1010, 990}, 0), verdictBetter, verdictSame, true},
		{"more failures", fileWith([]float64{1.00, 1.01, 0.99}, []float64{1000, 1010, 990}, 1), verdictSame, verdictSame, false},
	}
	for _, c := range cases {
		rows, failWorse := compare(base, c.b)
		got := map[string]compareRow{}
		for _, r := range rows {
			if r.Workload != "exec-single" {
				t.Errorf("%s: row for %s, which neither file ran", c.name, r.Workload)
			}
			got[r.Metric] = r
		}
		if len(got) != 2 {
			t.Errorf("%s: %d rows, want the 2 metrics both files hold", c.name, len(got))
		}
		if v := got["op_ms_gm"].Verdict; v != c.latency {
			t.Errorf("%s: op_ms_gm verdict %q, want %q", c.name, v, c.latency)
		}
		if v := got["ops_per_s"].Verdict; v != c.rate {
			t.Errorf("%s: ops_per_s verdict %q, want %q", c.name, v, c.rate)
		}
		var out bytes.Buffer
		if pass := printCompare(&out, rows, failWorse); pass != c.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", c.name, pass, c.pass, out.String())
		}
		if !strings.Contains(out.String(), "base A") {
			t.Errorf("%s: the ratio column does not name its base", c.name)
		}
	}

	// The ratio is B over A, whatever the direction.
	rows, _ := compare(base, fileWith([]float64{1.20, 1.20, 1.20}, []float64{500, 500, 500}, 0))
	for _, r := range rows {
		want := map[string]float64{"op_ms_gm": 1.2, "ops_per_s": 0.5}[r.Metric]
		if !near(r.Ratio, want) {
			t.Errorf("%s ratio %g, want %g", r.Metric, r.Ratio, want)
		}
	}
}

func TestSetsAgree(t *testing.T) {
	var out bytes.Buffer
	if !setsAgree(&out, fileWith([]float64{1.00, 1.15}, []float64{1000, 860}, 0)) {
		t.Errorf("two sets 15 %% apart must agree under a 25 %% bound:\n%s", out.String())
	}
	if setsAgree(&out, fileWith([]float64{1.00, 1.30}, []float64{1000, 1000}, 0)) {
		t.Error("two sets 30 % apart must not agree under a 25 % bound")
	}
	if setsAgree(&out, fileWith([]float64{1.00, 1.00}, []float64{1000, 700}, 0)) {
		t.Error("a rate 30 % lower must not agree under a 25 % bound")
	}
	// Three or more sets are judged by their spread, not their range.
	out.Reset()
	same := []float64{1000, 1000, 1000, 1000, 1000, 1000, 1000}
	if !setsAgree(&out, fileWith([]float64{1.0, 1.02, 1.05, 1.0, 1.03, 1.04, 1.6}, same, 0)) {
		t.Errorf("one slow set in seven must not fail a 25 %% bound:\n%s", out.String())
	}
	if setsAgree(&out, fileWith([]float64{1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0}, same, 0)) {
		t.Error("seven sets with a 50 % spread must not agree")
	}
}
