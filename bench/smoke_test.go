package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cimmlc"
)

func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{Seed: 7, Seconds: 0.05, Trace: trace, OutDir: t.TempDir(), Size: smoke}
}

// TestSmoke runs all five workloads at about 1 % size, untraced and traced,
// and requires every spec'd metric to be reported and no operation to fail.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, trace)
			res, err := w.Run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d: %v", w.Name, trace, res.Attempted, res.Failed, res.Errors)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
				if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if v := res.Metrics["trace.overhead_ratio"].Value; v <= 0 {
					t.Errorf("%s: trace.overhead_ratio = %g", w.Name, v)
				}
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s missing or in unit %q", w.Name, trace, m.Name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, m.Name, v.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || !line.Correct || len(line.Metrics) != len(specs) {
				t.Errorf("%s (trace %v): contract line %s: %v", w.Name, trace, res.contractLine(), err)
			}
		}
	}
}

// TestCorruptedOutputFails feeds every timed operation a deliberately
// corrupted output and requires each to count as failed and to contribute no
// latency.
func TestCorruptedOutputFails(t *testing.T) {
	cfg := smokeConfig(t, false)
	cfg.corrupt = func(out map[int]*cimmlc.Tensor) {
		for _, t := range out {
			t.Data()[0] += 1
		}
	}
	for _, w := range []string{"exec-single", "exec-batch"} {
		res, err := findWorkload(w).Run(cfg)
		if err == nil {
			t.Errorf("%s: a run whose every output is wrong must not report metrics", w)
		}
		timed := res.Counts["rounds"] * res.Counts["requests_per_round"]
		if timed == 0 || res.Failed != timed {
			t.Errorf("%s: %d timed operations, %d failed; every one must fail", w, timed, res.Failed)
		}
		if strings.Contains(res.contractLine(), `"correct":true`) {
			t.Errorf("%s: contract line reports correct", w)
		}
		for _, row := range res.Rows {
			if row.Dist.N != 0 {
				t.Errorf("%s: %s has %d latency samples from wrong outputs", w, row.Cell, row.Dist.N)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repo root in step with
// spec.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, spec %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, spec has %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d is %+v, spec %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s metric %s: bound mismatch", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestReadmeGlossary requires README.md to name every metric and workload.
func TestReadmeGlossary(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not explain %s", m.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not explain workload %s", w.Name)
		}
	}
}
