package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"cimmlc"
)

// size scales a workload. full is what the benchmark measures; smoke is the
// ~1 % size TestSmoke runs so the driver cannot rot unnoticed.
type size struct {
	ZooModels  []string // compile-zoo grid rows
	Inputs     int      // distinct seeded inputs per cell or pair
	SetupReps  int      // fresh set-ups per run (compile-zoo's is so short it gets 3x as many)
	MinRounds  int      // timed rounds run even when the time budget is spent
	WarmupReqs int      // serve-*: untimed requests before the clock starts
}

var (
	full = size{
		ZooModels: []string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"},
		Inputs:    64, SetupReps: 9, MinRounds: 3, WarmupReqs: 300,
	}
	smoke = size{
		ZooModels: []string{"lenet5", "vgg7"},
		Inputs:    4, SetupReps: 1, MinRounds: 1, WarmupReqs: 8,
	}
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	Seed    uint64
	Seconds float64 // timed length
	Trace   bool
	OutDir  string // where span files go
	Size    size

	// corrupt, when set, mutates every timed exec-* output before it is
	// checked. Tests use it to prove a wrong output lands in Failed.
	corrupt func(out map[int]*cimmlc.Tensor)
}

func (c runConfig) budget() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// Measured is one metric value with the number of samples behind it.
type Measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Row is one cell's (or pair's) timing, kept so that a gain for one cell that
// costs another stays visible behind the geometric mean.
type Row struct {
	Cell string `json:"cell"`
	// What is the timed operation: "compile", "run", "runbatch64", "roundtrip"
	// or a traced stage name.
	What   string             `json:"what"`
	Unit   string             `json:"unit"`
	Dist   dist               `json:"dist"`
	Detail map[string]float64 `json:"detail,omitempty"`
}

// WorkloadResult is one run of one workload: untraced runs fill Metrics with
// every end-to-end metric, traced runs with every per-layer metric.
type WorkloadResult struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]Measured `json:"metrics"`
	Rows      []Row               `json:"rows"`
	// Counts are the operation counts of the run (rounds, passes, requests,
	// clients), so two result files can be checked for equal work.
	Counts map[string]int `json:"counts"`
	// GeneratorCPUShare is, on serve-*, the share of client goroutine time
	// spent outside waiting for the server; near 1 means the generator, not
	// the gateway, was the bottleneck.
	GeneratorCPUShare float64  `json:"generator_cpu_share,omitempty"`
	Errors            []string `json:"errors,omitempty"`
}

func newResult(name string, traced bool) *WorkloadResult {
	return &WorkloadResult{Workload: name, Traced: traced, Metrics: map[string]Measured{}, Counts: map[string]int{}}
}

// fail records one failed operation, keeping the first few messages.
func (r *WorkloadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// set stores a metric under its spec'd unit; an unknown name is a bug.
func (r *WorkloadResult) set(name string, v float64, n int) {
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	for _, m := range specs {
		if m.Name == name {
			r.Metrics[name] = Measured{Value: v, Unit: m.Unit, N: n}
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}

// fillMissing reports every spec'd metric the run did not produce as 0 —
// traced runs only: a per-layer metric of a layer the workload never enters.
func (r *WorkloadResult) fillMissing() {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Metrics[m.Name] = Measured{Unit: m.Unit}
		}
	}
}

// contractLine is the last line of a single-workload run.
func (r *WorkloadResult) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(data)
}

// setup runs build reps times, tearing down every environment but the last,
// and stores the median build time as setup_s and the heap the kept
// environment holds after two forced collections as setup_heap_mb.
func setup[T any](r *WorkloadResult, reps int, build func() (T, error), teardown func(T)) (T, error) {
	var env T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(env)
		}
		runtime.GC()
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if !r.Traced {
		r.set("setup_s", median(times), len(times))
		r.set("setup_heap_mb", float64(ms.HeapAlloc)/(1<<20), 1)
	}
	r.Counts["setups"] = reps
	return env, nil
}

// Env records where a result file was measured.
type Env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func currentEnv(seed uint64, seconds float64) Env {
	e := Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// ResultFile is what a full run writes: one set per repeat, each holding one
// result per workload, plus the spread of every end-to-end metric across the
// sets when there are several.
type ResultFile struct {
	Schema int                           `json:"schema"`
	Env    Env                           `json:"env"`
	Note   string                        `json:"note"`
	Sets   [][]*WorkloadResult           `json:"sets"`
	Spread map[string]map[string]float64 `json:"spread,omitempty"`
}

const simNote = "sim_* come from the perfsim model, unvalidated against silicon: they compare two commits of one model, not a chip"

// values collects one end-to-end metric of one workload across the sets.
func (f *ResultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, set := range f.Sets {
		for _, r := range set {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// failRatio is failed over attempted operations of one workload, all sets.
func (f *ResultFile) failRatio(workload string) float64 {
	failed, attempted := 0, 0
	for _, set := range f.Sets {
		for _, r := range set {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func (f *ResultFile) computeSpread() {
	if len(f.Sets) < 2 {
		return
	}
	f.Spread = map[string]map[string]float64{}
	for _, w := range workloads {
		f.Spread[w.Name] = map[string]float64{}
		for _, m := range endToEnd {
			if vs := f.values(w.Name, m.Name); len(vs) > 1 {
				f.Spread[w.Name][m.Name] = spread(vs)
			}
		}
	}
}

func (f *ResultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.Better == higher {
		d = -d
	}
	return d
}
