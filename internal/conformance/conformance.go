// Package conformance is the cross-level conformance harness: a matrix
// runner that sweeps (model zoo × architecture preset × computing-mode
// level) through the full compile → lower → place → simulate stack and
// checks four families of properties on every cell:
//
//  1. Bit-identity — all execution paths the system exposes (Program.Run,
//     concurrent Program.RunBatch, the serving Batcher, the HTTP /v1/run
//     gateway and a replicated serving fleet) produce identical
//     output bits for seeded inputs, and the functional simulation matches
//     the quantized reference executor (Program.Verify). Outputs are also
//     bit-identical across levels of the same machine: the scheduling
//     granularity may change the flow, never the arithmetic.
//
//  2. Metamorphic performance invariants — the paper's §4 claims as
//     executable properties: exposing a finer computing mode (CM → XBM →
//     WLM) never increases predicted latency; the optimized schedule never
//     loses to the unoptimized layer-serial baseline; growing the core grid
//     never increases latency; and compilation is strictly deterministic
//     (recompiling from scratch reproduces every metric bit-for-bit).
//
//  3. Golden snapshots — a compact per-cell digest (latency, energy, peak
//     power, crossbars, meta-operator counts, output hash) is compared
//     against committed goldens, so any behavioral drift in cg / mvm / vvm
//     / mapping / perfsim / funcsim fails loudly with a cell-level diff.
//
//  4. Autotune properties — recompiling the cell with WithAutoTune must
//     never exceed the heuristic latency, must be bit-deterministic across
//     independent tuned compilations, and (for executed cells) must
//     reproduce the untuned output bits exactly; across the matrix the
//     tuner must strictly improve some cells.
//
// Mixed models — graphs with host-only operators — are ordinary cells: host
// fallback follows from the model (cellOptions), so they compile into staged
// host/CIM programs and run every family above, and the exec battery also
// holds each staged program to the partition property (checkPartition).
//
// The harness runs as `go test ./internal/conformance` (short matrix under
// -short, full zoo otherwise).
package conformance

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

// Cell identifies one matrix point: a model compiled for an architecture
// preset whose computing mode is overridden to Level — the established way
// this stack exposes the same machine at different scheduling granularities
// (Table 1, Figure 16).
type Cell struct {
	Model string      `json:"model"`
	Arch  string      `json:"arch"`
	Level cimmlc.Mode `json:"level"`
}

// Key returns the canonical "model|arch|level" golden-map key.
func (c Cell) Key() string { return c.Model + "|" + c.Arch + "|" + string(c.Level) }

// MOPCounts are the generated flow's meta-operator counts, recorded for
// executed cells only (large models' flows are not materialized).
type MOPCounts struct {
	CIM      int `json:"cim"`
	DCOM     int `json:"dcom"`
	DMOV     int `json:"dmov"`
	Parallel int `json:"parallel"`
}

// Digest is the compact behavioral fingerprint of one cell. Every field is
// produced deterministically, so exact equality is the comparison.
type Digest struct {
	Cycles        float64    `json:"cycles"`
	Energy        float64    `json:"energy"`
	PeakPower     float64    `json:"peak_power"`
	PeakActiveXBs float64    `json:"peak_active_xbs"`
	ReloadCycles  float64    `json:"reload_cycles"`
	CoresUsed     int        `json:"cores_used"`
	XBsUsed       int        `json:"xbs_used"`
	Segments      int        `json:"segments"`
	MOPs          *MOPCounts `json:"mops,omitempty"`
	// OutputHash digests the outputs of every seeded request run through
	// the reference execution path (set for executed cells only).
	OutputHash string `json:"output_hash,omitempty"`
}

// diff returns human-readable field-level differences against want.
func (d Digest) diff(want Digest) []string {
	var out []string
	num := func(field string, got, want float64) {
		if got != want {
			out = append(out, fmt.Sprintf("%s: golden %v, got %v", field, want, got))
		}
	}
	num("cycles", d.Cycles, want.Cycles)
	num("energy", d.Energy, want.Energy)
	num("peak_power", d.PeakPower, want.PeakPower)
	num("peak_active_xbs", d.PeakActiveXBs, want.PeakActiveXBs)
	num("reload_cycles", d.ReloadCycles, want.ReloadCycles)
	num("cores_used", float64(d.CoresUsed), float64(want.CoresUsed))
	num("xbs_used", float64(d.XBsUsed), float64(want.XBsUsed))
	num("segments", float64(d.Segments), float64(want.Segments))
	switch {
	case d.MOPs == nil && want.MOPs != nil:
		out = append(out, "mops: golden has counts, run has none")
	case d.MOPs != nil && want.MOPs == nil:
		out = append(out, "mops: run has counts, golden has none")
	case d.MOPs != nil && want.MOPs != nil && *d.MOPs != *want.MOPs:
		out = append(out, fmt.Sprintf("mops: golden %+v, got %+v", *want.MOPs, *d.MOPs))
	}
	if d.OutputHash != want.OutputHash {
		out = append(out, fmt.Sprintf("output_hash: golden %q, got %q", want.OutputHash, d.OutputHash))
	}
	return out
}

// Config selects the matrix and which checks run on it.
type Config struct {
	// Models, Archs and Levels span the matrix. Levels must be ordered
	// coarse to fine (CM before XBM before WLM) for the level-monotonicity
	// check.
	Models []string
	Archs  []string
	Levels []cimmlc.Mode
	// ExecModels (and ExecArchs, empty meaning every arch) choose the cells
	// that also run the bit-identity battery; keep these to models whose
	// functional simulation is cheap.
	ExecModels []string
	ExecArchs  []string
	// Requests is how many seeded inference requests each executed cell
	// serves per path (minimum 2, so batching paths actually batch).
	Requests int
	// Seed derives weights and request tensors.
	Seed uint64
	// Workers bounds cell-level parallelism; <=0 uses GOMAXPROCS.
	Workers int
	// ScaleCheck enables the resource-monotonicity check (per model×arch:
	// doubling the core grid at the preset's native mode must not slow the
	// model down) for the models in ScaleModels (empty = all).
	ScaleCheck  bool
	ScaleModels []string
	// DeterminismBudget caps the recompile-and-compare determinism check:
	// cells whose first compilation took longer are only digested once
	// (0 = always recompile). The short matrix always recompiles.
	DeterminismBudget time.Duration
	// TuneCheck enables the autotune property family (see runTuneFamily)
	// for cells whose model is in TuneModels (empty = every model), under
	// the TuneBudget search bounds.
	TuneCheck  bool
	TuneModels []string
	TuneBudget cimmlc.Budget
	// PartitionCheck enables the multi-target property on executed cells: a
	// program is staged iff its model has host-only operators, a staged one
	// passes checkPartition, and rebuilding with WithHostFallback must cut
	// the graph as the reference build did and reproduce every output
	// bit-for-bit.
	PartitionCheck bool
	// Golden, when non-nil, is the expected digest per cell key; cells
	// missing from it are reported as violations (run with -update).
	Golden map[string]Digest
}

// CellResult records one cell's outcome.
type CellResult struct {
	Cell        Cell          `json:"cell"`
	Digest      Digest        `json:"digest"`
	Err         string        `json:"err,omitempty"`
	ExecChecked bool          `json:"exec_checked"`
	DetChecked  bool          `json:"det_checked"`
	TuneChecked bool          `json:"tune_checked"`
	CompileTime time.Duration `json:"compile_ns"`
	// NoOptCycles is the unoptimized layer-serial baseline latency for the
	// same machine, kept for the dominance check and the report.
	NoOptCycles float64 `json:"noopt_cycles"`
	// tuneImproved is set when the tuned schedule is strictly faster than
	// the heuristic one (see checkTuneImprovement).
	tuneImproved bool
}

// Result is the full matrix outcome. Violations collects every failed
// property as a readable one-line description; an empty slice means the
// matrix conforms.
type Result struct {
	Cells      []CellResult  `json:"cells"`
	Violations []string      `json:"violations"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// Digests returns the per-cell digests keyed like the golden file.
func (r *Result) Digests() map[string]Digest {
	out := make(map[string]Digest, len(r.Cells))
	for _, c := range r.Cells {
		if c.Err == "" {
			out[c.Cell.Key()] = c.Digest
		}
	}
	return out
}

// Run sweeps the matrix. Cells run in parallel (the compilers and programs
// involved are concurrency-safe; that is part of what the harness proves),
// cross-cell invariants and golden comparison run after the sweep.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Models) == 0 || len(cfg.Archs) == 0 || len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("conformance: config must name models, archs and levels")
	}
	if cfg.Requests < 2 {
		cfg.Requests = 2
	}
	start := time.Now()

	var cells []Cell
	for _, m := range cfg.Models {
		for _, a := range cfg.Archs {
			for _, l := range cfg.Levels {
				cells = append(cells, Cell{Model: m, Arch: a, Level: l})
			}
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]CellResult, len(cells))
	violations := newViolationSet()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cells) || ctx.Err() != nil {
					return
				}
				results[i] = runCell(ctx, cells[i], cfg, violations)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	checkCrossCell(results, cfg, violations)
	checkTuneImprovement(results, violations)
	if cfg.ScaleCheck {
		runScaleChecks(ctx, cfg, results, violations)
	}
	if cfg.Golden != nil {
		compareGolden(results, cfg.Golden, violations)
	}

	res := &Result{Cells: results, Violations: violations.sorted(), Elapsed: time.Since(start)}
	sort.Slice(res.Cells, func(i, j int) bool {
		a, b := res.Cells[i].Cell, res.Cells[j].Cell
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		return levelRank(a.Level) < levelRank(b.Level)
	})
	return res, nil
}

// levelRank orders computing modes coarse to fine for display.
func levelRank(m cimmlc.Mode) int {
	switch m {
	case cimmlc.CM:
		return 0
	case cimmlc.XBM:
		return 1
	default:
		return 2
	}
}

// cellArch builds the preset with its computing mode overridden to the
// cell's level, named so registries and error messages identify the cell.
func cellArch(c Cell) (*cimmlc.Arch, error) {
	a, err := cimmlc.Preset(c.Arch)
	if err != nil {
		return nil, err
	}
	a.Mode = c.Level
	return a, nil
}

// cellOptions is the one place a cell's build options are decided: every
// family compiles the cell on a fresh cache-less, IR-verifying compiler with
// the returned compiler options (extra appended) and serves it through a
// registry built with the returned registry options. Host fallback is on iff
// the model has host-only operators, which compile only with it.
func cellOptions(cell Cell, extra ...cimmlc.Option) ([]cimmlc.Option, []serving.RegistryOption) {
	opts := []cimmlc.Option{cimmlc.WithCache(0), cimmlc.WithVerifyIR()}
	var regOpts []serving.RegistryOption
	if cimmlc.ModelMixed(cell.Model) {
		opts = append(opts, cimmlc.WithHostFallback())
		regOpts = append(regOpts, serving.WithHostFallback())
	}
	return append(opts, extra...), regOpts
}

// stageResults returns the one-stage compilation results res is made of:
// res itself, or the result of each CIM stage of a staged compilation.
func stageResults(res *cimmlc.Result) []*cimmlc.Result {
	if res.Partition == nil {
		return []*cimmlc.Result{res}
	}
	var out []*cimmlc.Result
	for _, sr := range res.Partition.Subs {
		if sr.Res != nil {
			out = append(out, sr.Res)
		}
	}
	return out
}

func runCell(ctx context.Context, cell Cell, cfg Config, vs *violationSet) CellResult {
	out := CellResult{Cell: cell}
	fail := func(err error) CellResult {
		out.Err = err.Error()
		vs.addf("%s: %v", cell.Key(), err)
		return out
	}
	g, err := cimmlc.Model(cell.Model)
	if err != nil {
		return fail(err)
	}
	a, err := cellArch(cell)
	if err != nil {
		return fail(err)
	}
	opts, _ := cellOptions(cell)
	c, err := cimmlc.New(a, opts...)
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	res, err := c.Compile(ctx, g)
	if err != nil {
		return fail(fmt.Errorf("compile: %w", err))
	}
	out.CompileTime = time.Since(t0)
	out.Digest = digestOf(res)

	// Every segment holds a CIM operator: digital nodes cut off alone would
	// wait for the whole segment before them, where the segmenter pipelines
	// them in their producer's segment.
	for _, sr := range stageResults(res) {
		s := sr.Schedule
		for i, seg := range s.Segments {
			if !slices.ContainsFunc(seg, func(id int) bool { return s.Graph.Nodes[id].Op.CIMSupported() }) {
				vs.addf("%s: segment %d of %d holds digital nodes alone: %v", cell.Key(), i, len(s.Segments), seg)
			}
		}
	}

	// Strict determinism: an independent compiler over the same inputs must
	// reproduce every metric bit-for-bit (§4's simulator results are only
	// comparable because repeated runs agree exactly).
	if cfg.DeterminismBudget == 0 || out.CompileTime <= cfg.DeterminismBudget {
		out.DetChecked = true
		c2, err := cimmlc.New(a, opts...)
		if err != nil {
			return fail(err)
		}
		res2, err := c2.Compile(ctx, g)
		if err != nil {
			return fail(fmt.Errorf("recompile: %w", err))
		}
		if d2 := digestOf(res2); d2 != out.Digest.scalarOnly() {
			for _, d := range d2.diff(out.Digest.scalarOnly()) {
				vs.addf("%s: nondeterministic compilation: %s", cell.Key(), d)
			}
		}
	}

	// NoOpt dominance: the full stack never loses to the layer-serial
	// baseline schedule on the same machine (Figure 20's speedups are ≥ 1).
	// The baseline has no host, so it refuses a mixed model.
	ns, err := cimmlc.NoOptSchedule(g, a)
	if err == nil {
		nr, err := cimmlc.Simulate(ns)
		if err == nil {
			out.NoOptCycles = nr.Cycles
			if out.Digest.Cycles > nr.Cycles {
				vs.addf("%s: optimized latency %v exceeds no-opt baseline %v", cell.Key(), out.Digest.Cycles, nr.Cycles)
			}
		}
	}

	if execCell(cell, cfg) {
		out.ExecChecked = true
		mops, hash, execViolations := runExecBattery(ctx, c, g, a, cell, cfg)
		out.Digest.MOPs = mops
		out.Digest.OutputHash = hash
		for _, v := range execViolations {
			vs.add(v)
		}
		// An empty hash means the battery aborted before the reference
		// path completed; mark the cell errored so the incomplete digest
		// is neither golden-compared (spurious mops/hash drift) nor
		// snapshotted by -update.
		if hash == "" {
			out.Err = "exec battery aborted; see violations"
		}
	}

	// Fourth property family: autotuned schedules are never worse, tuned
	// recompilation is bit-deterministic, and tuning never changes output
	// bits (skipped for cells whose battery aborted — no reference hash).
	if out.Err == "" && tuneCell(cell, cfg) {
		out.TuneChecked = true
		out.tuneImproved = runTuneFamily(ctx, cell, cfg, g, a, res, out.Digest.OutputHash, vs)
	}
	return out
}

// scalarOnly strips the exec-only fields so compile-level digests compare.
func (d Digest) scalarOnly() Digest {
	d.MOPs = nil
	d.OutputHash = ""
	return d
}

func execCell(c Cell, cfg Config) bool {
	if !slices.Contains(cfg.ExecModels, c.Model) {
		return false
	}
	return len(cfg.ExecArchs) == 0 || slices.Contains(cfg.ExecArchs, c.Arch)
}

// digestOf fingerprints a compilation; a staged one by its aggregate report
// and the segments of all its CIM stages.
func digestOf(res *cimmlc.Result) Digest {
	rep := res.Report
	segments := 0
	for _, sr := range stageResults(res) {
		segments += len(sr.Schedule.Segments)
	}
	return Digest{
		Cycles:        rep.Cycles,
		Energy:        rep.Energy,
		PeakPower:     rep.PeakPower.Total(),
		PeakActiveXBs: rep.PeakActiveXBs,
		ReloadCycles:  rep.ReloadCycles,
		CoresUsed:     rep.CoresUsed,
		XBsUsed:       rep.XBsUsed,
		Segments:      segments,
	}
}

// checkCrossCell enforces the invariants that relate cells to each other:
// level monotonicity of latency and cross-level output bit-identity.
func checkCrossCell(results []CellResult, cfg Config, vs *violationSet) {
	byCell := make(map[Cell]*CellResult, len(results))
	for i := range results {
		byCell[results[i].Cell] = &results[i]
	}
	for _, m := range cfg.Models {
		for _, a := range cfg.Archs {
			var prev *CellResult
			var firstHash *CellResult
			for _, l := range cfg.Levels {
				cur := byCell[Cell{Model: m, Arch: a, Level: l}]
				if cur == nil || cur.Err != "" {
					continue
				}
				// §4 / Figure 16: exposing a finer scheduling granularity
				// can only add optimization opportunity, never latency.
				if prev != nil && cur.Digest.Cycles > prev.Digest.Cycles {
					vs.addf("%s|%s: level %s latency %v exceeds coarser level %s latency %v",
						m, a, l, cur.Digest.Cycles, prev.Cell.Level, prev.Digest.Cycles)
				}
				prev = cur
				if cur.Digest.OutputHash != "" {
					if firstHash == nil {
						firstHash = cur
					} else if cur.Digest.OutputHash != firstHash.Digest.OutputHash {
						vs.addf("%s|%s: outputs differ between levels %s and %s (the level changes the schedule, never the arithmetic)",
							m, a, firstHash.Cell.Level, l)
					}
				}
			}
		}
	}
}

// checkTuneImprovement is the autotuner's matching floor: never-worse per
// cell (runTuneFamily) would pass a tuner that finds nothing, so across the
// tune-checked cells the tuned cycles must be strictly below the heuristic
// digest on at least five cells (or on every one when fewer were checked).
func checkTuneImprovement(results []CellResult, vs *violationSet) {
	checked, improved := 0, 0
	for _, r := range results {
		if !r.TuneChecked {
			continue
		}
		checked++
		if r.tuneImproved {
			improved++
		}
	}
	if want := min(5, checked); improved < want {
		vs.addf("autotune: only %d of %d tune-checked cells beat the heuristic schedule (want >= %d)", improved, checked, want)
	}
}

// runScaleChecks verifies resource monotonicity: doubling the core grid at
// the preset's native mode must not increase latency (more cores only widen
// the duplication and pipelining search space). Crossbars-per-core scaling
// is deliberately not asserted: a core programs its crossbars serially
// through its one write port, so a segment's reload grows with its busiest
// core's crossbars (twice the crossbars per core makes vgg16.isaac-baseline
// 22 % slower, its reload 307 200 → 512 000 cycles). No intra-core
// interconnect is priced (ROADMAP item 13).
func runScaleChecks(ctx context.Context, cfg Config, results []CellResult, vs *violationSet) {
	models := cfg.ScaleModels
	if len(models) == 0 {
		models = cfg.Models
	}
	// The matrix sweep already compiled every (model, arch, native-mode)
	// cell — reuse those baselines instead of recompiling them.
	baseline := make(map[Cell]float64, len(results))
	for _, r := range results {
		if r.Err == "" {
			baseline[r.Cell] = r.Digest.Cycles
		}
	}
	for _, m := range models {
		for _, an := range cfg.Archs {
			g, err := cimmlc.Model(m)
			if err != nil {
				vs.addf("%s|%s: scale check: %v", m, an, err)
				continue
			}
			base, err := cimmlc.Preset(an)
			if err != nil {
				vs.addf("%s|%s: scale check: %v", m, an, err)
				continue
			}
			grown := base.Clone()
			grown.Name += "-2xcores"
			grown.Chip.CoreRows *= 2
			cell := Cell{Model: m, Arch: an, Level: base.Mode}
			baseCycles, ok := baseline[cell]
			if !ok {
				r1, err := compileOn(ctx, cell, g, base)
				if err != nil {
					vs.addf("%s|%s: scale check failed to compile baseline: %v", m, an, err)
					continue
				}
				baseCycles = r1.Report.Cycles
			}
			r2, err := compileOn(ctx, cell, g, grown)
			if err != nil {
				vs.addf("%s|%s: scale check failed to compile grown grid: %v", m, an, err)
				continue
			}
			if r2.Report.Cycles > baseCycles {
				vs.addf("%s|%s: doubling the core grid raised latency %v -> %v", m, an, baseCycles, r2.Report.Cycles)
			}
		}
	}
}

func compileOn(ctx context.Context, cell Cell, g *cimmlc.Graph, a *cimmlc.Arch) (*cimmlc.Result, error) {
	opts, _ := cellOptions(cell)
	c, err := cimmlc.New(a, opts...)
	if err != nil {
		return nil, err
	}
	return c.Compile(ctx, g)
}

func compareGolden(results []CellResult, golden map[string]Digest, vs *violationSet) {
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		key := r.Cell.Key()
		want, ok := golden[key]
		if !ok {
			vs.addf("%s: no golden entry (regenerate with `go test ./internal/conformance -run TestMatrix -update`)", key)
			continue
		}
		for _, d := range r.Digest.diff(want) {
			vs.addf("%s: golden drift: %s", key, d)
		}
	}
}

// violationSet accumulates violations from concurrent cell runs.
type violationSet struct {
	mu sync.Mutex
	vs []string
}

func newViolationSet() *violationSet { return &violationSet{} }

func (v *violationSet) add(s string) {
	v.mu.Lock()
	v.vs = append(v.vs, s)
	v.mu.Unlock()
}

func (v *violationSet) addf(format string, args ...any) { v.add(fmt.Sprintf(format, args...)) }

func (v *violationSet) sorted() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, len(v.vs))
	copy(out, v.vs)
	sort.Strings(out)
	return out
}

// Format renders the matrix as an aligned table followed by any violations.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance matrix: %d cells in %v\n", len(r.Cells), r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-12s %-16s %-4s %14s %12s %8s %6s %-7s %s\n",
		"model", "arch", "lvl", "cycles", "energy", "xbs", "segs", "checks", "hash")
	for _, c := range r.Cells {
		if c.Err != "" {
			fmt.Fprintf(&b, "%-12s %-16s %-4s ERROR: %s\n", c.Cell.Model, c.Cell.Arch, c.Cell.Level, c.Err)
			continue
		}
		checks := ""
		if c.DetChecked {
			checks += "d"
		}
		if c.ExecChecked {
			checks += "x"
		}
		if c.TuneChecked {
			checks += "t"
		}
		hash := c.Digest.OutputHash
		if hash == "" {
			hash = "-"
		}
		fmt.Fprintf(&b, "%-12s %-16s %-4s %14.6g %12.5g %8d %6d %-7s %s\n",
			c.Cell.Model, c.Cell.Arch, c.Cell.Level, c.Digest.Cycles, c.Digest.Energy,
			c.Digest.XBsUsed, c.Digest.Segments, checks, hash)
	}
	if len(r.Violations) == 0 {
		b.WriteString("PASS: all conformance properties hold\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}
