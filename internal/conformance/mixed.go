package conformance

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

// MixedConfig selects the mixed-model sweep matrix: the zoo models that
// contain host-only operators, compiled under WithHostFallback across
// architecture presets and computing-mode levels.
type MixedConfig struct {
	// Models to sweep; empty means every mixed zoo model
	// (cimmlc.MixedModelNames()).
	Models []string
	// Archs and Levels span the matrix, like Config.
	Archs  []string
	Levels []cimmlc.Mode
	// Requests is how many seeded inference requests each cell serves per
	// path (minimum 2). Seed derives weights and request tensors.
	Requests int
	Seed     uint64
	// FloatTol is the relative tolerance of the float-reference check; <=0
	// selects the default 0.12 (host subgraphs run in float while CIM
	// subgraphs quantize, so the partitioned tolerance is looser than the
	// monolithic quantized check).
	FloatTol float64
	// Workers bounds cell-level parallelism; <=0 uses GOMAXPROCS.
	Workers int
}

// DefaultMixedConfig sweeps every mixed zoo model over the short matrix's
// three presets at all three levels.
func DefaultMixedConfig() MixedConfig {
	return MixedConfig{
		Archs:    []string{"isaac-baseline", "puma", "toy-table2"},
		Levels:   allLevels(),
		Requests: 3,
		Seed:     1,
	}
}

// MixedCellResult records one mixed cell's outcome, including the partition
// shape and the modelled latency decomposition.
type MixedCellResult struct {
	Cell      Cell                   `json:"cell"`
	Err       string                 `json:"err,omitempty"`
	Cycles    float64                `json:"cycles"`
	Partition *cimmlc.PartitionStats `json:"partition,omitempty"`
}

// MixedResult is the full mixed-matrix outcome; an empty Violations slice
// means every property holds.
type MixedResult struct {
	Cells      []MixedCellResult `json:"cells"`
	Violations []string          `json:"violations"`
	Elapsed    time.Duration     `json:"elapsed_ns"`
}

// RunMixed sweeps the mixed-model matrix and checks the multi-target
// properties on every cell:
//
//   - the cell builds only under WithHostFallback, and the resulting Program
//     is genuinely partitioned: host and CIM nodes both present, at least
//     one costed transfer across the host link, and the latency
//     decomposition (cim + host + transfer) summing exactly to the
//     aggregate report cycles;
//   - Program.Run tracks the float reference within FloatTol
//     (Program.Verify), and repeated runs are bit-deterministic;
//   - concurrent Program.RunBatch over an 8-worker pool reproduces the
//     sequential outputs bit-for-bit;
//   - an independent rebuild (fresh compiler, same inputs) reproduces every
//     output bit and the same latency decomposition;
//   - Analyze surfaces the partition section with the same transfer counts;
//   - HTTP POST /v1/run against a host-fallback registry serves the same
//     bits.
func RunMixed(ctx context.Context, cfg MixedConfig) (*MixedResult, error) {
	if len(cfg.Models) == 0 {
		cfg.Models = cimmlc.MixedModelNames()
	}
	if len(cfg.Archs) == 0 || len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("conformance: mixed config must name archs and levels")
	}
	if cfg.Requests < 2 {
		cfg.Requests = 2
	}
	if cfg.FloatTol <= 0 {
		cfg.FloatTol = 0.12
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
	results := make([]MixedCellResult, len(cells))
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
				results[i] = runMixedCell(ctx, cells[i], cfg, violations)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &MixedResult{Cells: results, Violations: violations.sorted(), Elapsed: time.Since(start)}
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

func runMixedCell(ctx context.Context, cell Cell, cfg MixedConfig, vs *violationSet) MixedCellResult {
	out := MixedCellResult{Cell: cell}
	key := cell.Key()
	fail := func(err error) MixedCellResult {
		out.Err = err.Error()
		vs.addf("%s: %v", key, err)
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
	c, err := cimmlc.New(a, cimmlc.WithCache(0), cimmlc.WithVerifyIR(), cimmlc.WithHostFallback())
	if err != nil {
		return fail(err)
	}
	w := cimmlc.RandomWeights(g, cfg.Seed)
	reqs := seededRequests(g, cfg.Requests, cfg.Seed)
	calib := reqs[0]

	p, err := c.Build(ctx, g, w, cimmlc.CodegenOptions{},
		cimmlc.WithCalibration(calib), cimmlc.WithWorkers(8))
	if err != nil {
		return fail(fmt.Errorf("build: %w", err))
	}
	rep := p.Result().Report
	out.Cycles = rep.Cycles

	// The cell must be genuinely multi-target with costed transfers, and
	// the latency decomposition must account for every cycle.
	st := p.Stats()
	out.Partition = st.Partition
	switch {
	case st.Partition == nil:
		vs.addf("%s: mixed model built without a partition", key)
	case st.Partition.HostNodes == 0 || st.Partition.CIMNodes == 0:
		vs.addf("%s: partition is single-target (%d host, %d cim nodes)", key, st.Partition.HostNodes, st.Partition.CIMNodes)
	case st.Partition.Transfers == 0 || st.Partition.TransferElems == 0 || st.Partition.TransferCycles <= 0:
		vs.addf("%s: partition has no costed transfers", key)
	case st.Partition.CIMCycles+st.Partition.HostCycles+st.Partition.TransferCycles != rep.Cycles:
		vs.addf("%s: latency decomposition %v+%v+%v does not sum to report cycles %v", key,
			st.Partition.CIMCycles, st.Partition.HostCycles, st.Partition.TransferCycles, rep.Cycles)
	}

	// Reference path (hashed for the determinism legs) and the
	// float-reference tolerance check.
	base := make([]map[int]*cimmlc.Tensor, len(reqs))
	for i, req := range reqs {
		o, err := p.Run(ctx, req)
		if err != nil {
			return fail(fmt.Errorf("Program.Run request %d: %w", i, err))
		}
		base[i] = o
	}
	if err := p.Verify(ctx, calib, cfg.FloatTol); err != nil {
		vs.addf("%s: Verify against float reference: %v", key, err)
	}

	// Concurrent RunBatch over the 8-worker pool: bit-identical to the
	// sequential reference (and racy under -race if the orchestrator shares
	// state it should not).
	var wg sync.WaitGroup
	batchOuts := make([][]map[int]*cimmlc.Tensor, 2)
	batchErrs := make([]error, 2)
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batchOuts[b], batchErrs[b] = p.RunBatch(ctx, reqs)
		}(b)
	}
	wg.Wait()
	for b := 0; b < 2; b++ {
		if batchErrs[b] != nil {
			vs.addf("%s: RunBatch #%d: %v", key, b, batchErrs[b])
			continue
		}
		for i := range reqs {
			if d := firstOutputDiff(batchOuts[b][i], base[i]); d != "" {
				vs.addf("%s: RunBatch #%d request %d diverges: %s", key, b, i, d)
				break
			}
		}
	}

	// Independent rebuild: a fresh compiler over the same inputs must
	// reproduce every output bit and the same decomposition.
	c2, err := cimmlc.New(a, cimmlc.WithCache(0), cimmlc.WithVerifyIR(), cimmlc.WithHostFallback())
	if err != nil {
		vs.addf("%s: rebuild compiler: %v", key, err)
	} else if p2, err := c2.Build(ctx, g, w, cimmlc.CodegenOptions{},
		cimmlc.WithCalibration(calib), cimmlc.WithWorkers(8)); err != nil {
		vs.addf("%s: rebuild: %v", key, err)
	} else {
		if st2 := p2.Stats(); !reflect.DeepEqual(st2.Partition, st.Partition) {
			vs.addf("%s: nondeterministic partition stats across rebuilds", key)
		}
		if p2.Result().Report.Cycles != rep.Cycles {
			vs.addf("%s: nondeterministic cycles across rebuilds: %v vs %v", key, p2.Result().Report.Cycles, rep.Cycles)
		}
		for i, req := range reqs {
			o, err := p2.Run(ctx, req)
			if err != nil {
				vs.addf("%s: rebuild Program.Run request %d: %v", key, i, err)
				break
			}
			if d := firstOutputDiff(o, base[i]); d != "" {
				vs.addf("%s: rebuild request %d diverges: %s", key, i, d)
				break
			}
		}
	}

	// Analyze must surface the partition section the CLI prints, agreeing
	// with the Program's stats.
	if rep, err := c.Analyze(ctx, g, p.Result(), cimmlc.CodegenOptions{}); err != nil {
		vs.addf("%s: Analyze: %v", key, err)
	} else if rep.Partition == nil {
		vs.addf("%s: Analyze report has no partition section", key)
	} else if st.Partition != nil && (rep.Partition.Transfers != st.Partition.Transfers ||
		rep.Partition.TransferElems != st.Partition.TransferElems) {
		vs.addf("%s: Analyze transfer counts (%d edges, %d elems) disagree with program stats (%d edges, %d elems)", key,
			rep.Partition.Transfers, rep.Partition.TransferElems, st.Partition.Transfers, st.Partition.TransferElems)
	}

	// HTTP gateway path against a host-fallback registry.
	for _, v := range runHTTPPath(ctx, g, a, w, calib, reqs, base, cell, serving.WithHostFallback()) {
		vs.add(v)
	}

	if math.IsNaN(out.Cycles) || math.IsInf(out.Cycles, 0) {
		vs.addf("%s: non-finite report cycles %v", key, out.Cycles)
	}
	return out
}

// Format renders the mixed matrix as an aligned table followed by any
// violations.
func (r *MixedResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mixed-model matrix: %d cells in %v\n", len(r.Cells), r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-12s %-16s %-4s %12s %5s %5s %5s %12s %12s %12s\n",
		"model", "arch", "lvl", "cycles", "subs", "host", "xfers", "cim_cyc", "host_cyc", "xfer_cyc")
	for _, c := range r.Cells {
		if c.Err != "" {
			fmt.Fprintf(&b, "%-12s %-16s %-4s ERROR: %s\n", c.Cell.Model, c.Cell.Arch, c.Cell.Level, c.Err)
			continue
		}
		p := c.Partition
		if p == nil {
			p = &cimmlc.PartitionStats{}
		}
		fmt.Fprintf(&b, "%-12s %-16s %-4s %12.6g %5d %5d %5d %12.6g %12.6g %12.6g\n",
			c.Cell.Model, c.Cell.Arch, c.Cell.Level, c.Cycles,
			p.Subgraphs, p.HostNodes, p.Transfers, p.CIMCycles, p.HostCycles, p.TransferCycles)
	}
	if len(r.Violations) == 0 {
		b.WriteString("PASS: all mixed-model properties hold\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}
