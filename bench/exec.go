package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"cimmlc"
)

// execCells are the six cells exec-single and exec-batch share. Each uses
// the executor differently: WLM row reads with window moves, XBM and CM
// whole-crossbar reads, a dense layer, a body that reprograms crossbars
// between reads, and a host-partitioned program.
var execCells = []cell{
	{"conv-relu", "isaac-baseline"},
	{"lenet5", "puma"},
	{"lenet5", "jia-isscc21"},
	{"mlp", "puma"},
	{"lenet5", "toy-table2"},
	{"conv-gate", "puma"},
}

// execCell is one cell's inputs (made once per run from the seed) and the
// Program the current set-up built for it.
type execCell struct {
	cell
	arch   *cimmlc.Arch
	g      *cimmlc.Graph
	w      cimmlc.Weights
	calib  map[int]*cimmlc.Tensor
	inputs []map[int]*cimmlc.Tensor
	want   []uint64 // hash of the verified output of each input

	prog        *cimmlc.Program
	buildMS     float64
	partitioned bool
}

func newExecCells(cells []cell, cfg runConfig) ([]*execCell, error) {
	rng := newRand(cfg.Seed, 2)
	out := make([]*execCell, len(cells))
	for i, c := range cells {
		a, err := c.arch()
		if err != nil {
			return nil, err
		}
		g, err := cimmlc.Model(c.Model)
		if err != nil {
			return nil, err
		}
		schema, err := graphSchema(g)
		if err != nil {
			return nil, err
		}
		ins := seededInputs(schema, rng, cfg.Size.Inputs+1)
		out[i] = &execCell{cell: c, arch: a, g: g, w: cimmlc.RandomWeights(g, weightSeed), calib: ins[0], inputs: ins[1:]}
	}
	return out, nil
}

func (c *execCell) newCompiler() (*cimmlc.Compiler, error) {
	return cimmlc.New(c.arch, cimmlc.WithCache(0), cimmlc.WithHostFallback(), cimmlc.WithoutVerifyIR())
}

// buildPrograms is the exec-* set-up: Compiler.Build of every cell on a
// fresh cache-off compiler.
func buildPrograms(cells []*execCell) error {
	for _, c := range cells {
		t0 := time.Now()
		comp, err := c.newCompiler()
		if err != nil {
			return err
		}
		p, err := comp.Build(context.Background(), c.g, c.w, cimmlc.CodegenOptions{}, cimmlc.WithCalibration(c.calib))
		if err != nil {
			return fmt.Errorf("build %s: %w", c, err)
		}
		c.prog, c.buildMS = p, ms(time.Since(t0))
		c.partitioned = p.Stats().Partition != nil
	}
	return nil
}

// verifier is what the correctness gate needs of an executable; Program and
// Pipeline both provide it.
type verifier interface {
	Verify(ctx context.Context, inputs map[int]*cimmlc.Tensor, floatTol float64) error
	Run(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error)
}

// gate checks every distinct input against the independent reference and
// returns each verified output. exact executables (monolithic programs) must
// match the quantized reference executor bit for bit — the float tolerance
// is lifted because 8-bit quantization errs by more than any useful tolerance
// on an input the program was not calibrated on, and with near-zero logits
// now and then on the one it was; the others are held to the float reference
// within looseFloatTol.
func gate(r *WorkloadResult, name string, v verifier, exact bool, inputs []map[int]*cimmlc.Tensor) []map[int]*cimmlc.Tensor {
	ctx := context.Background()
	tol := looseFloatTol
	if exact {
		tol = math.Inf(1)
	}
	outs := make([]map[int]*cimmlc.Tensor, len(inputs))
	for i, in := range inputs {
		r.Attempted++
		if err := v.Verify(ctx, in, tol); err != nil {
			r.fail("%s input %d: verify: %v", name, i, err)
			continue
		}
		out, err := v.Run(ctx, in)
		if err != nil {
			r.fail("%s input %d: %v", name, i, err)
			continue
		}
		outs[i] = out
	}
	return outs
}

func gateExec(r *WorkloadResult, cells []*execCell) {
	for _, c := range cells {
		c.want = make([]uint64, len(c.inputs))
		for i, out := range gate(r, c.String(), c.prog, !c.partitioned, c.inputs) {
			if out != nil {
				c.want[i] = hashTensors(out)
			}
		}
	}
}

// checker returns the timed-phase output check: an output whose hash differs
// from the verified one is a failed operation.
func checker(cfg runConfig, r *WorkloadResult) func(c *execCell, i int, out map[int]*cimmlc.Tensor, err error) bool {
	return func(c *execCell, i int, out map[int]*cimmlc.Tensor, err error) bool {
		r.Attempted++
		if err != nil {
			r.fail("%s input %d: %v", c, i, err)
			return false
		}
		if cfg.corrupt != nil {
			cfg.corrupt(out)
		}
		if hashTensors(out) != c.want[i] {
			r.fail("%s input %d: output differs from the verified output", c, i)
			return false
		}
		return true
	}
}

// execOp runs one round of one cell and returns the latencies (ms) of its
// correct operations.
type execOp func(c *execCell) (lat []float64)

func singleOp(check func(*execCell, int, map[int]*cimmlc.Tensor, error) bool) execOp {
	return func(c *execCell) (lat []float64) {
		ctx := context.Background()
		for i, in := range c.inputs {
			t0 := time.Now()
			out, err := c.prog.Run(ctx, in)
			d := time.Since(t0)
			if check(c, i, out, err) {
				lat = append(lat, ms(d))
			}
		}
		return lat
	}
}

func batchOp(check func(*execCell, int, map[int]*cimmlc.Tensor, error) bool) execOp {
	return func(c *execCell) (lat []float64) {
		t0 := time.Now()
		outs, err := c.prog.RunBatch(context.Background(), c.inputs)
		wall := time.Since(t0)
		ok := true
		for i := range c.inputs {
			var out map[int]*cimmlc.Tensor
			if err == nil {
				out = outs[i]
			}
			ok = check(c, i, out, err) && ok
		}
		if ok {
			lat = []float64{ms(wall)}
		}
		return lat
	}
}

// timedRounds runs whole rounds — every cell once, in a seed-shuffled order
// so no cell always runs on a cold or a warm cache — until the budget is
// spent, and returns every cell's correct operations' latencies (ms) in the
// order measured.
func timedRounds(cfg runConfig, r *WorkloadResult, cells []*execCell, op execOp) [][]float64 {
	rng := newRand(cfg.Seed, 3)
	lat := make([][]float64, len(cells))
	rounds := 0
	for start := time.Now(); rounds < cfg.Size.MinRounds || time.Since(start) < cfg.budget(); rounds++ {
		runtime.GC() // between rounds, so a collection is not charged to whichever cell it lands on
		for _, ci := range rng.Perm(len(cells)) {
			lat[ci] = append(lat[ci], op(cells[ci])...)
		}
	}
	r.Counts["rounds"], r.Counts["cells"], r.Counts["requests_per_round"] = rounds, len(cells), len(cells)*cfg.Size.Inputs
	return lat
}

func execSetup(cfg runConfig, r *WorkloadResult) ([]*execCell, error) {
	cells, err := newExecCells(execCells, cfg)
	if err != nil {
		return nil, err
	}
	_, err = setup(r, cfg.Size.SetupReps, func() (struct{}, error) { return struct{}{}, buildPrograms(cells) }, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	gateExec(r, cells)
	return cells, nil
}

// runExec is the untraced body of exec-single and exec-batch. perOp is the
// number of requests one operation serves.
func runExec(cfg runConfig, r *WorkloadResult, what string, op func(func(*execCell, int, map[int]*cimmlc.Tensor, error) bool) execOp, perOp int) (*WorkloadResult, error) {
	cells, err := execSetup(cfg, r)
	if err != nil {
		return nil, err
	}
	if err := setSim(r, execCells); err != nil {
		return nil, err
	}
	lat := timedRounds(cfg, r, cells, op(checker(cfg, r)))

	var quiet, rates []float64
	ops := 0
	for i, c := range cells {
		r.Rows = append(r.Rows, Row{Cell: c.String(), What: what, Unit: "ms", Dist: summarize(lat[i])})
		if len(lat[i]) == 0 {
			continue // every operation failed: counted in Failed, has no latency
		}
		med, mean := quietest(lat[i], quietWindow)
		ops += len(lat[i])
		quiet = append(quiet, med)
		rates = append(rates, float64(perOp)*1e3/mean)
	}
	if len(quiet) == 0 {
		return r, fmt.Errorf("%s: no operation succeeded", r.Workload)
	}
	r.set("op_ms_gm", geomean(quiet), ops)
	r.set("ops_per_s", geomean(rates), ops)
	r.set("tail_ms", slowCells(quiet), ops)
	return r, nil
}

// runExecSingle measures sequential Program.Run: one goroutine, every cell's
// distinct inputs one after another.
func runExecSingle(cfg runConfig) (*WorkloadResult, error) {
	r := newResult("exec-single", cfg.Trace)
	if cfg.Trace {
		return r, traceExecSingle(cfg, r)
	}
	return runExec(cfg, r, "run", singleOp, 1)
}

// runExecBatch measures Program.RunBatch on the same cells and inputs, all of
// a cell's requests in one call with the default worker count. The operation
// is the call, so a round yields one latency per cell.
func runExecBatch(cfg runConfig) (*WorkloadResult, error) {
	r := newResult("exec-batch", cfg.Trace)
	if cfg.Trace {
		return r, traceExecBatch(cfg, r)
	}
	return runExec(cfg, r, fmt.Sprintf("runbatch%d", cfg.Size.Inputs), batchOp, cfg.Size.Inputs)
}
