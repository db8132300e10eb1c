package cimmlc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cimmlc/internal/funcsim"
	"cimmlc/internal/graph"
	"cimmlc/internal/tensor"
)

// Program is an executable, immutable compilation artifact: the
// shape-inferred graph, the optimized schedule, the generated meta-operator
// flow, and a crossbar image with the weights already quantized, bit-sliced
// and programmed, and the flow's compute section compiled into kernels.
// Building a Program pays the full compile + lower + weight-programming cost
// exactly once; each Run then executes only the compiled compute section
// against a pooled execution state, the stationary-weight serving model CIM
// hardware is built for.
//
// A Program is safe for concurrent use from many goroutines.
type Program struct {
	arch  Arch // private copy, never mutated
	g     *Graph
	res   *Result
	fr    *FlowResult
	w     Weights
	calib map[int]*Tensor
	img   *funcsim.Image
	outs  []int // the graph's output node IDs

	// body is the flow's compute section compiled into kernel closures: what
	// every request executes, as one lane of a micro-batch.
	body *funcsim.CompiledFlow

	// parts is non-nil for partitioned (multi-target) programs: the
	// subprograms in execution order. img, fr and body are then nil — Run
	// orchestrates the parts through a shared tensor environment instead of
	// executing a single flow.
	parts []*subprogram

	workers int

	pool       sync.Pool // of *funcsim.BatchState
	requests   atomic.Uint64
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
	batchRuns  atomic.Uint64
	batchReqs  atomic.Uint64
}

// Test seams, nil outside tests: testHookBatchClaim runs after a RunBatch
// worker claims the work item whose first request is i; testHookRunStart
// runs for each request of a micro-batch after its context check;
// testHookBatchFail runs after a request error has been recorded. They exist
// to force cancel/first-error interleavings that are otherwise
// timing-dependent.
var (
	testHookBatchClaim func(ctx context.Context, i int)
	testHookRunStart   func(ctx context.Context, inputs map[int]*Tensor)
	testHookBatchFail  func(i int)
)

// ProgramStats reports a program's serving counters.
type ProgramStats struct {
	// Requests is the number of successfully completed requests.
	Requests uint64
	// PoolHits counts micro-batches (a Run is a micro-batch of one) that
	// reused a pooled execution state; PoolMisses counts those that had to
	// allocate a fresh one.
	PoolHits   uint64
	PoolMisses uint64
	// BatchRuns counts the micro-batches of two or more requests;
	// BatchedRequests counts the requests they served (also included in
	// Requests).
	BatchRuns       uint64
	BatchedRequests uint64
	// Tuning reports the autotune search the program's schedule came from
	// (tuned vs heuristic cycles); nil when the program was compiled without
	// WithAutoTune. Treat it as read-only.
	Tuning *TuningStats
	// Partition summarizes the multi-target plan for partitioned programs
	// (host fallback on a graph with host-only operators); nil for
	// monolithic programs, including fully supported graphs compiled under
	// WithHostFallback.
	Partition *PartitionStats
}

// BuildOption configures Compiler.Build.
type BuildOption func(*buildConfig)

type buildConfig struct {
	calib   map[int]*Tensor
	workers int
}

// WithCalibration supplies the activation-calibration inputs used to fix
// the program's quantization scales at build time. Calibration inputs
// should be drawn from the same distribution as serving traffic; when
// omitted, Build calibrates on deterministic pseudo-random inputs.
func WithCalibration(inputs map[int]*Tensor) BuildOption {
	return func(c *buildConfig) { c.calib = inputs }
}

// WithWorkers bounds RunBatch's worker pool; n <= 0 (the default) uses
// GOMAXPROCS.
func WithWorkers(n int) BuildOption {
	return func(c *buildConfig) { c.workers = n }
}

// Build compiles g once for serving: it runs the full pass pipeline
// (through the compiler's artifact cache), lowers the result to a
// meta-operator flow, calibrates quantization, and programs the flow's
// init section into an immutable crossbar image. The returned Program
// serves any number of Run / RunBatch calls without recompiling or
// reprogramming weights.
//
// The graph, weights and calibration tensors must not be mutated after
// Build returns.
func (c *Compiler) Build(ctx context.Context, g *Graph, w Weights, opt CodegenOptions, bopts ...BuildOption) (*Program, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return nil, fmt.Errorf("cimmlc: Build: nil graph")
	}
	var cfg buildConfig
	for _, o := range bopts {
		if o != nil {
			o(&cfg)
		}
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		return nil, err
	}
	if res.Partition != nil {
		return c.buildPartitioned(ctx, res, w, opt, cfg)
	}
	fr, err := c.Lower(ctx, g, res, opt)
	if err != nil {
		return nil, err
	}
	p, err := c.newProgram(g, fr, w, cfg)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: Build: %w", err)
	}
	p.res = res
	return p, nil
}

// newProgram assembles a Program around an already-lowered flow: it clones
// and shape-infers the graph, calibrates an image, programs the flow's init
// section and compiles its body. Shared by Build and the one-shot Run/Verify
// wrappers.
func (c *Compiler) newProgram(g *Graph, fr *FlowResult, w Weights, cfg buildConfig) (*Program, error) {
	if fr == nil || fr.Flow == nil || fr.Layout == nil {
		return nil, fmt.Errorf("nil flow result")
	}
	if fr.Truncated {
		return nil, fmt.Errorf("flow was truncated by codegen (MaxWindowsPerOp); not executable")
	}
	// Validate once here: per-request execution skips it.
	if err := fr.Flow.Validate(); err != nil {
		return nil, err
	}
	gc, err := cloneGraph(g)
	if err != nil {
		return nil, err
	}
	calib := cfg.calib
	if calib == nil {
		calib = defaultCalibration(gc)
	}
	p := &Program{
		arch:    c.arch,
		g:       gc,
		fr:      fr,
		w:       w,
		calib:   calib,
		outs:    gc.Outputs(),
		workers: cfg.workers,
	}
	img, err := funcsim.NewImage(gc, &p.arch, fr.Layout, w, calib)
	if err != nil {
		return nil, err
	}
	if err := img.ProgramInit(fr.Flow.Init); err != nil {
		return nil, err
	}
	if p.body, err = img.CompileBody(fr.Flow.Body); err != nil {
		return nil, err
	}
	p.img = img
	return p, nil
}

// defaultCalibration generates deterministic pseudo-random inputs for every
// Input node, giving the quantizers a symmetric activation range when the
// caller has no calibration set.
func defaultCalibration(g *Graph) map[int]*Tensor {
	calib := map[int]*Tensor{}
	for _, id := range g.InputIDs() {
		n := g.MustNode(id)
		t := tensor.New(n.OutShape...)
		t.Rand(0x9e3779b97f4a7c15^uint64(id), 1)
		calib[id] = t
	}
	return calib
}

// Run executes one inference: inputs are quantized with the program's
// calibrated scales, the flow's compute section runs against a pooled
// execution state — a micro-batch of one lane — and the tensors of the
// graph's output nodes are returned, keyed by node ID. (The deprecated
// Compiler.Run returns every node's tensor; serving extracts only the network
// outputs.) Safe for concurrent use.
func (p *Program) Run(ctx context.Context, inputs map[int]*Tensor) (map[int]*Tensor, error) {
	return p.run(ctx, inputs, p.outs)
}

// run is Run returning the tensors of the given nodes. Partitioned programs
// always return the graph outputs: other nodes have no meaning across
// targets (the deprecated one-shot wrappers never build partitioned
// programs).
func (p *Program) run(ctx context.Context, inputs map[int]*Tensor, ids []int) (map[int]*Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.parts != nil {
		return p.runPartitioned(ctx, inputs)
	}
	var out [1]map[int]*Tensor
	if _, err := p.runMicroBatch(ctx, []map[int]*Tensor{inputs}, out[:], ids); err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunBatch executes one inference per request map, returning results in
// request order. The requests are cut into micro-batches — one pass over each
// programmed crossbar serves every lane of a micro-batch — spread across a
// bounded worker pool (WithWorkers, default GOMAXPROCS). A request's output
// does not depend on the micro-batch that carries it. Partitioned programs
// step their subprograms request by request.
//
// On failure the returned results are nil and the error names the failing
// request: the lowest-indexed request whose execution produced a genuine
// error, falling back to a request-indexed cancellation and only then to the
// bare context error. The first genuine error cancels the remaining
// requests.
func (p *Program) RunBatch(ctx context.Context, reqs []map[int]*Tensor) ([]map[int]*Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Empty-batch path: honor the nil-results-on-error convention — a
	// pre-cancelled context must not hand back a non-nil result slice.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outs := make([]map[int]*Tensor, len(reqs))
	if len(reqs) == 0 {
		return outs, nil
	}
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	cuts := p.batchCuts(len(reqs), workers)
	items := len(cuts) - 1

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rec := &batchErrors{cancel: cancel}

	// Work item k is requests [cuts[k], cuts[k+1]).
	runItem := func(k int) {
		lo, hi := cuts[k], cuts[k+1]
		if testHookBatchClaim != nil {
			testHookBatchClaim(ctx, lo)
		}
		if p.parts != nil {
			// batchCuts gives partitioned programs one request per item.
			out, err := p.runPartitioned(ctx, reqs[lo])
			if err != nil {
				rec.record(lo, err)
			}
			outs[lo] = out
			return
		}
		if lane, err := p.runMicroBatch(ctx, reqs[lo:hi], outs[lo:hi], p.outs); err != nil {
			rec.record(lo+lane, err)
		}
	}

	if w := min(workers, items); w == 1 {
		for k := 0; k < items; k++ {
			if ctx.Err() != nil {
				break
			}
			runItem(k)
			if rec.failed() {
				break
			}
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= items || ctx.Err() != nil {
						return
					}
					runItem(k)
				}
			}()
		}
		wg.Wait()
	}
	if err := rec.resolve(ctx); err != nil {
		return nil, err
	}
	return outs, nil
}

// batchErrors aggregates per-request failures of one RunBatch call. Genuine
// request errors take precedence over cancellation-flavored ones regardless
// of arrival order, so a caller always receives the request-indexed error
// when one exists — never a bare context.Canceled that happened to be
// observed first by another worker.
type batchErrors struct {
	cancel context.CancelFunc

	mu        sync.Mutex
	err       error // lowest-indexed genuine request error
	errIdx    int
	cancelErr error // lowest-indexed cancellation-flavored request error
	cancelIdx int
}

func (e *batchErrors) record(i int, err error) {
	wrapped := fmt.Errorf("cimmlc: RunBatch: request %d: %w", i, err)
	e.mu.Lock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The request observed the batch's cancellation; it did not cause
		// the failure. Keep it only as a fallback attribution.
		if e.cancelErr == nil || i < e.cancelIdx {
			e.cancelErr, e.cancelIdx = wrapped, i
		}
	} else {
		if e.err == nil || i < e.errIdx {
			e.err, e.errIdx = wrapped, i
		}
		e.cancel()
	}
	e.mu.Unlock()
	if testHookBatchFail != nil {
		testHookBatchFail(i)
	}
}

func (e *batchErrors) failed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err != nil
}

// resolve picks the batch's error after all workers have joined (no
// locking needed: Wait establishes happens-before).
func (e *batchErrors) resolve(ctx context.Context) error {
	switch {
	case e.err != nil:
		return e.err
	case ctx.Err() != nil:
		if e.cancelErr != nil {
			return e.cancelErr
		}
		return ctx.Err()
	}
	return nil
}

// maxMicroBatchWords caps a micro-batch's total lane memory (words, ~8 MB)
// so the batch's activation working set stays cache-resident: per-request
// cost rises again once the lanes spill the last-level cache. Lanes beyond
// the cap split into further micro-batches.
const maxMicroBatchWords = int64(1) << 20

// batchCuts cuts n requests into RunBatch's work items, runs of consecutive
// requests: item k is requests [cuts[k], cuts[k+1]). Micro-batches are sized
// to keep every worker busy, capped by the lane-memory budget, and balanced
// (16 lanes under a cap of 15 become 8+8, not 15+1) so none degenerates to a
// near-empty tail. Partitioned programs get one request per item.
func (p *Program) batchCuts(n, workers int) []int {
	mb := 1
	if p.parts == nil {
		laneCap := int(min(64, max(1, maxMicroBatchWords/max(1, p.img.MemWords()))))
		mb = min((n+workers-1)/workers, laneCap)
	}
	chunks := (n + mb - 1) / mb
	cuts := make([]int, chunks+1)
	lo, rem := n/chunks, n%chunks
	for c := 0; c < chunks; c++ {
		cuts[c+1] = cuts[c] + lo
		if c < rem {
			cuts[c+1]++
		}
	}
	return cuts
}

// runMicroBatch executes reqs as one micro-batch, a lane each, through the
// compiled kernels and stores the tensors of nodes ids in outs. On failure it
// returns the lane to blame: loading errors belong to their request; kernel
// errors do not depend on lane data, so lane 0 stands for all.
func (p *Program) runMicroBatch(ctx context.Context, reqs, outs []map[int]*Tensor, ids []int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if testHookRunStart != nil {
		for _, req := range reqs {
			testHookRunStart(ctx, req)
		}
	}
	st := p.getState(len(reqs))
	defer p.pool.Put(st)
	bm := p.img.ExecBatch(st)
	for lane, req := range reqs {
		if err := bm.LoadInputs(lane, req); err != nil {
			return lane, err
		}
	}
	if err := bm.RunBody(p.body); err != nil {
		return 0, err
	}
	bm.SettleAll()
	for lane := range reqs {
		outs[lane] = bm.TensorsOf(lane, ids)
	}
	if len(reqs) > 1 {
		p.batchRuns.Add(1)
		p.batchReqs.Add(uint64(len(reqs)))
	}
	p.requests.Add(uint64(len(reqs)))
	return 0, nil
}

// getState draws an execution state reset to the given lane count from the
// pool, allocating when the pool is empty.
func (p *Program) getState(lanes int) *funcsim.BatchState {
	if v := p.pool.Get(); v != nil {
		p.poolHits.Add(1)
		st := v.(*funcsim.BatchState)
		p.img.ResetBatch(st, lanes)
		return st
	}
	p.poolMisses.Add(1)
	return p.img.NewBatchState(lanes)
}

// nodeIDs returns every node's ID: the extraction list of the paths that
// check or return all regions (Verify, the deprecated Compiler.Run).
func (p *Program) nodeIDs() []int {
	ids := make([]int, len(p.g.Nodes))
	for i, n := range p.g.Nodes {
		ids[i] = n.ID
	}
	return ids
}

// Verify checks the program's execution of inputs bit-exactly against the
// quantized reference executor (under the program's build-time calibration)
// and within floatTol of the float reference.
func (p *Program) Verify(ctx context.Context, inputs map[int]*Tensor, floatTol float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.parts != nil {
		return p.verifyPartitioned(ctx, inputs, floatTol)
	}
	got, err := p.run(ctx, inputs, p.nodeIDs())
	if err != nil {
		return err
	}
	// The reference paths re-run shape inference, so give them a private
	// clone: p.g is shared by concurrent Run calls.
	gc := p.g.Clone()
	a := p.arch
	want, err := funcsim.QuantReferenceCalib(gc, &a, p.w, p.calib, inputs)
	if err != nil {
		return err
	}
	ref, err := graph.Execute(gc, p.w, inputs)
	if err != nil {
		return err
	}
	return funcsim.CheckOutputs(gc, got, want, ref, floatTol)
}

// Stats returns a snapshot of the program's serving counters.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{
		Requests:        p.requests.Load(),
		PoolHits:        p.poolHits.Load(),
		PoolMisses:      p.poolMisses.Load(),
		BatchRuns:       p.batchRuns.Load(),
		BatchedRequests: p.batchReqs.Load(),
	}
	if p.res != nil {
		st.Tuning = p.res.Tuning
		if p.res.Partition != nil {
			st.Partition = partitionStats(p.res)
		}
	}
	return st
}

// Result returns the compilation result the program was built from
// (schedule, placement, performance report). Nil for programs created by
// the deprecated one-shot Run/Verify wrappers.
func (p *Program) Result() *Result { return p.res }

// Flow returns the program's generated meta-operator flow and buffer
// layout. Treat it as read-only.
func (p *Program) Flow() *FlowResult { return p.fr }

// Arch returns a copy of the architecture the program was built for.
func (p *Program) Arch() *Arch {
	a := p.arch
	return &a
}

// Inputs returns the graph's input node IDs mapped to their tensor shapes —
// the request schema a serving front end needs to admit and validate
// traffic. The shape slices are copies.
func (p *Program) Inputs() map[int][]int {
	ins := make(map[int][]int)
	for _, id := range p.g.InputIDs() {
		n := p.g.MustNode(id)
		s := make([]int, len(n.OutShape))
		copy(s, n.OutShape)
		ins[id] = s
	}
	return ins
}

// Outputs returns the graph's output node IDs — the keys of the map Run
// returns.
func (p *Program) Outputs() []int {
	out := make([]int, len(p.outs))
	copy(out, p.outs)
	return out
}
