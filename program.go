package cimmlc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"cimmlc/internal/core"
	"cimmlc/internal/funcsim"
	"cimmlc/internal/graph"
	"cimmlc/internal/hostexec"
	"cimmlc/internal/partition"
	"cimmlc/internal/tensor"
)

// Program is an executable, immutable compilation artifact: a plan of ordered
// stages, each a subgraph bound to its target — for the CIM accelerator the
// optimized schedule, the generated meta-operator flow and a crossbar image
// with the weights already quantized, bit-sliced and programmed and the flow's
// compute section compiled into kernels; for the host CPU a host-executor
// program — joined by transfers, each on the link tier it crosses. A
// monolithic build is the one-stage plan: the whole graph on one chip, nothing
// transferred. Host fallback (WithHostFallback) cuts a plan at host-only
// operators, BuildPipeline at chip capacity as well; every plan executes
// through the same stage loop.
//
// Building a Program pays the full compile + lower + weight-programming cost
// exactly once; each Run then executes only the compiled compute sections
// against pooled execution state, the stationary-weight serving model CIM
// hardware is built for.
//
// A Program is safe for concurrent use from many goroutines.
type Program struct {
	// What Build made, immutable from then on and shared by every Replica.
	arch   Arch // private copy, never mutated
	g      *Graph
	res    *Result
	w      Weights
	outs   []int // the graph's output node IDs
	stages []*stage
	// chips[c] is the first stage of chip c, chips[Chips()] the stage count:
	// a chip executes a run of consecutive stages, its own CIM stages and the
	// host stages riding with it.
	chips []int
	part  *PartitionStats // nil for one-stage plans
	// laneWords is the widest CIM stage's activation memory per lane: what
	// the micro-batch lane budget divides.
	laneWords int64

	// What serving mutates, each replica its own: the worker bound, the
	// pooled lane state of every CIM stage (of *funcsim.BatchState, by stage
	// index) and the counters.
	workers    int
	pools      []sync.Pool
	requests   atomic.Uint64
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
	batchRuns  atomic.Uint64
	batchReqs  atomic.Uint64
}

// stage is one step of a Program's plan: a self-contained subgraph whose
// local node IDs map into the full graph through sub, executed either by
// compiled CIM kernels over a programmed crossbar image or by a host program.
// It is immutable once built.
type stage struct {
	sub *partition.Subgraph
	// needs lists the local IDs of the stage graph's Input nodes, every those
	// of its own nodes — what Verify extracts in place of sub.Exports.
	needs, every []int

	host *hostexec.Program // host stages

	// CIM stages: the stage's flow and image, and the flow's compute section
	// compiled into kernel closures — what every request executes, as one
	// lane of a micro-batch.
	fr   *FlowResult
	img  *funcsim.Image
	body *funcsim.CompiledFlow
}

// ProgramStats reports a program's serving counters.
type ProgramStats struct {
	// Requests is the number of successfully completed requests.
	Requests uint64
	// PoolHits counts the stage executions of a micro-batch (a Run is a
	// micro-batch of one) that reused a pooled execution state; PoolMisses
	// counts those that had to allocate a fresh one.
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
	// Partition summarizes the plan of a staged program (host fallback on a
	// graph with host-only operators, or BuildPipeline of a model that needs
	// several chips); nil for one-stage plans, including fully supported
	// graphs compiled under WithHostFallback and models BuildPipeline fits on
	// one chip. Treat it as read-only.
	Partition *PartitionStats
}

// PartitionStats summarizes a staged program's plan and the modelled latency
// decomposition, computed once at build.
type PartitionStats struct {
	// Subgraphs counts the plan's stages; CIMNodes and HostNodes the real
	// graph nodes on each target.
	Subgraphs int `json:"subgraphs"`
	CIMNodes  int `json:"cim_nodes"`
	HostNodes int `json:"host_nodes"`
	// Transfers counts the cut edges; TransferElems their total tensor
	// element volume per request. Each edge names the tier it crosses in the
	// plan (PartitionInfo.Plan.Transfers); Program.Chips is the chip count.
	Transfers     int   `json:"transfers"`
	TransferElems int64 `json:"transfer_elems"`
	// CIMCycles, HostCycles and TransferCycles decompose the aggregate
	// modelled latency (Result.Report.Cycles).
	CIMCycles      float64 `json:"cim_cycles"`
	HostCycles     float64 `json:"host_cycles"`
	TransferCycles float64 `json:"transfer_cycles"`
	// StageCycles and StageCores give each stage's modelled latency and
	// crossbar-core footprint (zero cores for host stages).
	StageCycles []float64 `json:"stage_cycles"`
	StageCores  []int     `json:"stage_cores"`
}

// BuildOption configures Compiler.Build and Compiler.BuildPipeline.
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
// reprogramming weights. Under WithHostFallback a graph with host-only
// operators builds a staged Program alternating CIM and host stages.
//
// The graph, weights and calibration tensors must not be mutated after
// Build returns.
func (c *Compiler) Build(ctx context.Context, g *Graph, w Weights, opt CodegenOptions, bopts ...BuildOption) (*Program, error) {
	if g == nil {
		return nil, fmt.Errorf("cimmlc: Build: nil graph")
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		return nil, err
	}
	return c.buildStaged(ctx, g, res, w, opt, bopts)
}

// BuildPipeline is Build for a model spread across as many chips of the
// compiler's architecture as it needs: on top of Build's cut at host-only
// operators, the graph is cut into consecutive stages whose crossbar
// footprints each fit one chip under the stationary-weights constraint (the
// partitioner's chip policy, at most maxChips chips when positive), and
// activations cross the chip-to-chip link between them. It serves the models
// Build rejects with ErrOverCapacity under WithStationaryWeights — too many
// weights for one chip, no reprogramming allowed — at the price of one
// chip-link transfer per cut edge per request. A model that fits one chip
// yields the very Program Build does.
//
// Run executes the stages in order on the calling goroutine. A serving engine
// that owns one executor per chip instead drives RunChip concurrently — chip
// c of request k+1 overlapping chip c+1 of request k.
func (c *Compiler) BuildPipeline(ctx context.Context, g *Graph, w Weights, opt CodegenOptions, maxChips int, bopts ...BuildOption) (*Program, error) {
	if g == nil {
		return nil, fmt.Errorf("cimmlc: BuildPipeline: nil graph")
	}
	res, err := c.compile(ctx, g, partition.Options{Chip: &c.arch, MaxChips: maxChips})
	if err != nil {
		return nil, fmt.Errorf("cimmlc: BuildPipeline: %w", err)
	}
	return c.buildStaged(ctx, g, res, w, opt, bopts)
}

// buildStaged assembles the Program for a compilation result: every CIM
// subgraph of its plan is lowered, calibrated on the activations it will see
// at its boundary and weight-programmed; every host subgraph becomes a
// host-executor program. A monolithic result is the one-stage plan.
func (c *Compiler) buildStaged(ctx context.Context, g *Graph, res *Result, w Weights, opt CodegenOptions, bopts []BuildOption) (*Program, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg buildConfig
	for _, o := range bopts {
		if o != nil {
			o(&cfg)
		}
	}
	p := &Program{arch: c.arch, res: res, w: w, workers: cfg.workers}
	plan, subs, err := stagePlan(g, res)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: Build: %w", err)
	}
	if res.Partition != nil {
		p.part = partitionStats(res.Partition)
	}
	p.g, p.outs = plan.Graph, plan.Graph.Outputs()
	calib := cfg.calib
	if calib == nil {
		calib = defaultCalibration(p.g)
	}
	// A calibration set is a request: held to the same check, before any stage
	// is built, so a malformed one draws the error a malformed Run input does.
	if err := funcsim.CheckInputs(p.g, calib); err != nil {
		return nil, fmt.Errorf("cimmlc: Build: calibration: %w", err)
	}
	// Boundary calibration: reference-execute the full graph on the
	// calibration set so each stage's synthetic inputs calibrate on the
	// activation distribution they will actually see. Execute re-runs shape
	// inference, so give it a private clone — plan.Graph may be shared
	// through the compiler's artifact cache. A plan without transfers has
	// no boundary: the calibration set itself covers every stage input.
	refVals := calib
	if len(plan.Transfers) > 0 {
		var err error
		if refVals, err = graph.Execute(p.g.Clone(), w, calib); err != nil {
			return nil, fmt.Errorf("cimmlc: Build: boundary calibration: %w", err)
		}
	}
	for i, sub := range plan.Subs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := c.newStage(ctx, sub, subs[i].Res, sub.SubWeights(w), refVals, opt)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: Build: stage %d: %w", i, err)
		}
		if st.img != nil {
			p.laneWords = max(p.laneWords, st.img.MemWords())
		}
		if i == 0 || sub.Chip != plan.Subs[i-1].Chip {
			p.chips = append(p.chips, i)
		}
		p.stages = append(p.stages, st)
	}
	p.chips = append(p.chips, len(p.stages))
	p.pools = make([]sync.Pool, len(p.stages))
	return p, nil
}

// Replica returns a Program that serves the same compiled artifact — the
// stages' crossbar images, kernels, host programs and calibration, all
// immutable — from lane-state pools, counters and a worker bound of its own
// (the bound starts as p's). It is how a fleet puts N executors behind one
// model: the replicas cost one Build and one image between them, answer every
// request bit for bit as p does, and share nothing a request writes to.
func (p *Program) Replica() *Program {
	return &Program{
		arch: p.arch, g: p.g, res: p.res, w: p.w, outs: p.outs, stages: p.stages, chips: p.chips, part: p.part,
		laneWords: p.laneWords,
		workers:   p.workers,
		pools:     make([]sync.Pool, len(p.stages)),
	}
}

// stagePlan returns the stages of a compilation result and the per-stage
// results that go with them: the partition's own plan, or for a monolithic
// result the one-stage plan over a private, shape-inferred copy of g.
func stagePlan(g *Graph, res *Result) (*partition.Plan, []core.SubResult, error) {
	if res.Partition != nil {
		return res.Partition.Plan, res.Partition.Subs, nil
	}
	gc, err := cloneGraph(g)
	if err != nil {
		return nil, nil, err
	}
	return wholePlan(gc), []core.SubResult{{Target: TargetCIM, Res: res}}, nil
}

// wholePlan returns the one-stage plan of a monolithic compilation: g itself
// (already shape-inferred) as the only subgraph, local node IDs equal to the
// global ones, nothing transferred.
func wholePlan(g *Graph) *partition.Plan {
	sub := &partition.Subgraph{Target: TargetCIM, G: g, LocalOf: map[int]int{}, GlobalOf: map[int]int{}, Exports: g.Outputs()}
	for id := range g.Nodes {
		sub.NodeIDs = append(sub.NodeIDs, id)
		sub.LocalOf[id], sub.GlobalOf[id] = id, id
	}
	return &partition.Plan{Graph: g, Subs: []*partition.Subgraph{sub}}
}

// newStage builds one stage of a plan. A host subgraph compiles to a
// host-executor program. A CIM subgraph is lowered from its compilation
// result res; a private, shape-inferred clone of its graph is calibrated on
// refVals (keyed by global node ID), the flow's init section is programmed
// into a crossbar image and its body compiled.
func (c *Compiler) newStage(ctx context.Context, sub *partition.Subgraph, res *Result, w Weights, refVals map[int]*Tensor, opt CodegenOptions) (*stage, error) {
	st := &stage{sub: sub}
	for _, n := range sub.G.Nodes {
		if n.Op == graph.OpInput {
			st.needs = append(st.needs, n.ID)
		} else {
			st.every = append(st.every, n.ID)
		}
	}
	if sub.Target == TargetHost {
		var err error
		st.host, err = hostexec.Compile(sub.G, w)
		return st, err
	}
	if sub.Target != TargetCIM || res == nil {
		return nil, fmt.Errorf("target %q without a CIM compilation result", sub.Target)
	}
	calib := make(map[int]*Tensor, len(st.needs))
	for _, lid := range st.needs {
		t, ok := refVals[sub.GlobalOf[lid]]
		if !ok {
			return nil, fmt.Errorf("no calibration activation for node %d", sub.GlobalOf[lid])
		}
		calib[lid] = t
	}
	fr, err := c.Lower(ctx, sub.G, res, opt)
	if err != nil {
		return nil, err
	}
	if fr.Truncated {
		return nil, fmt.Errorf("flow was truncated by codegen (MaxWindowsPerOp); not executable")
	}
	// Validate once here: per-request execution skips it.
	if err := fr.Flow.Validate(); err != nil {
		return nil, err
	}
	gc, err := cloneGraph(sub.G)
	if err != nil {
		return nil, err
	}
	a := c.arch
	if st.img, err = funcsim.NewImage(gc, &a, fr.Layout, w, calib); err != nil {
		return nil, err
	}
	if err := st.img.ProgramInit(fr.Flow.Init); err != nil {
		return nil, err
	}
	if st.body, err = st.img.CompileBody(fr.Flow.Body); err != nil {
		return nil, err
	}
	st.fr = fr
	return st, nil
}

// partitionStats derives the serving-visible summary of a staged
// compilation.
func partitionStats(info *PartitionInfo) *PartitionStats {
	ps := &PartitionStats{
		Subgraphs:      len(info.Plan.Subs),
		CIMNodes:       info.Plan.NodeCount(TargetCIM),
		HostNodes:      info.Plan.NodeCount(TargetHost),
		Transfers:      len(info.Plan.Transfers),
		TransferElems:  info.Plan.TransferElems(),
		CIMCycles:      info.CIMCycles,
		HostCycles:     info.HostCycles,
		TransferCycles: info.TransferCycles,
	}
	for _, sr := range info.Subs {
		cores := 0
		if sr.Res != nil {
			for _, f := range sr.Res.Model.FPs {
				cores += f.CoresPerCopy
			}
		}
		ps.StageCycles = append(ps.StageCycles, sr.Cycles)
		ps.StageCores = append(ps.StageCores, cores)
	}
	return ps
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

// Run executes one inference: the request steps through the plan's stages as
// a micro-batch of one lane — on CIM stages inputs are quantized with the
// stage's calibrated scales and the flow's compute section runs against a
// pooled execution state — and the tensors of the graph's output nodes are
// returned, keyed by node ID. Safe for concurrent use.
func (p *Program) Run(ctx context.Context, inputs map[int]*Tensor) (map[int]*Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	env := maps.Clone(inputs)
	if _, err := p.carry(ctx, 0, len(p.stages), []map[int]*Tensor{env}, false); err != nil {
		return nil, err
	}
	return p.outputs(env), nil
}

// RunBatch executes one inference per request map, returning results in
// request order. The requests are cut into micro-batches — each carried
// through the plan's stages lane-wise, so one pass over each programmed
// crossbar serves every lane — spread across a bounded worker pool
// (WithWorkers, default GOMAXPROCS). A request's output does not depend on
// the micro-batch that carries it.
//
// On failure the returned results are nil and the error names the failing
// request: the lowest-indexed malformed request, refused before any request
// executes; else the lowest-indexed request whose execution produced a
// genuine error, falling back to a request-indexed cancellation and only then
// to the bare context error. The first genuine error cancels the remaining
// requests.
func (p *Program) RunBatch(ctx context.Context, reqs []map[int]*Tensor) ([]map[int]*Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	envs := make([]map[int]*Tensor, len(reqs))
	for i, req := range reqs {
		envs[i] = maps.Clone(req)
	}
	if i, err := p.carry(ctx, 0, len(p.stages), envs, false); err != nil {
		if i < 0 {
			return nil, err
		}
		return nil, fmt.Errorf("cimmlc: RunBatch: request %d: %w", i, err)
	}
	for i, env := range envs {
		envs[i] = p.outputs(env)
	}
	return envs, nil
}

// Chips returns the number of chips the program occupies: 1 unless
// BuildPipeline had to spread the model over several.
func (p *Program) Chips() int { return len(p.chips) - 1 }

// RunChip executes one chip's stages alone over envs, one lane each: tensor
// environments keyed by global node IDs that hold what the earlier chips
// published and into which this chip's exports are published. It is how a
// serving engine that owns one executor per chip overlaps requests across
// chips and batches, on each chip, the requests that queued while it was
// busy. The lanes share micro-batches as RunBatch's do, and n lanes yield bit
// for bit what n one-lane calls do. An env belongs to one request and must
// not be shared between concurrent calls; different requests may run the same
// or different chips concurrently.
//
// Chip 0 admits the requests — each env must then hold exactly the graph's
// input tensors, checked as Run checks them, before any lane executes — and
// the last chip counts them and leaves the graph's outputs (Outputs) in each
// env. On error no lane is to be taken as having run the chip: what its stages
// had published by then is withdrawn from every env, so running it again on
// the same envs — all of them, or one by one to find the lane at fault — is
// harmless.
func (p *Program) RunChip(ctx context.Context, chip int, envs ...map[int]*Tensor) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if chip < 0 || chip >= p.Chips() {
		return fmt.Errorf("cimmlc: RunChip: chip %d out of range [0,%d)", chip, p.Chips())
	}
	_, err := p.carry(ctx, p.chips[chip], p.chips[chip+1], envs, false)
	return err
}

// carry is the one lane carrier behind Run, RunBatch, RunChip and Verify: it
// takes envs — one request each, the tensors the plan has produced for it so
// far keyed by global node ID — through stages [lo, hi), which publish their
// exports (every node's value when every is set) into them. From stage 0 it
// first admits the requests, checking each against the full graph, so a
// malformed request draws the same error, naming global node IDs, from every
// plan shape and before any lane executes. The lanes are cut into
// micro-batches spread across the worker pool. On failure it returns the
// request to blame, -1 when the context alone is, and leaves in no env a
// value the stages published: a chip is several stages when host stages ride
// with it and its lanes several work items, so some had published when
// another failed, and an env must hold the graph's inputs alone to be
// admitted again.
func (p *Program) carry(ctx context.Context, lo, hi int, envs []map[int]*Tensor, every bool) (req int, err error) {
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	if lo == 0 {
		for i, env := range envs {
			if err := funcsim.CheckInputs(p.g, env); err != nil {
				return i, err
			}
		}
	}
	defer func() {
		if err == nil {
			return
		}
		for _, st := range p.stages[lo:hi] {
			for _, lid := range st.every {
				for _, env := range envs {
					delete(env, st.sub.GlobalOf[lid])
				}
			}
		}
	}()
	if len(envs) == 0 {
		return -1, nil
	}
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Work item k is requests [cuts[k], cuts[k+1]).
	cuts := p.batchCuts(len(envs), min(workers, len(envs)))
	if cuts == nil {
		return p.through(ctx, lo, hi, envs, every)
	}
	items := len(cuts) - 1

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rec := &batchErrors{cancel: cancel}
	runItem := func(k int) {
		if lane, err := p.through(ctx, lo, hi, envs[cuts[k]:cuts[k+1]], every); err != nil {
			rec.record(cuts[k]+lane, err)
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
	return rec.resolve(ctx)
}

// testHookStep is a test seam, nil outside tests: step calls it with the stage
// and the micro-batch it is about to run, and fails as the hook does — the
// lane to blame and its error — so a test can park a worker or fail a request
// inside one, after admission, where no well-formed input can.
var testHookStep func(ctx context.Context, stage int, envs []map[int]*Tensor) (lane int, err error)

// batchErrors aggregates the per-request failures of one carry. Genuine
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
	e.mu.Lock()
	defer e.mu.Unlock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The request observed the batch's cancellation; it did not cause
		// the failure. Keep it only as a fallback attribution.
		if e.cancelErr == nil || i < e.cancelIdx {
			e.cancelErr, e.cancelIdx = err, i
		}
		return
	}
	if e.err == nil || i < e.errIdx {
		e.err, e.errIdx = err, i
	}
	e.cancel()
}

func (e *batchErrors) failed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err != nil
}

// resolve picks the failure to report after all workers have joined (no
// locking needed: Wait establishes happens-before).
func (e *batchErrors) resolve(ctx context.Context) (int, error) {
	switch {
	case e.err != nil:
		return e.errIdx, e.err
	case ctx.Err() != nil:
		if e.cancelErr != nil {
			return e.cancelIdx, e.cancelErr
		}
		return -1, ctx.Err()
	}
	return -1, nil
}

// maxMicroBatchWords caps a micro-batch's total lane memory at 1 MiB of
// words (1 << 17), within a core's private L2. A micro-batch runs
// kernel-major — every lane through a sweep, then through the next kernel —
// so all its lanes' activations must survive between kernels in the cache of
// the core carrying it, not in a last-level cache shared with every other
// core. On a 2-vCPU Xeon (2 MiB L2 per core), RunBatch of 64 at two workers
// (ms, median of 30 rounds) read, at 8 MB / 1 MB / one lane per item:
// conv-relu.isaac-baseline 42.3 / 35.3 / 35.4, lenet5.puma 14.9 / 13.2 /
// 13.9, conv-gate.puma 12.4 / 11.2 / 10.7, and mlp.puma 4.09 / 4.18 / 4.98:
// lanes still pay where they share weight passes, as long as they fit.
const maxMicroBatchWords = int64(1) << 17

// laneCap is the most lanes one micro-batch may carry under the lane-memory
// budget, and never fewer than two: a batch of two or more requests always
// shares micro-batches, and where the floor binds it costs nothing (two lanes
// of conv-relu.isaac-baseline per item measure as one).
func (p *Program) laneCap() int {
	return int(min(64, max(2, maxMicroBatchWords/max(1, p.laneWords))))
}

// batchCuts cuts n requests into carry's work items, runs of consecutive
// requests: item k is requests [cuts[k], cuts[k+1]). Micro-batches are sized
// to keep every worker busy, capped by laneCap, and balanced (16 lanes under
// a cap of 15 become 8+8, not 15+1) so none degenerates to a near-empty
// tail. A batch that needs more items than workers gets a multiple of the
// workers, so none idles through the last round (64 under a cap of 23 on two
// workers become 4 × 16, not 3 items), as long as every item keeps two lanes.
// One micro-batch of all n is nil: nothing is cut.
func (p *Program) batchCuts(n, workers int) []int {
	mb := min((n+workers-1)/workers, p.laneCap())
	chunks := (n + mb - 1) / mb
	if chunks > workers {
		if even := (chunks + workers - 1) / workers * workers; n/even >= 2 {
			chunks = even
		}
	}
	if chunks == 1 {
		return nil
	}
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

// through carries one micro-batch, a lane per env, through stages [lo, hi).
// On failure it returns the lane to blame.
func (p *Program) through(ctx context.Context, lo, hi int, envs []map[int]*Tensor, every bool) (int, error) {
	for i := lo; i < hi; i++ {
		if lane, err := p.step(ctx, i, envs, every); err != nil {
			return lane, err
		}
	}
	return 0, nil
}

// step runs stage i over a micro-batch: each lane's stage inputs are read
// from its environment, the stage executes — CIM kernels over all lanes at
// once, a host program lane by lane — and the stage's exports (every node's
// value when every is set) are published back under their global IDs. On
// failure it returns the lane to blame: input and host errors belong to
// their lane; kernel errors do not depend on lane data, so lane 0 stands for
// all. The final stage counts the lanes as completed requests and, two or more
// of them, as one micro-batch.
func (p *Program) step(ctx context.Context, i int, envs []map[int]*Tensor, every bool) (int, error) {
	if testHookStep != nil {
		if lane, err := testHookStep(ctx, i, envs); err != nil {
			return lane, err
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	st := p.stages[i]
	ids := st.sub.Exports
	if every {
		ids = st.every
	}
	ins := make([]map[int]*Tensor, len(envs))
	for lane, env := range envs {
		in := make(map[int]*Tensor, len(st.needs))
		for _, lid := range st.needs {
			t, ok := env[st.sub.GlobalOf[lid]]
			if !ok {
				return lane, fmt.Errorf("cimmlc: stage %d: boundary value of node %d not provided", i, st.sub.GlobalOf[lid])
			}
			in[lid] = t
		}
		ins[lane] = in
	}
	outs := make([]map[int]*Tensor, len(envs))
	if st.host != nil {
		for lane, in := range ins {
			var err error
			if outs[lane], err = st.host.Run(ctx, in); err != nil {
				return lane, fmt.Errorf("cimmlc: stage %d: %w", i, err)
			}
		}
	} else if lane, err := p.runKernels(i, ins, outs, ids); err != nil {
		return lane, fmt.Errorf("cimmlc: stage %d: %w", i, err)
	}
	for lane, env := range envs {
		for _, lid := range ids {
			env[st.sub.GlobalOf[lid]] = outs[lane][lid]
		}
	}
	if i == len(p.stages)-1 {
		p.requests.Add(uint64(len(envs)))
		if len(envs) > 1 {
			p.batchRuns.Add(1)
			p.batchReqs.Add(uint64(len(envs)))
		}
	}
	return 0, nil
}

// runKernels executes ins as one micro-batch, a lane each, through CIM stage
// i's compiled kernels on a pooled execution state and stores the tensors of
// the stage's local nodes ids in outs.
func (p *Program) runKernels(i int, ins, outs []map[int]*Tensor, ids []int) (int, error) {
	st, pool := p.stages[i], &p.pools[i]
	var bs *funcsim.BatchState
	if v := pool.Get(); v != nil {
		p.poolHits.Add(1)
		bs = v.(*funcsim.BatchState)
		st.img.ResetBatch(bs, len(ins))
	} else {
		p.poolMisses.Add(1)
		bs = st.img.NewBatchState(len(ins))
	}
	defer pool.Put(bs)
	bm := st.img.ExecBatch(bs)
	for lane, in := range ins {
		if err := bm.LoadInputs(lane, in); err != nil {
			return lane, err
		}
	}
	if err := bm.RunBody(st.body); err != nil {
		return 0, err
	}
	bm.SettleAll()
	for lane := range ins {
		outs[lane] = bm.TensorsOf(lane, ids)
	}
	return 0, nil
}

// outputs projects a finished lane's environment onto the graph's output
// nodes.
func (p *Program) outputs(env map[int]*Tensor) map[int]*Tensor {
	outs := make(map[int]*Tensor, len(p.outs))
	for _, id := range p.outs {
		outs[id] = env[id]
	}
	return outs
}

// Verify checks the program's execution of inputs against the reference
// executors. Every CIM stage must match the quantized reference executor bit
// for bit — its image's Reference, on the scales and quantized weights fixed
// at build time — on the boundary activations it actually received; the
// graph's outputs must stay within floatTol of the float reference, relative
// to each output's max magnitude.
//
// For a one-stage plan the first check covers the whole program: it is
// bit-exact end to end. A staged plan has no single quantized reference —
// every CIM stage re-quantizes its boundary activations and host stages
// compute in float32 where a monolithic pipeline would have quantized the
// digital operators — so across its cut edges only the float tolerance holds.
func (p *Program) Verify(ctx context.Context, inputs map[int]*Tensor, floatTol float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	env := maps.Clone(inputs)
	if _, err := p.carry(ctx, 0, len(p.stages), []map[int]*Tensor{env}, true); err != nil {
		return err
	}
	for i, st := range p.stages {
		if st.img == nil {
			continue // host stages compute in float: nothing quantized to hold them to
		}
		in := make(map[int]*Tensor, len(st.needs))
		for _, lid := range st.needs {
			in[lid] = env[st.sub.GlobalOf[lid]]
		}
		want, err := st.img.Reference(in)
		if err != nil {
			return err
		}
		got := make(map[int]*Tensor, len(st.every))
		for _, lid := range st.every {
			got[lid] = env[st.sub.GlobalOf[lid]]
		}
		if err := funcsim.CheckExact(st.img.Graph(), got, want); err != nil {
			return fmt.Errorf("cimmlc: Verify: stage %d: %w", i, err)
		}
	}
	ref, err := graph.Execute(p.g.Clone(), p.w, inputs)
	if err != nil {
		return err
	}
	for _, id := range p.outs {
		if i := tensor.FirstNonFinite(ref[id]); i >= 0 {
			return fmt.Errorf("cimmlc: Verify: output %d: float reference element %d is %v", id, i, ref[id].Data()[i])
		}
		scale := 0.0
		for _, v := range ref[id].Data() {
			scale = max(scale, math.Abs(float64(v)))
		}
		if scale == 0 {
			scale = 1
		}
		d, err := tensor.MaxAbsDiff(env[id], ref[id])
		if err != nil {
			return fmt.Errorf("cimmlc: Verify: output %d: %w", id, err)
		}
		if d > floatTol*scale {
			return fmt.Errorf("cimmlc: Verify: output %d diverges from float reference by %g (tol %g of max magnitude %g)", id, d, floatTol, scale)
		}
	}
	return nil
}

// Stats returns a snapshot of the program's serving counters.
func (p *Program) Stats() ProgramStats {
	return ProgramStats{
		Requests:        p.requests.Load(),
		PoolHits:        p.poolHits.Load(),
		PoolMisses:      p.poolMisses.Load(),
		BatchRuns:       p.batchRuns.Load(),
		BatchedRequests: p.batchReqs.Load(),
		Tuning:          p.res.Tuning,
		Partition:       p.part,
	}
}

// Result returns the compilation result the program was built from: the
// schedule, placement and performance report of a one-stage plan; for a
// staged plan the aggregate report plus Result.Partition, which carries the
// per-stage results.
func (p *Program) Result() *Result { return p.res }

// Flow returns the generated meta-operator flow and buffer layout of a
// one-stage program; nil for staged programs, which have one flow per CIM
// stage. Treat it as read-only.
func (p *Program) Flow() *FlowResult {
	if len(p.stages) != 1 {
		return nil
	}
	return p.stages[0].fr
}

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
