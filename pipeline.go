package cimmlc

import (
	"context"
	"fmt"
	"sync/atomic"

	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/partition"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/tensor"
)

// pipelineStage is one chip of a multi-chip Pipeline: a full inner Program
// (compiled, lowered and weight-programmed for that chip's slice of the
// model) plus the subgraph metadata mapping its local node IDs back into the
// full graph.
type pipelineStage struct {
	sub  *partition.Subgraph
	prog *Program
}

// Pipeline is a model compiled across several chips: the graph is cut into
// consecutive stages whose crossbar footprints each fit one chip under the
// stationary-weights constraint, and activations cross the chip-to-chip link
// at every cut. It is the escape hatch for models WithStationaryWeights
// rejects with ErrOverCapacity — too many weights for one chip, no
// reprogramming allowed — at the price of one chip-link transfer per cut
// edge per request.
//
// Run executes the stages in order on the calling goroutine. A serving fleet
// that owns one executor per chip instead drives RunStage concurrently —
// stage i of request k+1 overlapping stage i+1 of request k — using
// StageBoundary to route activations between the per-chip goroutines.
//
// A Pipeline is immutable after build and safe for concurrent use.
type Pipeline struct {
	arch   Arch
	g      *Graph // full graph clone, shape-inferred
	plan   *partition.Plan
	stages []*pipelineStage
	outs   []int

	requests atomic.Uint64
}

// PipelineStats summarizes a Pipeline's multi-chip plan and modelled costs.
type PipelineStats struct {
	// Stages is the chip count; StageCores and StageCycles give each
	// stage's crossbar-core footprint and modelled latency.
	Stages      int       `json:"stages"`
	StageCores  []int     `json:"stage_cores"`
	StageCycles []float64 `json:"stage_cycles"`
	// Transfers counts the cut edges crossing chip links; TransferElems
	// their total tensor element volume per request; TransferCycles the
	// modelled chip-link cost of moving them.
	Transfers      int     `json:"transfers"`
	TransferElems  int64   `json:"transfer_elems"`
	TransferCycles float64 `json:"transfer_cycles"`
	// Requests is the number of successfully completed Run calls (stage-wise
	// execution through RunStage counts on the final stage).
	Requests uint64 `json:"requests"`
}

// BuildPipeline compiles g across several chips of the compiler's
// architecture: the graph is split by partition.ChipStages into consecutive
// capacity-bounded stages, and every stage is compiled, lowered, calibrated
// and weight-programmed like a monolithic build. maxChips bounds the chip
// count when positive.
//
// Call it when Build fails with ErrOverCapacity under WithStationaryWeights;
// it also accepts models that fit one chip (yielding a single-stage
// pipeline). Graphs with host-only operators are rejected — cross-chip
// pipelining composes with pure-CIM models only.
func (c *Compiler) BuildPipeline(ctx context.Context, g *Graph, w Weights, opt CodegenOptions, maxChips int, bopts ...BuildOption) (*Pipeline, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return nil, fmt.Errorf("cimmlc: BuildPipeline: nil graph")
	}
	var cfg buildConfig
	for _, o := range bopts {
		if o != nil {
			o(&cfg)
		}
	}
	a := c.arch
	plan, err := partition.ChipStages(g, &a, maxChips)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: BuildPipeline: %w", err)
	}

	calib := cfg.calib
	if calib == nil {
		calib = defaultCalibration(plan.Graph)
	}
	// Boundary calibration, as in the partitioned build: reference-execute
	// the full graph so each stage's synthetic inputs calibrate on the
	// activation distribution they will see at the chip boundary.
	refVals, err := graph.Execute(plan.Graph.Clone(), w, calib)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: BuildPipeline: boundary calibration: %w", err)
	}

	pl := &Pipeline{
		arch: a,
		g:    plan.Graph,
		plan: plan,
		outs: plan.Graph.Outputs(),
	}
	for _, sub := range plan.Subs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		subCalib := make(map[int]*Tensor, len(sub.G.InputIDs()))
		for _, lid := range sub.G.InputIDs() {
			gid := sub.GlobalOf[lid]
			t, ok := refVals[gid]
			if !ok {
				return nil, fmt.Errorf("cimmlc: BuildPipeline: stage %d: no calibration activation for node %d", sub.Index, gid)
			}
			subCalib[lid] = t
		}
		res, err := c.Compile(ctx, sub.G)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: BuildPipeline: stage %d: %w", sub.Index, err)
		}
		fr, err := c.Lower(ctx, sub.G, res, opt)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: BuildPipeline: stage %d: %w", sub.Index, err)
		}
		subW := sub.SubWeights(w)
		// One chip executes serially: workers=1 regardless of cfg — the
		// pipeline's parallelism is across stages, not within one.
		ip, err := c.newProgram(sub.G, fr, subW, buildConfig{calib: subCalib, workers: 1})
		if err != nil {
			return nil, fmt.Errorf("cimmlc: BuildPipeline: stage %d: %w", sub.Index, err)
		}
		ip.res = res
		// The pipeline consumes the stage's exports, not the stage graph's
		// own terminal nodes.
		ip.outs = append([]int(nil), sub.Exports...)
		pl.stages = append(pl.stages, &pipelineStage{sub: sub, prog: ip})
	}
	return pl, nil
}

// Stages returns the pipeline's chip count.
func (pl *Pipeline) Stages() int { return len(pl.stages) }

// Inputs returns the full graph's input node IDs mapped to their tensor
// shapes — the request schema, identical to the single-chip Program's.
func (pl *Pipeline) Inputs() map[int][]int {
	ins := make(map[int][]int)
	for _, id := range pl.g.InputIDs() {
		n := pl.g.MustNode(id)
		s := make([]int, len(n.OutShape))
		copy(s, n.OutShape)
		ins[id] = s
	}
	return ins
}

// Outputs returns the full graph's output node IDs.
func (pl *Pipeline) Outputs() []int {
	out := make([]int, len(pl.outs))
	copy(out, pl.outs)
	return out
}

// StageBoundary returns stage i's data interface in global node IDs: needs
// lists the values the stage reads (graph inputs and earlier stages'
// exports), exports the values it publishes. A fleet routes activations
// between per-chip goroutines by these IDs.
func (pl *Pipeline) StageBoundary(i int) (needs, exports []int) {
	sub := pl.stages[i].sub
	for _, lid := range sub.G.InputIDs() {
		needs = append(needs, sub.GlobalOf[lid])
	}
	for _, lid := range sub.Exports {
		exports = append(exports, sub.GlobalOf[lid])
	}
	return needs, exports
}

// RunStage executes stage i against env, a tensor environment keyed by
// global node IDs that must hold every ID in the stage's needs list
// (StageBoundary). It returns the stage's exports keyed by global node ID,
// never touching env itself — safe for concurrent calls on different stages
// (the per-chip goroutines of a fleet) and on the same stage (one chip
// serving its state pool).
//
// Calling the final stage increments the pipeline's request counter.
func (pl *Pipeline) RunStage(ctx context.Context, i int, env map[int]*Tensor) (map[int]*Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if i < 0 || i >= len(pl.stages) {
		return nil, fmt.Errorf("cimmlc: RunStage: stage %d out of range [0,%d)", i, len(pl.stages))
	}
	st := pl.stages[i]
	subIn := make(map[int]*Tensor, len(st.sub.G.InputIDs()))
	for _, lid := range st.sub.G.InputIDs() {
		gid := st.sub.GlobalOf[lid]
		t, ok := env[gid]
		if !ok {
			return nil, fmt.Errorf("cimmlc: RunStage: stage %d: boundary value of node %d not provided", i, gid)
		}
		subIn[lid] = t
	}
	out, err := st.prog.Run(ctx, subIn)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: RunStage: stage %d: %w", i, err)
	}
	exports := make(map[int]*Tensor, len(st.sub.Exports))
	for _, lid := range st.sub.Exports {
		t, ok := out[lid]
		if !ok {
			return nil, fmt.Errorf("cimmlc: RunStage: stage %d: export %d missing from result", i, lid)
		}
		exports[st.sub.GlobalOf[lid]] = t
	}
	if i == len(pl.stages)-1 {
		pl.requests.Add(1)
	}
	return exports, nil
}

// Run executes one inference by stepping the stages in order on the calling
// goroutine, threading activations through a shared environment. Fleets
// overlap requests across stages with RunStage instead.
func (pl *Pipeline) Run(ctx context.Context, inputs map[int]*Tensor) (map[int]*Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	env := make(map[int]*Tensor, len(pl.g.Nodes))
	for _, id := range pl.g.InputIDs() {
		t, ok := inputs[id]
		if !ok {
			return nil, fmt.Errorf("cimmlc: Run: no input tensor provided for node %d", id)
		}
		env[id] = t
	}
	for i := range pl.stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		exports, err := pl.RunStage(ctx, i, env)
		if err != nil {
			return nil, err
		}
		for gid, t := range exports {
			env[gid] = t
		}
	}
	outs := make(map[int]*Tensor, len(pl.outs))
	for _, id := range pl.outs {
		t, ok := env[id]
		if !ok {
			return nil, fmt.Errorf("cimmlc: Run: output node %d was never computed", id)
		}
		outs[id] = t
	}
	return outs, nil
}

// Verify checks the pipeline's execution of inputs against the float
// reference executor within floatTol (relative to each output's max
// magnitude). There is no single quantized reference across chips: every
// stage re-quantizes its boundary activations, so the bit-exact check of the
// monolithic Verify does not apply across cut edges.
func (pl *Pipeline) Verify(ctx context.Context, inputs map[int]*Tensor, floatTol float64) error {
	got, err := pl.Run(ctx, inputs)
	if err != nil {
		return err
	}
	ref, err := graph.Execute(pl.g.Clone(), pl.stagesWeights(), inputs)
	if err != nil {
		return err
	}
	for _, id := range pl.outs {
		scale := 0.0
		for _, v := range ref[id].Data() {
			a := float64(v)
			if a < 0 {
				a = -a
			}
			if a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
		d, err := tensor.MaxAbsDiff(got[id], ref[id])
		if err != nil {
			return fmt.Errorf("cimmlc: Verify: output %d: %w", id, err)
		}
		if d > floatTol*scale {
			return fmt.Errorf("cimmlc: Verify: output %d diverges from float reference by %g (tol %g of max magnitude %g)", id, d, floatTol, scale)
		}
	}
	return nil
}

// stagesWeights reassembles the full-graph weight map from the stages'
// local ones.
func (pl *Pipeline) stagesWeights() Weights {
	w := Weights{}
	for _, st := range pl.stages {
		for _, gid := range st.sub.NodeIDs {
			if t, ok := st.prog.w[st.sub.LocalOf[gid]]; ok {
				w[gid] = t
			}
		}
	}
	return w
}

// Stats returns a snapshot of the pipeline's plan and serving counters.
func (pl *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Stages:    len(pl.stages),
		Transfers: len(pl.plan.Transfers),
		Requests:  pl.requests.Load(),
	}
	for _, s := range pl.stages {
		cores := 0
		if fps, err := mapping.Footprints(s.sub.G.Clone(), &pl.arch); err == nil {
			for _, f := range fps {
				cores += f.CoresPerCopy
			}
		}
		st.StageCores = append(st.StageCores, cores)
		cycles := 0.0
		if s.prog.res != nil && s.prog.res.Report != nil {
			cycles = s.prog.res.Report.Cycles
		}
		st.StageCycles = append(st.StageCycles, cycles)
	}
	for _, t := range pl.plan.Transfers {
		st.TransferElems += t.Elems
		st.TransferCycles += perfsim.ChipTransferCost(&pl.arch, t.Elems)
	}
	return st
}

// Arch returns a copy of the architecture the pipeline was built for.
func (pl *Pipeline) Arch() *Arch {
	a := pl.arch
	return &a
}
