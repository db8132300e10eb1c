// Package core is the CIM-MLC compiler driver: the multi-level scheduling
// workflow of Figure 3, organized as a pipeline of passes over a shared
// PassContext. CG-grained optimization always applies, MVM-grained applies
// when the architecture exposes XBM or finer, VVM-grained when it exposes
// WLM; placement and performance simulation follow. User passes registered
// via Insertion slot in between the built-ins.
package core

import (
	"context"
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/irverify"
	"cimmlc/internal/mapping"
	"cimmlc/internal/partition"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
	"cimmlc/internal/tuner"
)

// Options tunes the compilation. The zero value enables every optimization
// the target's computing mode supports — the paper's full CIM-MLC stack.
type Options struct {
	// DisablePipeline / DisableDuplication / DisableStagger / DisableRemap
	// switch off individual techniques (used by the ablation experiments).
	DisablePipeline    bool
	DisableDuplication bool
	DisableStagger     bool
	DisableRemap       bool
	// MaxLevel caps the optimization at a coarser computing mode than the
	// architecture exposes ("" means no cap): CM stops after CG-grained,
	// XBM after MVM-grained.
	MaxLevel arch.Mode
	// Allocator overrides the CG duplication search strategy.
	Allocator cg.Allocator
	// Tune, when non-nil, runs the schedule autotuner after the level
	// optimizers under the given search budget (see internal/tuner).
	Tune *tuner.Budget
	// VerifyIR runs the static IR verifier (internal/irverify) on the
	// input graph and after every pipeline pass: graph well-formedness,
	// schedule legality against the computing-mode level, and mapping
	// soundness become errors at the stage that broke them instead of
	// wrong numbers downstream.
	VerifyIR bool
	// HostFallback partitions graphs containing host-only operators into
	// CIM and host subgraphs (internal/partition) instead of rejecting
	// them; CIM subgraphs run the normal pipeline, host subgraphs lower to
	// the host executor. Fully supported graphs are unaffected: they
	// compile monolithically whether or not this is set.
	HostFallback bool
	// Stationary forbids weight reloading during execution: models whose
	// crossbar footprint exceeds one chip fail with cg.ErrOverCapacity
	// instead of compiling to segmented (reprogrammed) schedules. Serving
	// fleets set it so over-capacity models route to multi-chip pipelining.
	Stationary bool
}

// Result bundles everything the compiler produced.
type Result struct {
	Schedule  *sched.Schedule
	Placement *mapping.Placement
	Report    *perfsim.Report
	Model     *cost.Model
	// Tuning reports the autotune search when Options.Tune was set
	// (heuristic vs tuned cycles, budget spent, accepted moves); nil for
	// untuned compilations.
	Tuning *tuner.Stats
	// Partition is set for staged compilations (host fallback on a graph
	// with host-only operators, or a model cut across chips): the plan plus
	// per-subgraph results.
	// Schedule, Placement and Model are then nil at the top level — the
	// per-subgraph results carry them — and Report is the aggregate.
	Partition *PartitionInfo
}

// Compile runs the multi-level scheduling workflow on one chip. Like
// CompilePasses it infers g's shapes into g itself; it validates g and a first.
func Compile(g *graph.Graph, a *arch.Arch, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var extras []Insertion
	if opt.Tune != nil {
		extras = append(extras, Insertion{After: PassVVM, Pass: TunePass()})
	}
	passes, err := BuildPasses(extras)
	if err != nil {
		return nil, err
	}
	return CompilePasses(context.Background(), g, a, opt, partition.Options{}, passes, nil)
}

// CompilePasses runs a prebuilt pipeline (see BuildPasses) over a fresh
// PassContext, reporting each step to trace (which may be nil). It is the
// entry point the public Compiler uses so one validated pipeline can be
// shared by many concurrent compilations.
//
// g must be valid (graph.Validate) and a valid (arch.Validate), which
// CompilePasses does not check again, and g must be the compilation's own:
// its shapes are inferred into it here, once — by irverify.VerifyGraph under
// the verifier — and from then on it is only read: the Result's schedule (or
// its plan) refers to it, and Lower, Build and Analyze read it as compiled.
// The public Compiler hands it a private Clone of its caller's graph and the
// architecture snapshot New validated.
//
// cut selects the partitioner's policies. A graph the cutter leaves whole —
// nothing for the host, and either no chip policy or a footprint that fits
// one chip — compiles as itself; any other becomes a staged plan.
func CompilePasses(ctx context.Context, g *graph.Graph, a *arch.Arch, opt Options, cut partition.Options, passes []Pass, trace func(TraceEvent)) (*Result, error) {
	if !opt.HostFallback {
		if err := RequireCIMLowering(g); err != nil {
			return nil, err
		}
	}
	if opt.VerifyIR {
		// The verifier's input check, once, before any pass or the cutter:
		// the cutter's subgraphs are its own output, checked by VerifyPartition.
		if vs := irverify.VerifyGraph(g); len(vs) > 0 {
			return nil, fmt.Errorf("core: %w", &irverify.Error{Stage: "input", Violations: vs})
		}
	} else if err := g.InferValidShapes(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(g.HostOnlyNodeIDs()) == 0 && cut.Chip == nil && len(cut.ForceHost) == 0 {
		// No policy has anything to say, so the cutter could only hand the graph
		// back whole — after cloning it and extracting it once more. That is
		// what every plain Compile would pay: measured on
		// BenchmarkCompileThroughput, vgg16.toy-table2 goes from 0.12 ms, 71 KB
		// and 597 allocations per compile to 0.17 ms, 104 KB and 1135 without
		// this shortcut, lenet5.isaac-baseline from 0.10 ms to 0.13 ms.
		return compileSingle(ctx, g, a, opt, passes, trace)
	}
	plan, err := partition.Partition(g, cut)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(plan.Subs) == 1 && plan.Subs[0].Target == graph.TargetCIM {
		return compileSingle(ctx, g, a, opt, passes, trace)
	}
	return compilePlan(ctx, plan, a, opt, passes, trace)
}

// RequireCIMLowering refuses a graph with a host-only operator: without host
// fallback nothing can place it, so every scheduler that maps a whole graph
// onto the chip checks this first.
func RequireCIMLowering(g *graph.Graph) error {
	hostIDs := g.HostOnlyNodeIDs()
	if len(hostIDs) == 0 {
		return nil
	}
	n := g.Nodes[hostIDs[0]]
	return fmt.Errorf("core: graph %q: node %q (%s) has no CIM lowering (available: %s); enable host fallback (cimmlc.WithHostFallback) to partition it onto the host CPU",
		g.Name, n.Name, n.Op, joinOps(graph.CIMLowerableOps()))
}

// compileSingle runs the single-target (pure CIM) pipeline — the paper's
// workflow, unchanged by the multi-target refactor. g is valid and
// shape-inferred (by CompilePasses, or as an extracted subgraph) and a
// validated; nothing here writes g.
func compileSingle(ctx context.Context, g *graph.Graph, a *arch.Arch, opt Options, passes []Pass, trace func(TraceEvent)) (*Result, error) {
	m, err := cost.New(g, a)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	level := a.Mode
	if opt.MaxLevel.Valid() && !opt.MaxLevel.AtLeast(level) {
		level = opt.MaxLevel
	}

	pc := &PassContext{Graph: g, Arch: a, Opt: opt, Level: level, Model: m}
	if err := RunPasses(ctx, passes, pc, trace); err != nil {
		return nil, err
	}
	return &Result{Schedule: pc.Schedule, Placement: pc.Placement, Report: pc.Report, Model: m, Tuning: pc.Tuning}, nil
}
