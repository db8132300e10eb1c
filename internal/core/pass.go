package core

import (
	"context"
	"fmt"
	"time"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/irverify"
	"cimmlc/internal/mapping"
	"cimmlc/internal/mvm"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
	"cimmlc/internal/tuner"
	"cimmlc/internal/vvm"
)

// Pass is one stage of the compilation pipeline. The three optimization
// phases of Figure 3 (CG-grained, MVM-grained, VVM-grained), placement and
// simulation are built-in passes; user passes slot in between them via
// Insertion. A pass must be safe for concurrent Run calls on distinct
// PassContexts — the same pipeline is shared by every compilation of a
// Compiler.
type Pass interface {
	// Name identifies the pass in traces, errors and insertion anchors.
	Name() string
	// Applicable reports whether the pass runs at the given effective
	// computing-mode ceiling (the architecture's mode capped by
	// Options.MaxLevel).
	Applicable(mode arch.Mode) bool
	// Run executes the pass, reading and updating the context in place.
	Run(ctx context.Context, pc *PassContext) error
}

// PassContext carries one compilation's state through the pipeline. Built-in
// passes populate Schedule, Placement and Report in order; user passes may
// inspect and rewrite those three. No pass writes Graph, Arch or Model: they
// are checked once, before the pipeline runs, and read as checked.
type PassContext struct {
	Graph *graph.Graph
	Arch  *arch.Arch
	Opt   Options
	// Level is the effective optimization ceiling for this compilation.
	Level arch.Mode
	// Model is the shared cost model, built before the pipeline runs.
	Model *cost.Model
	// Schedule is set by the CG pass and refined by MVM/VVM.
	Schedule *sched.Schedule
	// Placement is set by the placement pass.
	Placement *mapping.Placement
	// Report is set by the simulate pass.
	Report *perfsim.Report
	// Tuning is set by the autotune pass when Options.Tune is enabled.
	Tuning *tuner.Stats
}

// TraceEvent describes one pipeline step for Options' trace hooks.
type TraceEvent struct {
	// Pass is the pass name, or "cache-hit" for a memoized compilation.
	Pass string
	// Duration is how long the pass ran (zero when skipped).
	Duration time.Duration
	// Skipped is true when the pass was not applicable at the
	// compilation's effective computing-mode ceiling.
	Skipped bool
}

// Built-in pass names, usable as Insertion anchors.
const (
	PassCG       = "cg-grained"
	PassMVM      = "mvm-grained"
	PassVVM      = "vvm-grained"
	PassPlace    = "placement"
	PassSimulate = "simulate"
)

// Insertion slots a user pass into the built-in sequence, immediately after
// the named built-in pass. An empty After inserts after the last
// optimization pass (VVM-grained), i.e. before placement. Multiple
// insertions at the same anchor run in the order they were supplied.
type Insertion struct {
	After string
	Pass  Pass
}

// builtinPasses returns the Figure-3 pipeline in execution order.
func builtinPasses() []Pass {
	return []Pass{cgPass{}, mvmPass{}, vvmPass{}, placePass{}, simulatePass{}}
}

// BuildPasses assembles the pipeline: the built-in passes with each user
// insertion spliced in after its anchor. It rejects nil passes, unknown
// anchors, user passes that shadow a built-in name, and duplicate user pass
// names — pass names are the only pass identity folded into the compiler's
// artifact-cache key, so two distinct passes sharing a name would share
// cache entries.
func BuildPasses(extras []Insertion) ([]Pass, error) {
	builtins := builtinPasses()
	names := make(map[string]bool, len(builtins))
	for _, p := range builtins {
		names[p.Name()] = true
	}
	after := make(map[string][]Pass)
	userNames := make(map[string]bool, len(extras))
	for _, ins := range extras {
		if ins.Pass == nil {
			return nil, fmt.Errorf("core: nil pass inserted after %q", ins.After)
		}
		name := ins.Pass.Name()
		if name == "" {
			return nil, fmt.Errorf("core: user pass inserted after %q has empty name", ins.After)
		}
		if names[name] {
			return nil, fmt.Errorf("core: user pass shadows built-in pass %q", name)
		}
		if userNames[name] {
			return nil, fmt.Errorf("core: duplicate user pass name %q (pass names key the artifact cache and must be unique)", name)
		}
		userNames[name] = true
		anchor := ins.After
		if anchor == "" {
			anchor = PassVVM
		}
		if !names[anchor] {
			return nil, fmt.Errorf("core: unknown insertion anchor %q (built-ins: %s, %s, %s, %s, %s)",
				ins.After, PassCG, PassMVM, PassVVM, PassPlace, PassSimulate)
		}
		after[anchor] = append(after[anchor], ins.Pass)
	}
	passes := make([]Pass, 0, len(builtins)+len(extras))
	for _, p := range builtins {
		passes = append(passes, p)
		passes = append(passes, after[p.Name()]...)
	}
	return passes, nil
}

// RunPasses executes a pipeline over the context, checking ctx before every
// pass and reporting each step to trace (which may be nil). After each pass
// it checks what that pass can have changed, once (see check).
func RunPasses(ctx context.Context, passes []Pass, pc *PassContext, trace func(TraceEvent)) error {
	for _, p := range passes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: cancelled before pass %s: %w", p.Name(), err)
		}
		if !p.Applicable(pc.Level) {
			if trace != nil {
				trace(TraceEvent{Pass: p.Name(), Skipped: true})
			}
			continue
		}
		start := time.Now()
		if err := p.Run(ctx, pc); err != nil {
			return fmt.Errorf("core: %s: %w", p.Name(), err)
		}
		if err := check(p, pc); err != nil {
			return fmt.Errorf("core: %s: %w", p.Name(), err)
		}
		if trace != nil {
			trace(TraceEvent{Pass: p.Name(), Duration: time.Since(start)})
		}
	}
	return nil
}

// check checks what pass p can have changed. A built-in pass is trusted:
// only the verifier (Options.VerifyIR) looks at the one artifact it writes
// (simulate writes only the report). A pass BuildPasses spliced in is
// outside input: its schedule is checked even with the verifier off, and
// with it on everything it can have rewritten is, graph included.
func check(p Pass, pc *PassContext) error {
	verify := pc.Opt.VerifyIR
	var vs []irverify.Violation
	switch p.(type) {
	case cgPass, mvmPass, vvmPass:
		if verify {
			vs = irverify.VerifySchedule(pc.Graph, pc.Arch, pc.Level, pc.Model.FPs, pc.Schedule)
		}
	case placePass:
		if verify {
			vs = irverify.VerifyPlacement(pc.Graph, pc.Arch, pc.Model.FPs, pc.Schedule, pc.Placement)
		}
	case simulatePass:
	default:
		if !verify {
			return pc.Schedule.Validate()
		}
		vs = irverify.CheckState(pc.Graph, pc.Arch, pc.Level, pc.Model.FPs, pc.Schedule, pc.Placement)
	}
	if len(vs) > 0 {
		return &irverify.Error{Stage: p.Name(), Violations: vs}
	}
	return nil
}

// cgPass is the CG-grained optimization of §3.3.2: inter-operator
// pipelining, operator duplication and resource-adaptive segmentation. It
// runs at every computing mode.
type cgPass struct{}

func (cgPass) Name() string              { return PassCG }
func (cgPass) Applicable(arch.Mode) bool { return true }
func (cgPass) Run(ctx context.Context, pc *PassContext) error {
	s, err := cg.Optimize(ctx, pc.Model, cg.Options{
		Pipeline:   !pc.Opt.DisablePipeline,
		Duplicate:  !pc.Opt.DisableDuplication,
		Allocator:  pc.Opt.Allocator,
		Stationary: pc.Opt.Stationary,
		// The MVM pass repacks the copies when it runs with duplication on.
		Repack: pc.Level.AtLeast(arch.XBM) && !pc.Opt.DisableDuplication,
	})
	if err != nil {
		return err
	}
	pc.Schedule = s
	return nil
}

// mvmPass is the MVM-grained optimization of §3.3.3: crossbar-granularity
// duplication packing (Equation 1) and the staggered computing pipeline. It
// requires XBM or finer.
type mvmPass struct{}

func (mvmPass) Name() string                { return PassMVM }
func (mvmPass) Applicable(m arch.Mode) bool { return m.AtLeast(arch.XBM) }
func (mvmPass) Run(ctx context.Context, pc *PassContext) error {
	s, err := mvm.Optimize(pc.Schedule, pc.Model, mvm.Options{
		Duplicate: !pc.Opt.DisableDuplication,
		Stagger:   !pc.Opt.DisableStagger,
	})
	if err != nil {
		return err
	}
	pc.Schedule = s
	return nil
}

// vvmPass is the VVM-grained optimization of §3.3.4: wordline remapping.
// It requires WLM.
type vvmPass struct{}

func (vvmPass) Name() string                { return PassVVM }
func (vvmPass) Applicable(m arch.Mode) bool { return m.AtLeast(arch.WLM) }
func (vvmPass) Run(ctx context.Context, pc *PassContext) error {
	s, err := vvm.Optimize(pc.Schedule, pc.Model, vvm.Options{Remap: !pc.Opt.DisableRemap})
	if err != nil {
		return err
	}
	pc.Schedule = s
	return nil
}

// placePass packs every operator copy onto physical crossbars: the extents
// tiles derive from.
type placePass struct{}

func (placePass) Name() string              { return PassPlace }
func (placePass) Applicable(arch.Mode) bool { return true }
func (placePass) Run(ctx context.Context, pc *PassContext) error {
	s := pc.Schedule
	p, err := mapping.Place(ctx, pc.Graph, pc.Arch, pc.Model.FPs, s.Dup, s.Remap, s.Segments)
	if err != nil {
		return err
	}
	pc.Placement = p
	return nil
}

// simulatePass runs the schedule through the performance simulator. The
// cores and crossbars it reports are the placement's when the placement is
// still the schedule's; a user pass after placement that changed a decision
// gets them folded from the changed schedule.
type simulatePass struct{}

func (simulatePass) Name() string              { return PassSimulate }
func (simulatePass) Applicable(arch.Mode) bool { return true }
func (simulatePass) Run(ctx context.Context, pc *PassContext) error {
	rep, err := perfsim.SimulateWithModel(ctx, pc.Schedule, pc.Model, pc.Placement)
	if err != nil {
		return err
	}
	pc.Report = rep
	return nil
}
