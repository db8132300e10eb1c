// Package baseline implements the comparison schedulers of the evaluation
// (§4.2): the unoptimized layer-serial execution ("w/o optimization" in
// Figure 20(d)), a reimplementation of Poly-Schedule [22] (greedy operator
// duplication at core granularity plus graph-level batch pipelining), and
// the vendor-native single-level schedules the accelerator papers describe
// for themselves.
package baseline

import (
	"context"

	"cimmlc/internal/arch"
	"cimmlc/internal/cg"
	"cimmlc/internal/core"
	"cimmlc/internal/cost"
	"cimmlc/internal/graph"
	"cimmlc/internal/sched"
)

// NoOpt returns the unoptimized schedule: one copy of every operator,
// strictly layer-serial execution, greedy segmentation when the model does
// not fit. This is both Figure 20(d)'s "w/o optimization" bar and the
// vendor-native schedule for Works 1 and 3 (which deploy their networks
// layer by layer).
func NoOpt(g *graph.Graph, a *arch.Arch) (*sched.Schedule, error) {
	m, err := chipModel(g, a)
	if err != nil {
		return nil, err
	}
	s, err := cg.Optimize(context.Background(), m, cg.Options{})
	if err != nil {
		return nil, err
	}
	s.Levels = []string{"none"}
	return s, nil
}

// chipModel is the cost model of a baseline that maps the whole graph onto
// the chip. A baseline has no host to offload to, so it refuses a host-only
// operator exactly as the compiler does without host fallback, instead of
// pricing it as a chip operator. It validates a and g and infers g's shapes
// (into g), which cost.New leaves to its caller.
func chipModel(g *graph.Graph, a *arch.Arch) (*cost.Model, error) {
	if err := core.RequireCIMLowering(g); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := g.InferShapes(); err != nil {
		return nil, err
	}
	return cost.New(g, a)
}

// PolySchedule reimplements the strategy of the polyhedral-based compiler of
// Han et al. [22] as the paper characterizes it: operator duplication by a
// greedy strategy at core granularity plus a batch pipeline. The batch
// pipeline overlaps successive input images, so it raises throughput but
// does not shorten the single-image latency the evaluation measures
// (CIM-MLC "can optimize the internal computation pipeline of a single
// input image", Poly-Schedule cannot) — hence Pipeline stays off here. No
// crossbar-granularity repacking (Equation 1), staggering or wordline
// remapping either: its optimization "stays at the computing graph level".
func PolySchedule(g *graph.Graph, a *arch.Arch) (*sched.Schedule, error) {
	m, err := chipModel(g, a)
	if err != nil {
		return nil, err
	}
	s, err := cg.Optimize(context.Background(), m, cg.Options{Duplicate: true, Allocator: cg.AllocWaterfill})
	if err != nil {
		return nil, err
	}
	s.Levels = []string{"poly-schedule"}
	return s, nil
}

// JiaNative returns Jia et al.'s own deployment: layer-serial CM execution
// without duplication (Figure 20(a)'s 1× reference).
func JiaNative(g *graph.Graph) (*sched.Schedule, error) {
	return NoOpt(g, arch.JiaAccelerator())
}

// PUMANative returns PUMA's own schedule for the peak-power comparison of
// Figure 20(b): PUMA's compiler duplicates and pipelines across layers
// (graph level) but activates every crossbar of an operator simultaneously —
// no MVM-grained time-division.
func PUMANative(g *graph.Graph) (*sched.Schedule, error) {
	a := arch.PUMAAccelerator()
	m, err := chipModel(g, a)
	if err != nil {
		return nil, err
	}
	s, err := cg.Optimize(context.Background(), m, cg.Options{Duplicate: true, Pipeline: true})
	if err != nil {
		return nil, err
	}
	s.Levels = []string{"puma-native"}
	return s, nil
}
