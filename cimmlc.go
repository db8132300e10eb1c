// Package cimmlc is a Go reproduction of CIM-MLC, the multi-level
// compilation stack for computing-in-memory accelerators (Qu et al.,
// ASPLOS 2024).
//
// The package compiles DNN computation graphs onto CIM accelerators
// described by a three-tier hardware abstraction (chip / core / crossbar)
// and a computing-mode abstraction (CM / XBM / WLM), producing an optimized
// schedule (operator duplication, inter-operator pipelining, staggered
// crossbar activation, wordline remapping, resource-adaptive segmentation),
// a placement of weights onto physical crossbars, a performance report
// (latency, energy, peak power) and an executable meta-operator flow.
//
// The primary entry point is the Compiler: created once per architecture,
// it owns a pluggable pass pipeline and an LRU artifact cache, and is safe
// for concurrent use from many goroutines. For execution, Compiler.Build
// compiles a model once into an immutable Program — weights quantized and
// programmed into a crossbar image, the stationary-weight model CIM
// hardware serves — and Program.Run/RunBatch execute inference requests
// against pooled per-request state.
//
// Quickstart:
//
//	g, _ := cimmlc.Model("resnet18")
//	a, _ := cimmlc.Preset("isaac-baseline")
//	c, _ := cimmlc.New(a)
//	res, _ := c.Compile(context.Background(), g)
//	fmt.Println(res.Report.Cycles)
//
//	p, _ := c.Build(context.Background(), g, weights, cimmlc.CodegenOptions{},
//		cimmlc.WithCalibration(calib))
//	outs, _ := p.Run(context.Background(), inputs)
//
// See examples/ for complete programs and DESIGN.md for the architecture of
// the implementation, including the pass-pipeline design and staged
// execution (host fallback and cross-chip pipelining).
package cimmlc

import (
	"cimmlc/internal/arch"
	"cimmlc/internal/baseline"
	"cimmlc/internal/cg"
	"cimmlc/internal/codegen"
	"cimmlc/internal/core"
	"cimmlc/internal/cost"
	"cimmlc/internal/experiments"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
	"cimmlc/internal/mop"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
	"cimmlc/internal/tensor"
	"cimmlc/internal/tuner"
)

// Core compiler types.
type (
	// Arch is the hardware abstraction (Abs-arch + Abs-com) of §3.2.
	Arch = arch.Arch
	// Mode is the computing-mode abstraction: CM, XBM or WLM.
	Mode = arch.Mode
	// Graph is the DNN computation-graph IR.
	Graph = graph.Graph
	// Weights maps weighted node IDs to their tensors.
	Weights = graph.Weights
	// Tensor is the dense float32 tensor used for weights and activations.
	Tensor = tensor.Tensor
	// Result carries the schedule, placement, report and cost model.
	Result = core.Result
	// Schedule is the multi-level scheduling decision record.
	Schedule = sched.Schedule
	// Placement assigns operator tiles to physical crossbars.
	Placement = mapping.Placement
	// CostModel is the shared per-operator cycle/footprint model.
	CostModel = cost.Model
	// Report is the performance simulation result.
	Report = perfsim.Report
	// Flow is a compiled meta-operator program.
	Flow = mop.Flow
	// FlowResult bundles a generated flow with its buffer layout.
	FlowResult = codegen.Result
	// CodegenOptions controls meta-operator emission.
	CodegenOptions = codegen.Options
	// ExperimentTable is a regenerated paper table/figure.
	ExperimentTable = experiments.Table
	// Allocator selects the CG duplication-search strategy.
	Allocator = cg.Allocator
	// Pass is one pluggable stage of the compilation pipeline; see
	// WithPass.
	Pass = core.Pass
	// PassContext carries one compilation's state through the pipeline.
	PassContext = core.PassContext
	// TraceEvent describes one pipeline step; see WithTrace.
	TraceEvent = core.TraceEvent
	// Budget bounds the schedule autotuner's search; see WithAutoTune. The
	// zero value selects the default bounds.
	Budget = tuner.Budget
	// TuningStats reports an autotune run (heuristic vs tuned cycles,
	// candidates evaluated, accepted moves); see Result.Tuning and
	// ProgramStats.Tuning.
	TuningStats = tuner.Stats
	// Target names a node's execution target under multi-target
	// compilation (WithHostFallback): the CIM accelerator or the host CPU.
	Target = graph.Target
	// PartitionInfo bundles a staged compilation's plan and per-subgraph
	// results; see Result.Partition.
	PartitionInfo = core.PartitionInfo
)

// Computing modes.
const (
	CM  = arch.CM
	XBM = arch.XBM
	WLM = arch.WLM
)

// Execution targets of the partitioning pass.
const (
	TargetCIM  = graph.TargetCIM
	TargetHost = graph.TargetHost
)

// ErrOverCapacity reports that a model's crossbar footprint exceeds one
// chip under WithStationaryWeights: serving it on a single chip would
// require weight reloading. Detect it with errors.Is and fall back to
// multi-chip pipelining (Compiler.BuildPipeline, serving/fleet).
var ErrOverCapacity = cg.ErrOverCapacity

// Duplication-search strategies for WithAllocator.
const (
	AllocDP        = cg.AllocDP
	AllocWaterfill = cg.AllocWaterfill
)

// Built-in pass names, usable as WithPass anchors.
const (
	PassCG       = core.PassCG
	PassMVM      = core.PassMVM
	PassVVM      = core.PassVVM
	PassPlace    = core.PassPlace
	PassSimulate = core.PassSimulate
)

// Preset returns a fresh copy of a named preset architecture
// ("isaac-baseline", "puma", "jia-isscc21", "jain-jssc21", "toy-table2").
// Names are case-insensitive.
func Preset(name string) (*Arch, error) { return arch.Preset(name) }

// Presets lists the preset architecture names.
func Presets() []string { return arch.PresetNames() }

// DecodeArch parses an architecture description from JSON.
func DecodeArch(data []byte) (*Arch, error) { return arch.Decode(data) }

// EncodeArch serializes an architecture description to JSON.
func EncodeArch(a *Arch) ([]byte, error) { return arch.Encode(a) }

// DecodeGraph parses a computation graph from JSON.
func DecodeGraph(data []byte) (*Graph, error) { return graph.Decode(data) }

// EncodeGraph serializes a computation graph to JSON.
func EncodeGraph(g *Graph) ([]byte, error) { return graph.Encode(g) }

// Model builds a fresh copy of a named zoo model ("resnet18", "vgg16",
// "vit-base", …). Names are case-insensitive.
func Model(name string) (*Graph, error) { return models.Build(name) }

// ModelNames lists the model zoo.
func ModelNames() []string { return models.Names() }

// MixedModelNames lists the zoo models containing host-only operators; they
// compile only under WithHostFallback.
func MixedModelNames() []string { return models.MixedNames() }

// ModelMixed reports whether the named zoo model contains host-only
// operators (and therefore requires WithHostFallback to compile).
func ModelMixed(name string) bool { return models.Mixed(name) }

// ParseFlow reads a flow back from its printed concrete syntax.
func ParseFlow(text string) (*Flow, error) { return mop.Parse(text) }

// NewTensor returns a zero tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromSlice wraps data in a tensor of the given shape. The slice is
// used directly (not copied) and must have exactly the number of elements
// the shape implies.
func TensorFromSlice(data []float32, shape ...int) (*Tensor, error) {
	return tensor.FromSlice(data, shape...)
}

// RandomWeights returns deterministic pseudo-random weights for a graph.
func RandomWeights(g *Graph, seed uint64) Weights { return graph.RandomWeights(g, seed) }

// Simulate runs a schedule through the performance simulator. The schedule's
// graph must be shape-inferred, as it is in every schedule Compile,
// NoOptSchedule and PolySchedule return; Simulate only reads it, so it may run
// beside a Build or Analyze of the same Result.
func Simulate(s *Schedule) (*Report, error) { return perfsim.Simulate(s) }

// NoOptSchedule returns the unoptimized layer-serial schedule for a model.
func NoOptSchedule(g *Graph, a *Arch) (*Schedule, error) { return baseline.NoOpt(g, a) }

// PolySchedule returns the Poly-Schedule [22] comparison schedule.
func PolySchedule(g *Graph, a *Arch) (*Schedule, error) { return baseline.PolySchedule(g, a) }

// Experiment regenerates a paper table/figure by ID (e.g. "fig21a"). IDs
// are case-insensitive.
func Experiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiments.IDs() }
