package cimmlc

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/core"
	"cimmlc/internal/flowdata"
	"cimmlc/internal/graph"
	"cimmlc/internal/irverify"
	"cimmlc/internal/partition"
)

// DefaultCacheSize is the artifact-cache capacity a Compiler gets when
// WithCache is not supplied.
const DefaultCacheSize = 128

// Compiler compiles computation graphs onto one architecture. It is created
// once per target with New, holds an immutable snapshot of the architecture,
// a validated pass pipeline and an LRU artifact cache, and is safe for
// concurrent use from many goroutines: each Compile call works on a private
// copy of the input graph, so callers may share Graph values freely.
type Compiler struct {
	arch   Arch // immutable snapshot taken at New
	archFP string
	opt    core.Options
	extras []core.Insertion
	passes []core.Pass
	trace  func(TraceEvent)
	optFP  string

	mu      sync.Mutex
	lru     *list.List // front = most recently used
	entries map[string]*list.Element
	cap     int
	stats   Stats
}

// Stats reports the compiler's artifact-cache accounting. Hits+Misses is
// the total number of Compile calls.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Capacity  int
}

type cacheEntry struct {
	key string
	res *Result
}

// Option configures a Compiler at construction time.
type Option func(*Compiler)

// WithMaxLevel caps optimization at a coarser computing mode than the
// architecture exposes: CM stops after CG-grained, XBM after MVM-grained.
func WithMaxLevel(m Mode) Option { return func(c *Compiler) { c.opt.MaxLevel = m } }

// WithoutPipeline disables inter-operator pipelining (CG-grained).
func WithoutPipeline() Option { return func(c *Compiler) { c.opt.DisablePipeline = true } }

// WithoutDuplication disables operator duplication (CG- and MVM-grained).
func WithoutDuplication() Option { return func(c *Compiler) { c.opt.DisableDuplication = true } }

// WithoutStagger disables the staggered MVM computing pipeline.
func WithoutStagger() Option { return func(c *Compiler) { c.opt.DisableStagger = true } }

// WithoutRemap disables VVM-grained wordline remapping.
func WithoutRemap() Option { return func(c *Compiler) { c.opt.DisableRemap = true } }

// WithAllocator selects the CG duplication-search strategy.
func WithAllocator(a Allocator) Option { return func(c *Compiler) { c.opt.Allocator = a } }

// WithAutoTune inserts the schedule autotuner after the level optimizers:
// a deterministic, cost-model-guided beam search over the §3.3 knob space
// (per-node duplication, WLM remapping, pipeline and stagger toggles,
// segment merges/splits) bounded by b. The tuned schedule is never worse
// than the heuristic one — the incumbent starts as the heuristic schedule
// and is only replaced by strictly cheaper candidates — and the search is
// bit-reproducible regardless of Budget.Workers. Results are cached like
// any compilation, keyed by the budget's result-affecting fields, and the
// search outcome is recorded in Result.Tuning and ProgramStats.Tuning.
func WithAutoTune(b Budget) Option {
	return func(c *Compiler) { bb := b.Normalized(); c.opt.Tune = &bb }
}

// WithPass inserts a user pass into the pipeline immediately after the named
// built-in pass (PassCG, PassMVM, PassVVM, PassPlace or PassSimulate); an
// empty name inserts after the last optimization pass, before placement.
// Passes must be deterministic for cache correctness and safe for concurrent
// Run calls.
func WithPass(after string, p Pass) Option {
	return func(c *Compiler) { c.extras = append(c.extras, core.Insertion{After: after, Pass: p}) }
}

// WithVerifyIR enables the static IR verifier (internal/irverify): the
// input graph and every pipeline stage's output are checked against the IR
// invariant catalog (graph well-formedness, schedule legality per the
// computing-mode level, mapping soundness), and Lower statically verifies
// generated flows (operand def-before-use, endpoint existence, parallel
// write conflicts) before returning them. Violations surface as *irverify
// errors naming the stage and the broken rules. The verifier is on by
// default in test binaries (testing.Testing()) so every compilation a test
// performs is checked; production callers opt in explicitly.
func WithVerifyIR() Option { return func(c *Compiler) { c.opt.VerifyIR = true } }

// WithoutVerifyIR disables the static IR verifier, including the
// in-test-binary default. Intended for tests that deliberately construct
// illegal intermediates (or benchmark compilation throughput).
func WithoutVerifyIR() Option { return func(c *Compiler) { c.opt.VerifyIR = false } }

// WithHostFallback enables multi-target compilation: graphs containing
// operators with no CIM lowering (see graph.CIMLowerableOps) are partitioned
// into maximal CIM and host subgraphs instead of being rejected. CIM
// subgraphs run the normal pass pipeline; host subgraphs lower to the pure-Go
// host executor; the cut edges become costed host-link transfers. Fully
// supported graphs are unaffected — they compile monolithically and execute
// bit-identically whether or not this option is set.
func WithHostFallback() Option { return func(c *Compiler) { c.opt.HostFallback = true } }

// WithStationaryWeights forbids weight reloading during execution — the
// serving-grade constraint of real CIM deployments, where reprogramming NVM
// cells per request costs write latency and endurance. A model whose
// crossbar footprint exceeds one chip then fails to compile with an error
// matching ErrOverCapacity (errors.Is), instead of falling back to the
// reload-based escape hatches (resource-adaptive segmentation, multi-round
// operators). Models that fit compile exactly as without the option.
// Over-capacity models can still be served by splitting them across chips:
// see Compiler.BuildPipeline and the serving/fleet package.
func WithStationaryWeights() Option { return func(c *Compiler) { c.opt.Stationary = true } }

// WithCache sets the artifact-cache capacity in entries; 0 disables caching.
func WithCache(n int) Option { return func(c *Compiler) { c.cap = n } }

// WithTrace registers a hook invoked once per pipeline step of every
// compilation (and once with Pass "cache-hit" for memoized results). The
// hook may be called from many goroutines at once.
func WithTrace(fn func(TraceEvent)) Option { return func(c *Compiler) { c.trace = fn } }

// New creates a Compiler for one architecture. The architecture is
// validated and snapshotted: later mutations of a do not affect the
// compiler. Option errors (unknown pass anchors, invalid MaxLevel) are
// reported here, not at Compile time.
func New(a *Arch, opts ...Option) (*Compiler, error) {
	if a == nil {
		return nil, fmt.Errorf("cimmlc: New: nil architecture")
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("cimmlc: New: %w", err)
	}
	c := &Compiler{arch: *a, cap: DefaultCacheSize}
	// Under `go test` every compilation is verified by default; WithVerifyIR
	// / WithoutVerifyIR override in either direction.
	c.opt.VerifyIR = testing.Testing()
	for _, o := range opts {
		if o != nil {
			o(c)
		}
	}
	if c.opt.MaxLevel != "" && !c.opt.MaxLevel.Valid() {
		return nil, fmt.Errorf("cimmlc: New: invalid max level %q (valid: %s, %s, %s)", c.opt.MaxLevel, CM, XBM, WLM)
	}
	if c.opt.Allocator != "" && c.opt.Allocator != AllocDP && c.opt.Allocator != AllocWaterfill {
		return nil, fmt.Errorf("cimmlc: New: unknown allocator %q (valid: %s, %s)", c.opt.Allocator, AllocDP, AllocWaterfill)
	}
	extras := c.extras
	if c.opt.Tune != nil {
		// The tuner runs after the level optimizers and after any user
		// passes anchored there, so it optimizes whatever schedule the full
		// front half of the pipeline produced.
		extras = append(append([]core.Insertion{}, extras...), core.Insertion{After: core.PassVVM, Pass: core.TunePass()})
	}
	passes, err := core.BuildPasses(extras)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: New: %w", err)
	}
	c.passes = passes
	if c.cap > 0 {
		data, err := arch.Encode(&c.arch)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: New: %w", err)
		}
		c.archFP = fingerprint(data)
		c.optFP = optionFingerprint(c.opt, passes)
		c.lru = list.New()
		c.entries = make(map[string]*list.Element)
	}
	return c, nil
}

// Arch returns a copy of the compiler's architecture snapshot.
func (c *Compiler) Arch() *Arch {
	a := c.arch
	return &a
}

// Stats returns a snapshot of the cache accounting.
func (c *Compiler) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Capacity = c.cap
	if c.lru != nil {
		s.Entries = c.lru.Len()
	}
	return s
}

// Compile runs the multi-level scheduling workflow of Figure 3 on g:
// CG-grained optimization always, MVM-grained when the target exposes XBM or
// finer, VVM-grained when it exposes WLM, then placement and performance
// simulation. ctx is checked between passes and inside the duplication
// search, placement and simulation loops. Results are memoized in an LRU
// cache keyed by (graph fingerprint, arch fingerprint, option set): repeated
// traffic for the same model returns the same *Result, which callers must
// treat as read-only.
func (c *Compiler) Compile(ctx context.Context, g *Graph) (*Result, error) {
	return c.compile(ctx, g, partition.Options{})
}

// compile memoizes one compilation of g under the partitioner's policies cut
// in the artifact cache: for one chip, or with cut.Chip set over as many as
// the chip policy needs.
func (c *Compiler) compile(ctx context.Context, g *Graph, cut partition.Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return nil, fmt.Errorf("cimmlc: Compile: nil graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The cache key fingerprints the encoded graph, and encoding validates
	// it; with the cache off only the validation is left to do.
	var key string
	if c.cap > 0 {
		data, err := graph.Encode(g)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: Compile: %w", err)
		}
		key = fingerprint(data) + "|" + c.archFP + "|" + c.optFP
		if cut.Chip != nil {
			key += fmt.Sprintf("|chips=%d", cut.MaxChips)
		}
	} else if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cimmlc: Compile: graph: refusing to encode invalid graph: %w", err)
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; c.cap > 0 && ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		if c.trace != nil {
			c.trace(TraceEvent{Pass: "cache-hit"})
		}
		return res, nil
	}
	c.stats.Misses++
	c.mu.Unlock()

	// Compile a private copy of the graph (shape inference mutates it), on
	// a private copy of the architecture, so concurrent callers sharing g
	// never race and cached results are immune to later caller mutations.
	a := c.arch
	if cut.Chip != nil {
		cut.Chip = &a
	}
	res, err := core.CompilePasses(ctx, g.Clone(), &a, c.opt, cut, c.passes, c.trace)
	if err != nil {
		return nil, err
	}

	if c.cap > 0 {
		c.mu.Lock()
		if _, ok := c.entries[key]; !ok {
			c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
			for c.lru.Len() > c.cap {
				back := c.lru.Back()
				c.lru.Remove(back)
				delete(c.entries, back.Value.(*cacheEntry).key)
				c.stats.Evictions++
			}
		}
		c.mu.Unlock()
	}
	return res, nil
}

// Lower generates the meta-operator flow for a compilation result — the
// codegen step of §3.4. Like Compile, it works on a private copy of g (shape
// inference mutates the graph), so callers may share Graph values across
// goroutines.
func (c *Compiler) Lower(ctx context.Context, g *Graph, res *Result, opt CodegenOptions) (*FlowResult, error) {
	fr, _, err := c.lower(ctx, g, res, opt)
	return fr, err
}

// lower is Lower, also returning the flow's dataflow analysis when WithVerifyIR
// built one to verify the flow (nil otherwise), so Analyze need not build it
// again.
func (c *Compiler) lower(ctx context.Context, g *Graph, res *Result, opt CodegenOptions) (*FlowResult, *flowdata.Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if g == nil || res == nil {
		return nil, nil, fmt.Errorf("cimmlc: Lower: nil graph or result")
	}
	if res.Partition != nil {
		return nil, nil, fmt.Errorf("cimmlc: Lower: result is partitioned (multi-target); a single flow cannot express it — use Build, which orchestrates per-subgraph programs")
	}
	gc, err := cloneGraph(g)
	if err != nil {
		return nil, nil, fmt.Errorf("cimmlc: Lower: %w", err)
	}
	a := c.arch
	fr, err := codegen.Generate(gc, &a, res.Schedule, res.Placement, res.Model, opt)
	if err != nil {
		return nil, nil, err
	}
	if !c.opt.VerifyIR {
		return fr, nil, nil
	}
	// Truncated flows verify vacuously: they are illustrative, not executable.
	an := flowdata.Build(gc, &a, fr)
	if vs := irverify.FlowViolations(an); len(vs) > 0 {
		return nil, nil, fmt.Errorf("cimmlc: Lower: %w", &irverify.Error{Stage: "codegen", Violations: vs})
	}
	return fr, an, nil
}

// cloneGraph returns a private, shape-inferred deep copy of g, so the
// Compiler never writes to caller-owned graphs.
func cloneGraph(g *Graph) (*Graph, error) {
	gc := g.Clone()
	if err := gc.InferShapes(); err != nil {
		return nil, err
	}
	return gc, nil
}

func fingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// optionFingerprint folds every compilation-affecting setting — including
// the names of user passes, which may rewrite schedules — into the cache
// key. Budget.Workers is deliberately excluded: the autotune search is
// bit-reproducible across worker counts, so results are shareable.
func optionFingerprint(opt core.Options, passes []core.Pass) string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.Name()
	}
	tune := "off"
	if opt.Tune != nil {
		b := opt.Tune.Normalized()
		tune = fmt.Sprintf("c%d.b%d.r%d", b.MaxCandidates, b.Beam, b.MaxRounds)
	}
	return fmt.Sprintf("p=%t,d=%t,s=%t,r=%t,max=%s,alloc=%s,tune=%s,verify=%t,hostfb=%t,stat=%t,passes=%v",
		opt.DisablePipeline, opt.DisableDuplication, opt.DisableStagger, opt.DisableRemap,
		opt.MaxLevel, opt.Allocator, tune, opt.VerifyIR, opt.HostFallback, opt.Stationary, names)
}
