// Package serving turns compiled cimmlc Programs into a servable system:
// a concurrency-safe registry of lazily-built (model, arch) Programs, one
// serving engine — the Batcher, a dynamic micro-batching queue in front of
// every chip a Program occupies — and an HTTP gateway (see cmd/cimserve) that
// routes inference requests to them.
//
// The registry is the front door for multi-model, multi-architecture
// serving: many models compiled for many CIM architecture presets stay
// resident at once, each built exactly once on first use. The batcher
// amortizes per-request dispatch under load without taxing an idle system: a
// request runs at once when its chip is free, and the requests that queue
// while it is busy run together, lane-wise, as the chip's next batch through
// Program.RunChip.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cimmlc"
)

// ErrNotFound marks a model or architecture name the registry does not know;
// ErrUnservable a known (model, arch) pair the compiler cannot turn into a
// Program — an operator with no lowering, a footprint over the chip. Match
// them with errors.Is; the gateway answers 404 and 422.
var (
	ErrNotFound   = errors.New("serving: not found")
	ErrUnservable = errors.New("serving: cannot build")
)

// ModelSource resolves a model name to a graph and its weights. The default
// source builds zoo models with deterministic pseudo-random weights; a real
// deployment supplies one that loads trained checkpoints, and wraps
// ErrNotFound around its error for a name it does not serve.
type ModelSource func(name string) (*cimmlc.Graph, cimmlc.Weights, error)

// RegistryOption configures NewRegistry.
type RegistryOption func(*Registry)

// WithModelSource replaces the default zoo-backed model source.
func WithModelSource(src ModelSource) RegistryOption {
	return func(r *Registry) { r.source = src }
}

// WithWeightSeed sets the seed the default model source derives weights
// from (default 42). Ignored when WithModelSource is supplied.
func WithWeightSeed(seed uint64) RegistryOption {
	return func(r *Registry) { r.seed = seed }
}

// WithBuildOptions appends build options (calibration, worker bounds) used
// for every Program the registry builds.
func WithBuildOptions(opts ...cimmlc.BuildOption) RegistryOption {
	return func(r *Registry) { r.buildOpts = append(r.buildOpts, opts...) }
}

// WithHostFallback makes every compiler the registry creates partition
// mixed graphs (cimmlc.WithHostFallback), so models with host-only
// operators are servable. Fully-supported models still compile
// monolithically, bit-identical to a registry without the option.
func WithHostFallback() RegistryOption {
	return func(r *Registry) { r.compilerOpts = append(r.compilerOpts, cimmlc.WithHostFallback()) }
}

// WithStationaryWeights makes every compiler the registry creates enforce
// the serving-grade placement constraint (cimmlc.WithStationaryWeights):
// models whose crossbar footprint exceeds one chip fail to build with
// cimmlc.ErrOverCapacity instead of silently reloading weights per request.
// Fleets need no such option to pipeline: they build through BuildPipeline,
// which cuts such a model across chips either way. What the option still
// decides there is a single operator larger than a whole chip, which no cut
// can place: with it the build fails, without it that operator's chip reloads
// its weights per request.
func WithStationaryWeights() RegistryOption {
	return func(r *Registry) { r.compilerOpts = append(r.compilerOpts, cimmlc.WithStationaryWeights()) }
}

// WithAutoTune makes every compiler the registry creates run the schedule
// autotuner (cimmlc.WithAutoTune) under budget b, so each (model, arch)
// Program is tuned exactly once — on its first Get — and every later request
// serves the tuned schedule. Registered and preset architectures alike are
// affected.
func WithAutoTune(b cimmlc.Budget) RegistryOption {
	return func(r *Registry) { r.compilerOpts = append(r.compilerOpts, cimmlc.WithAutoTune(b)) }
}

// Registry maps (model, arch) keys to lazily-built, cached Programs. It is
// safe for concurrent use: concurrent Gets of the same key coalesce so the
// expensive Build (compile + lower + weight programming) runs exactly once,
// and distinct keys build in parallel. Architecture names resolve against
// explicitly registered architectures first, then the built-in presets;
// all names are case-insensitive.
type Registry struct {
	source       ModelSource
	seed         uint64
	buildOpts    []cimmlc.BuildOption
	compilerOpts []cimmlc.Option

	mu        sync.Mutex
	archs     map[string]string           // registered archs, key: lower(name) → display name
	compilers map[string]*cimmlc.Compiler // key: lower(arch name)
	archVer   map[string]uint64           // key: lower(arch name), bumped by each RegisterArch
	programs  map[Key]*progEntry
	builds    atomic.Uint64
}

// Key identifies one resident Program.
type Key struct {
	Model string `json:"model"`
	Arch  string `json:"arch"`
}

type progEntry struct {
	done chan struct{} // closed when the build finishes
	p    *cimmlc.Program
	err  error
}

// NewRegistry returns an empty registry. Programs are built on first Get.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		seed:      42,
		archs:     map[string]string{},
		compilers: map[string]*cimmlc.Compiler{},
		archVer:   map[string]uint64{},
		programs:  map[Key]*progEntry{},
	}
	for _, o := range opts {
		if o != nil {
			o(r)
		}
	}
	if r.source == nil {
		seed := r.seed
		r.source = func(name string) (*cimmlc.Graph, cimmlc.Weights, error) {
			g, err := cimmlc.Model(name)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %w", ErrNotFound, err)
			}
			return g, cimmlc.RandomWeights(g, seed), nil
		}
	}
	return r
}

// RegisterArch validates and registers a user-supplied architecture under
// its own name, shadowing any preset of the same name. Invalid
// architectures are rejected here — this is the boundary that turns a
// malformed user arch description into an error instead of a crash.
func (r *Registry) RegisterArch(a *cimmlc.Arch) error {
	if a == nil {
		return fmt.Errorf("serving: RegisterArch: nil architecture")
	}
	// New validates the description and snapshots it; keeping the compiler
	// means the first Get for this arch pays no extra setup.
	c, err := cimmlc.New(a, r.compilerOpts...)
	if err != nil {
		return err
	}
	key := strings.ToLower(a.Name)
	r.mu.Lock()
	r.archs[key] = a.Name
	r.compilers[key] = c
	r.archVer[key]++
	// Re-registration invalidates resident Programs compiled for the old
	// description: their crossbar images embed the previous geometry, so
	// serving them against the new arch would silently return stale results.
	// Dropping the entries makes the next Get rebuild against the compiler
	// registered above; builds already in flight finish against their old
	// entry (their waiters asked before the re-registration) but are not
	// re-cached under the key.
	for k := range r.programs {
		if k.Arch == key {
			delete(r.programs, k)
		}
	}
	r.mu.Unlock()
	return nil
}

// ArchVersion reports how many times name has been registered (0 for
// presets and unknown names). Serving front ends that cache per-(model,
// arch) handles — batchers, fleets — compare it against the version their
// handle was built at and rebuild when an operator re-registered the arch.
func (r *Registry) ArchVersion(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.archVer[strings.ToLower(name)]
}

// RegisterArchJSON decodes, validates and registers an architecture from
// its JSON description, returning the registered name.
func (r *Registry) RegisterArchJSON(data []byte) (string, error) {
	a, err := cimmlc.DecodeArch(data)
	if err != nil {
		return "", err
	}
	if err := r.RegisterArch(a); err != nil {
		return "", err
	}
	return a.Name, nil
}

// compiler resolves an architecture name to its (cached) Compiler,
// consulting registered architectures first and presets second.
func (r *Registry) compiler(name string) (*cimmlc.Compiler, error) {
	key := strings.ToLower(name)
	r.mu.Lock()
	c, ok := r.compilers[key]
	r.mu.Unlock()
	if ok {
		return c, nil
	}
	a, err := cimmlc.Preset(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotFound, err)
	}
	c, err = cimmlc.New(a, r.compilerOpts...)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	// Another goroutine may have raced us here; keep the first one so every
	// caller shares one compiler (and its artifact cache) per arch.
	if prev, ok := r.compilers[key]; ok {
		c = prev
	} else {
		r.compilers[key] = c
	}
	r.mu.Unlock()
	return c, nil
}

// Get returns the Program for (model, arch), building it on first use.
// Concurrent Gets of the same key wait for a single in-flight build, which
// runs detached from any one caller's context — one client's timeout or
// disconnect must not fail the build for everyone coalesced on it. Each
// waiter still honors its own ctx. A failed build is not cached, so a
// later Get retries.
func (r *Registry) Get(ctx context.Context, model, archName string) (*cimmlc.Program, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := Key{Model: strings.ToLower(model), Arch: strings.ToLower(archName)}

	r.mu.Lock()
	e, ok := r.programs[key]
	if !ok {
		e = &progEntry{done: make(chan struct{})}
		r.programs[key] = e
		go func() {
			e.p, e.err = r.BuildProgram(context.WithoutCancel(ctx), model, archName)
			if e.err != nil {
				// Drop the failed entry so the next Get retries; waiters
				// already holding e still see e.err.
				r.mu.Lock()
				if r.programs[key] == e {
					delete(r.programs, key)
				}
				r.mu.Unlock()
			}
			close(e.done)
		}()
	}
	r.mu.Unlock()

	select {
	case <-e.done:
		return e.p, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// buildWith resolves (model, arch) and runs one counted build on the arch's
// compiler, with extra build options appended to the registry-wide ones.
func (r *Registry) buildWith(model, archName string, extra []cimmlc.BuildOption,
	build func(c *cimmlc.Compiler, g *cimmlc.Graph, w cimmlc.Weights, opts []cimmlc.BuildOption) (*cimmlc.Program, error)) (*cimmlc.Program, error) {
	c, err := r.compiler(archName)
	if err != nil {
		return nil, err
	}
	g, w, err := r.source(model)
	if err != nil {
		return nil, err
	}
	r.builds.Add(1)
	p, err := build(c, g, w, append(append([]cimmlc.BuildOption{}, r.buildOpts...), extra...))
	if err != nil {
		return nil, fmt.Errorf("%w %s for %s: %w", ErrUnservable, model, archName, err)
	}
	return p, nil
}

// BuildProgram builds a fresh, uncached Program for (model, arch) with extra
// build options appended to the registry-wide ones — what a fleet needs of
// the registry: its own Program, built once with the worker bound of one chip,
// that the registry neither caches nor drops on RegisterArch. A fleet's
// replicas are cimmlc.Program.Replica views of that one build; only a caller
// that wants a second crossbar image calls BuildProgram twice.
func (r *Registry) BuildProgram(ctx context.Context, model, archName string, extra ...cimmlc.BuildOption) (*cimmlc.Program, error) {
	return r.buildWith(model, archName, extra, func(c *cimmlc.Compiler, g *cimmlc.Graph, w cimmlc.Weights, opts []cimmlc.BuildOption) (*cimmlc.Program, error) {
		return c.Build(ctx, g, w, cimmlc.CodegenOptions{}, opts...)
	})
}

// BuildPipeline is BuildProgram across as many chips as the model needs
// (cimmlc.Compiler.BuildPipeline) — how a fleet builds: the very Program
// BuildProgram makes when the model fits one chip, a cut across chips when it
// does not. maxChips bounds the chip count when positive.
func (r *Registry) BuildPipeline(ctx context.Context, model, archName string, maxChips int, extra ...cimmlc.BuildOption) (*cimmlc.Program, error) {
	return r.buildWith(model, archName, extra, func(c *cimmlc.Compiler, g *cimmlc.Graph, w cimmlc.Weights, opts []cimmlc.BuildOption) (*cimmlc.Program, error) {
		return c.BuildPipeline(ctx, g, w, cimmlc.CodegenOptions{}, maxChips, opts...)
	})
}

// ProgramInfo describes one resident Program for introspection endpoints.
type ProgramInfo struct {
	Key   Key                 `json:"key"`
	Stats cimmlc.ProgramStats `json:"stats"`
}

// Loaded lists the successfully built resident Programs in sorted key
// order, with their serving counters.
func (r *Registry) Loaded() []ProgramInfo {
	r.mu.Lock()
	entries := make(map[Key]*progEntry, len(r.programs))
	for k, e := range r.programs {
		entries[k] = e
	}
	r.mu.Unlock()
	var infos []ProgramInfo
	for k, e := range entries {
		select {
		case <-e.done:
			if e.err == nil {
				infos = append(infos, ProgramInfo{Key: k, Stats: e.p.Stats()})
			}
		default: // build still in flight
		}
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Key.Model != infos[j].Key.Model {
			return infos[i].Key.Model < infos[j].Key.Model
		}
		return infos[i].Key.Arch < infos[j].Key.Arch
	})
	return infos
}

// Archs lists the explicitly registered architecture names followed by the
// built-in presets, each group sorted. Names keep their canonical display
// casing (the casing they were registered or defined with); lookups remain
// case-insensitive throughout the registry.
func (r *Registry) Archs() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.archs))
	registered := make(map[string]bool, len(r.archs))
	for key, display := range r.archs {
		names = append(names, display)
		registered[key] = true
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, p := range cimmlc.Presets() {
		if !registered[strings.ToLower(p)] {
			names = append(names, p)
		}
	}
	return names
}

// Models lists the model names the default source can build. Registries
// with a custom ModelSource serve whatever that source accepts; this
// listing still reports the zoo for discoverability.
func (r *Registry) Models() []string { return cimmlc.ModelNames() }

// Builds reports how many Program builds have run (cache misses).
func (r *Registry) Builds() uint64 { return r.builds.Load() }
