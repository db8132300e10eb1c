// Package fleet scales cimmlc serving from one simulated chip to a cluster
// of them. A Fleet binds one (model, arch) pair to N replicas — each a view
// (cimmlc.Program.Replica) of the one Program the fleet built, behind its own
// serving.Batcher — behind a deterministic router (least loaded by
// outstanding requests, rendezvous-hash tiebreak), with queue-depth-driven
// autoscaling between MinReplicas and MaxReplicas and graceful per-replica
// drain on scale-down.
//
// The compiler decides how many chips a replica occupies: the fleet builds
// through cimmlc.Compiler.BuildPipeline, whose partitioner keeps a model on
// one chip when one copy of every operator fits it and otherwise cuts it
// across as many chips as it needs, weights stationary on each — whether or
// not the registry's compilers enforce stationary weights themselves. The one
// exception is an operator that alone exceeds a chip: it gets a chip to itself
// and reloads its weights there on every request, unless the registry enforces
// stationary weights, in which case New fails with cimmlc.ErrOverCapacity. A
// replica's Batcher then runs a queue and a worker per chip, so chip c of
// request k+1 overlaps chip c+1 of request k; Mode reports "pipeline" for
// such a fleet, "replicated" for one-chip replicas.
//
// Every chip sits behind the same batching queue and follows its one rule:
// run a request at once when idle, otherwise run together, lane-wise,
// whatever queued while busy. No chip holds a request back to wait for
// company.
//
// Replicas execute the same immutable kernels over the same crossbar image —
// one Build, one heap, whatever the replica count, and no replica can differ
// from its siblings because an arch was re-registered between two spawns — so
// fleet outputs are bit-identical regardless of replica count, routing or
// interleaving: the property the determinism tests pin under -race.
package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

// Config describes one fleet.
type Config struct {
	// Model and Arch name the (model, arch) pair every replica serves.
	Model string
	Arch  string
	// Replicas is the initial replica count (default 1).
	Replicas int
	// MinReplicas and MaxReplicas bound the autoscaler; both default to
	// Replicas, which disables scaling.
	MinReplicas int
	MaxReplicas int
	// MaxChips bounds a replica's chip count (0 = unlimited): a model that
	// needs more fails to build.
	MaxChips int
	// Batcher sizes every batching queue of the fleet, one per chip of every
	// replica — MaxBatch lanes per step at most, Queue jobs buffered, chip
	// 0's queue being the depth the autoscaler reads.
	Batcher serving.BatcherConfig
	// ScaleInterval is the autoscaler's tick (default 20ms).
	ScaleInterval time.Duration
	// ScaleUpDepth is the mean queued requests per active replica that
	// triggers a scale-up (default 4).
	ScaleUpDepth int
	// ScaleDownIdleTicks is how many consecutive idle ticks (no queued or
	// outstanding requests anywhere) retire one excess replica (default 5).
	ScaleDownIdleTicks int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MinReplicas <= 0 {
		c.MinReplicas = c.Replicas
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = c.Replicas
	}
	if c.ScaleInterval <= 0 {
		c.ScaleInterval = 20 * time.Millisecond
	}
	if c.ScaleUpDepth <= 0 {
		c.ScaleUpDepth = 4
	}
	if c.ScaleDownIdleTicks <= 0 {
		c.ScaleDownIdleTicks = 5
	}
	return c
}

// Fleet routes requests for one (model, arch) pair across chip replicas.
// Safe for concurrent use; Close drains every replica.
type Fleet struct {
	cfg    Config
	prog   *cimmlc.Program // what New built; every replica runs a Replica of it
	stages int             // chips per replica
	inputs map[int][]int   // the model's input schema

	mu       sync.Mutex
	replicas []*replica
	closed   bool
	nextID   int

	seq        atomic.Uint64
	requests   atomic.Uint64
	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64
	idleTicks  int

	stop       chan struct{}
	scalerDone chan struct{}
	retireWG   sync.WaitGroup
}

// New builds a fleet for cfg's (model, arch) against the registry's model
// source and compilers: one Program — on one chip when one copy of every
// operator fits it, cut across chips otherwise — that every replica, initial
// or scaled up later, is a view of. Each chip runs serially (WithWorkers(1)):
// the fleet's parallelism is across chips, not inside one. When New returns,
// the fleet serves.
func New(ctx context.Context, reg *serving.Registry, cfg Config) (*Fleet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if cfg.Model == "" || cfg.Arch == "" {
		return nil, fmt.Errorf("fleet: Config.Model and Config.Arch are required")
	}
	if cfg.MinReplicas > cfg.MaxReplicas {
		return nil, fmt.Errorf("fleet: MinReplicas %d > MaxReplicas %d", cfg.MinReplicas, cfg.MaxReplicas)
	}
	if cfg.Replicas < cfg.MinReplicas || cfg.Replicas > cfg.MaxReplicas {
		return nil, fmt.Errorf("fleet: Replicas %d outside [%d,%d]", cfg.Replicas, cfg.MinReplicas, cfg.MaxReplicas)
	}

	p, err := reg.BuildPipeline(ctx, cfg.Model, cfg.Arch, cfg.MaxChips, cimmlc.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("fleet: building %s on %s: %w", cfg.Model, cfg.Arch, err)
	}
	f := &Fleet{
		cfg:        cfg,
		prog:       p,
		stages:     p.Chips(),
		inputs:     p.Inputs(),
		stop:       make(chan struct{}),
		scalerDone: make(chan struct{}),
	}
	for i := 0; i < cfg.Replicas; i++ {
		f.addReplica(f.spawn())
	}
	go f.scaler()
	return f, nil
}

// spawn makes one replica: a view of the fleet's Program with lane state and
// counters of its own, behind a Batcher sized by cfg.Batcher. Nothing is
// compiled or programmed — a replica costs its queues.
func (f *Fleet) spawn() *serving.Batcher {
	return serving.NewBatcher(f.prog.Replica(), f.cfg.Batcher)
}

// Factory adapts a fleet Config into a serving.RunnerFactory: every
// (model, arch) pair the gateway first touches gets its own fleet with
// cfg's replica bounds, batching and autoscaling knobs.
func Factory(cfg Config) serving.RunnerFactory {
	return func(ctx context.Context, reg *serving.Registry, model, arch string) (serving.Runner, error) {
		c := cfg
		c.Model, c.Arch = model, arch
		return New(ctx, reg, c)
	}
}

// addReplica registers a ready runner as a serving replica. Returns false
// (and closes the runner) when the fleet is already closed.
func (f *Fleet) addReplica(rn *serving.Batcher) bool {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		rn.Close()
		return false
	}
	rep := &replica{id: f.nextID, run: rn}
	f.nextID++
	f.replicas = append(f.replicas, rep)
	f.mu.Unlock()
	return true
}

// Do routes one inference request to the least-loaded replica and blocks
// until it is served. Returns serving.ErrClosed after Close.
func (f *Fleet) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seq := f.seq.Add(1)
	rep := f.pick(seq)
	if rep == nil {
		return nil, serving.ErrClosed
	}
	defer rep.release()
	out, err := rep.run.Do(ctx, inputs)
	if err == nil {
		rep.served.Add(1)
		f.requests.Add(1)
	}
	return out, err
}

// pick selects and acquires the least-loaded non-draining replica,
// tie-breaking by rendezvous hash of (request sequence, replica id) so the
// choice is deterministic for a given arrival order. Returns nil when the
// fleet has no serving replica (closed).
func (f *Fleet) pick(seq uint64) *replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		var best *replica
		var bestLoad int64
		var bestScore uint64
		for _, rep := range f.replicas {
			if rep.draining {
				continue
			}
			load := rep.outstanding.Load()
			score := rendezvous(seq, rep.id)
			if best == nil || load < bestLoad || (load == bestLoad && score > bestScore) {
				best, bestLoad, bestScore = rep, load, score
			}
		}
		if best == nil {
			return nil
		}
		if best.acquire() {
			return best
		}
	}
}

// rendezvous is an FNV-1a hash over (seq, id) — the highest-random-weight
// tiebreak that keeps routing stable under replica churn.
func rendezvous(seq uint64, id int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(seq)
	mix(uint64(id))
	return h
}

// scaler is the autoscaling loop: queue depth drives scale-ups, sustained
// idleness drives scale-downs, both bounded by Min/MaxReplicas.
func (f *Fleet) scaler() {
	defer close(f.scalerDone)
	ticker := time.NewTicker(f.cfg.ScaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.scaleTick()
		}
	}
}

func (f *Fleet) scaleTick() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	active, depth, busy := 0, 0, int64(0)
	for _, rep := range f.replicas {
		if rep.draining {
			continue
		}
		active++
		depth += rep.run.Depth()
		busy += rep.outstanding.Load()
	}

	// Scale up: backlog beyond ScaleUpDepth per replica and capacity left.
	if active > 0 && active < f.cfg.MaxReplicas && depth > f.cfg.ScaleUpDepth*active {
		f.idleTicks = 0
		f.mu.Unlock()
		if f.addReplica(f.spawn()) {
			f.scaleUps.Add(1)
		}
		return
	}

	// Scale down: the whole fleet idle for ScaleDownIdleTicks consecutive
	// ticks retires the newest replica, gracefully: it stops receiving
	// requests now and closes only after its in-flight work drains.
	if depth == 0 && busy == 0 {
		f.idleTicks++
	} else {
		f.idleTicks = 0
	}
	if f.idleTicks >= f.cfg.ScaleDownIdleTicks && active > f.cfg.MinReplicas {
		f.idleTicks = 0
		var victim *replica
		for _, rep := range f.replicas {
			if !rep.draining && (victim == nil || rep.id > victim.id) {
				victim = rep
			}
		}
		victim.draining = true
		f.retireWG.Add(1)
		go func() {
			defer f.retireWG.Done()
			victim.inflight.Wait()
			victim.run.Close()
			f.mu.Lock()
			for i, rep := range f.replicas {
				if rep == victim {
					f.replicas = append(f.replicas[:i], f.replicas[i+1:]...)
					break
				}
			}
			f.mu.Unlock()
			f.scaleDowns.Add(1)
		}()
	}
	f.mu.Unlock()
}

// Replicas reports the current serving (non-draining) replica count.
func (f *Fleet) Replicas() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, rep := range f.replicas {
		if !rep.draining {
			n++
		}
	}
	return n
}

// Mode reports "replicated" (one-chip replicas) or "pipeline" (replicas
// that pipeline requests across several chips). The compiler decides which:
// it is the chip count of the Program BuildPipeline cut.
func (f *Fleet) Mode() string {
	if f.stages > 1 {
		return "pipeline"
	}
	return "replicated"
}

// Inputs reports the served model's input schema (node ID → shape). With
// the rest of Do and Close, it makes Fleet a serving.Runner.
func (f *Fleet) Inputs() map[int][]int { return f.inputs }

// FleetState exposes State through serving.FleetStater, so a gateway can
// surface /v1/fleet without importing this package.
func (f *Fleet) FleetState() any { return f.State() }

// Close stops the autoscaler, drains every replica and releases them. No
// admitted request is dropped; Do after Close returns serving.ErrClosed.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.scalerDone
		f.retireWG.Wait()
		return
	}
	f.closed = true
	reps := make([]*replica, len(f.replicas))
	copy(reps, f.replicas)
	f.replicas = nil
	for _, rep := range reps {
		rep.draining = true
	}
	f.mu.Unlock()
	close(f.stop)
	<-f.scalerDone
	f.retireWG.Wait()
	for _, rep := range reps {
		rep.inflight.Wait()
		rep.run.Close()
	}
}

// replica is one serving slot: a runner plus the routing bookkeeping. The
// fleet mutex guards draining; outstanding is atomic so release needs no
// lock; inflight tracks admitted requests so retirement can wait for them.
type replica struct {
	id  int
	run *serving.Batcher

	draining    bool // guarded by Fleet.mu
	outstanding atomic.Int64
	inflight    sync.WaitGroup
	served      atomic.Uint64
}

// acquire admits one request. Caller holds Fleet.mu, which makes the
// draining check race-free against retirement marking.
func (r *replica) acquire() bool {
	if r.draining {
		return false
	}
	r.outstanding.Add(1)
	r.inflight.Add(1)
	return true
}

// release retires one admitted request.
func (r *replica) release() {
	r.outstanding.Add(-1)
	r.inflight.Done()
}
