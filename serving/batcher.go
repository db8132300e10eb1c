package serving

import (
	"context"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"cimmlc"
	"cimmlc/serving/internal/queue"
)

// ErrClosed is returned by Batcher.Do after Close has begun.
var ErrClosed = queue.ErrClosed

// BatcherConfig sizes a micro-batching queue. There is no flush deadline to
// tune: a request runs at once when its executor is idle, and a batch is
// whatever queued while the executor was busy.
type BatcherConfig struct {
	// MaxBatch caps the requests one batch carries (default 8).
	MaxBatch int
	// Queue is the submit-buffer capacity (default 4×MaxBatch). When the
	// buffer is full, Do blocks — backpressure propagates to callers
	// instead of growing an unbounded queue.
	Queue int
	// Deprecated: ignored. No request waits out a delay any more; the field
	// goes with the bench contract refresh (ROADMAP item 1b).
	MaxDelay time.Duration
}

// BatcherStats counts the batcher's activity.
type BatcherStats struct {
	// Requests is the number of requests that entered a batch.
	Requests uint64 `json:"requests"`
	// Batches is the number of batches run; Requests/Batches is the mean
	// batch size actually achieved.
	Batches uint64 `json:"batches"`
	// SizeFlushes, IdleFlushes and DrainFlushes split Batches by what the
	// executor found queued when it came free: a backlog of MaxBatch or
	// more, less than that, or less than that after Close had begun.
	SizeFlushes  uint64 `json:"size_flushes"`
	IdleFlushes  uint64 `json:"idle_flushes"`
	DrainFlushes uint64 `json:"drain_flushes"`
	// Deprecated: always 0. No batch waits for a deadline any more; the
	// field goes with the bench contract refresh (ROADMAP item 1b).
	DeadlineFlushes uint64 `json:"deadline_flushes"`
	// IsolationFallbacks counts batches that failed as a whole and were
	// re-run request-by-request to isolate the failing request.
	IsolationFallbacks uint64 `json:"isolation_fallbacks"`
}

// Batcher is the serving engine of one Program: a dynamic micro-batching queue
// and a worker in front of every chip the program occupies — one of each for
// a program on one chip. A request submitted by Do runs on a chip at once when
// that chip is idle; the requests that queue while it is busy form its next
// batch, capped at MaxBatch, which Program.RunChip carries lane-wise. A
// request that has cleared a chip moves on to the next chip's queue, so the
// requests in flight spread over the chips: chip c of one batch overlaps chip
// c+1 of the batch before, the inter-request pipelining that hides all but
// the slowest chip's latency. A failed batch falls back to per-request
// execution so one malformed request cannot fail its batch-mates.
//
// A Batcher is safe for concurrent use. Close drains pending requests.
type Batcher struct {
	p    *cimmlc.Program
	outs []int
	// in[c] feeds chip c. Requests are admitted through in[0], whose Close
	// therefore waits for every job in flight on any chip, and whose batches
	// are the ones Stats counts.
	in []*queue.Queue
	wg sync.WaitGroup // chip workers

	closing   atomic.Bool
	requests  atomic.Uint64
	batches   atomic.Uint64
	sizeFl    atomic.Uint64
	idleFl    atomic.Uint64
	drainFl   atomic.Uint64
	fallbacks atomic.Uint64
}

// testHookBatch is a test seam, nil outside tests: a chip worker calls it with
// each batch it has taken, before running it, so a test can hold the chip
// while a backlog of known size builds.
var testHookBatch func(chip, lanes int)

// NewBatcher starts a worker for every chip of p.
func NewBatcher(p *cimmlc.Program, cfg BatcherConfig) *Batcher {
	b := &Batcher{p: p, outs: p.Outputs(), in: make([]*queue.Queue, p.Chips())}
	for c := range b.in {
		b.in[c] = queue.New(cfg.MaxBatch, cfg.Queue)
	}
	for c := range b.in {
		b.wg.Add(1)
		go b.worker(c)
	}
	return b
}

// Do submits one inference request and blocks until it has cleared every chip
// (or ctx is done). It returns ErrClosed once Close has begun.
func (b *Batcher) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	// The chips publish into the job's environment; the caller's map stays
	// its own.
	return b.in[0].Do(ctx, maps.Clone(inputs))
}

// Close stops accepting requests, serves everything already admitted, and
// waits for the chip workers to exit. It is idempotent.
func (b *Batcher) Close() {
	b.closing.Store(true)
	b.in[0].Close()
	b.wg.Wait()
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Requests:           b.requests.Load(),
		Batches:            b.batches.Load(),
		SizeFlushes:        b.sizeFl.Load(),
		IdleFlushes:        b.idleFl.Load(),
		DrainFlushes:       b.drainFl.Load(),
		IsolationFallbacks: b.fallbacks.Load(),
	}
}

// Program returns the program the batcher serves.
func (b *Batcher) Program() *cimmlc.Program { return b.p }

// Depth reports the number of requests admitted but not yet claimed by chip
// 0's worker — the backlog signal fleet autoscalers act on.
func (b *Batcher) Depth() int { return b.in[0].Depth() }

// Inputs reports the underlying program's input schema (node ID → shape).
func (b *Batcher) Inputs() map[int][]int { return b.p.Inputs() }

// worker drives chip c: it takes batches from the chip's queue, runs the
// chip's stages over them — which publishes their exports into each job's
// environment — and hands the jobs to the next chip, or answers their callers
// after the last. A job environment is touched by one worker at a time.
func (b *Batcher) worker(c int) {
	defer b.wg.Done()
	last := c == len(b.in)-1
	step := func(ctx context.Context, jobs []*queue.Job) error {
		envs := make([]map[int]*cimmlc.Tensor, len(jobs))
		for k, j := range jobs {
			envs[k] = j.Env
		}
		if err := b.p.RunChip(ctx, c, envs...); err != nil {
			return err
		}
		for _, j := range jobs {
			if !last {
				b.in[c+1].Forward(j)
				continue
			}
			outs := make(map[int]*cimmlc.Tensor, len(b.outs))
			for _, id := range b.outs {
				outs[id] = j.Env[id]
			}
			j.Finish(outs, nil)
		}
		return nil
	}
	for {
		jobs, full := b.in[c].Take()
		if jobs == nil {
			break
		}
		if c == 0 {
			b.batches.Add(1)
			b.requests.Add(uint64(len(jobs)))
			switch {
			case full:
				b.sizeFl.Add(1)
			case b.closing.Load():
				b.drainFl.Add(1)
			default:
				b.idleFl.Add(1)
			}
		}
		if testHookBatch != nil {
			testHookBatch(c, len(jobs))
		}
		if queue.Run(jobs, step) {
			b.fallbacks.Add(1)
		}
	}
	if !last {
		b.in[c+1].Close()
	}
}
