package serving

import (
	"context"
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

// Batcher is a dynamic micro-batching queue in front of one Program. A
// request submitted by Do runs at once when the executor is idle; the
// requests that queue while it is busy form the next batch, capped at
// MaxBatch, which runs through Program.RunBatch's bounded worker pool. A
// failed batch falls back to per-request execution so one malformed request
// cannot fail its batch-mates.
//
// A Batcher is safe for concurrent use. Close drains pending requests.
type Batcher struct {
	p    *cimmlc.Program
	q    *queue.Queue
	done chan struct{} // closed when the batching loop has exited

	closing   atomic.Bool
	requests  atomic.Uint64
	batches   atomic.Uint64
	sizeFl    atomic.Uint64
	idleFl    atomic.Uint64
	drainFl   atomic.Uint64
	fallbacks atomic.Uint64
}

// testHookBatch is a test seam, nil outside tests: the batching loop calls it
// with each batch it has taken, before running it, so a test can hold the
// executor while a backlog of known size builds.
var testHookBatch func(lanes int)

// NewBatcher starts the batching loop for p.
func NewBatcher(p *cimmlc.Program, cfg BatcherConfig) *Batcher {
	b := &Batcher{p: p, q: queue.New(cfg.MaxBatch, cfg.Queue), done: make(chan struct{})}
	go b.loop()
	return b
}

// Do submits one inference request and blocks until its batch has executed
// (or ctx is done). It returns ErrClosed once Close has begun.
func (b *Batcher) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	return b.q.Do(ctx, inputs)
}

// Close stops accepting requests, serves everything already admitted, and
// waits for the batching loop to exit. It is idempotent.
func (b *Batcher) Close() {
	b.closing.Store(true)
	b.q.Close()
	<-b.done
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

// Depth reports the number of requests queued but not yet claimed by the
// batching loop — the backlog signal fleet autoscalers act on.
func (b *Batcher) Depth() int { return b.q.Depth() }

// Inputs reports the underlying program's input schema (node ID → shape).
func (b *Batcher) Inputs() map[int][]int { return b.p.Inputs() }

func (b *Batcher) loop() {
	defer close(b.done)
	for {
		jobs, full := b.q.Take()
		if jobs == nil {
			return
		}
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
		if testHookBatch != nil {
			testHookBatch(len(jobs))
		}
		if queue.Run(jobs, b.step) {
			b.fallbacks.Add(1)
		}
	}
}

// step executes jobs together and answers them: a lone request as a plain
// Run, so its errors read as Run's do, several through RunBatch.
func (b *Batcher) step(ctx context.Context, jobs []*queue.Job) error {
	if len(jobs) == 1 {
		outs, err := b.p.Run(ctx, jobs[0].Env)
		if err == nil {
			jobs[0].Finish(outs, nil)
		}
		return err
	}
	inputs := make([]map[int]*cimmlc.Tensor, len(jobs))
	for i, j := range jobs {
		inputs[i] = j.Env
	}
	outs, err := b.p.RunBatch(ctx, inputs)
	if err != nil {
		return err
	}
	for i, j := range jobs {
		j.Finish(outs[i], nil)
	}
	return nil
}
