package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cimmlc"
)

// ErrClosed is returned by Batcher.Do after Close has begun.
var ErrClosed = errors.New("serving: batcher closed")

// BatcherConfig tunes the dynamic micro-batching queue.
type BatcherConfig struct {
	// MaxBatch flushes the queue as soon as this many requests are
	// pending (default 8).
	MaxBatch int
	// MaxDelay flushes whatever is pending this long after the first
	// request of a batch arrived (default 2ms). It bounds the queueing
	// latency a lone request can suffer.
	MaxDelay time.Duration
	// Queue is the submit-buffer capacity (default 4×MaxBatch). When the
	// buffer is full, Do blocks — backpressure propagates to callers
	// instead of growing an unbounded queue.
	Queue int
	// WorkConserving switches to group-commit batching: a batch flushes as
	// soon as the executor would otherwise go idle, instead of waiting out
	// MaxDelay. Batches then form only from the backlog that accumulates
	// while the previous batch executes — under load they still reach
	// MaxBatch, while a lone request runs immediately with no added
	// queueing latency. MaxDelay is unused in this mode.
	WorkConserving bool
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	return c
}

// BatcherStats counts the batcher's activity.
type BatcherStats struct {
	// Requests is the number of requests that entered a flush.
	Requests uint64 `json:"requests"`
	// Batches is the number of flushes; Requests/Batches is the mean
	// batch size actually achieved.
	Batches uint64 `json:"batches"`
	// SizeFlushes, DeadlineFlushes, IdleFlushes and DrainFlushes split
	// Batches by trigger: the queue filled to MaxBatch, MaxDelay expired,
	// the executor went idle (work-conserving mode), or Close drained the
	// pending requests.
	SizeFlushes     uint64 `json:"size_flushes"`
	DeadlineFlushes uint64 `json:"deadline_flushes"`
	IdleFlushes     uint64 `json:"idle_flushes"`
	DrainFlushes    uint64 `json:"drain_flushes"`
	// IsolationFallbacks counts batches that failed as a whole and were
	// re-run request-by-request to isolate the failing request.
	IsolationFallbacks uint64 `json:"isolation_fallbacks"`
}

// Batcher is a dynamic micro-batching queue in front of one Program.
// Requests submitted by Do accumulate until either MaxBatch requests are
// pending or MaxDelay has passed since the batch's first request, then the
// whole batch flushes through Program.RunBatch's bounded worker pool. A
// failed batch falls back to per-request execution so one malformed
// request cannot fail its batch-mates.
//
// A Batcher is safe for concurrent use. Close drains pending requests.
type Batcher struct {
	p      *cimmlc.Program
	cfg    BatcherConfig
	submit chan *batchReq

	closed    atomic.Bool
	closing   chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	fallbackW sync.WaitGroup // isolation-fallback goroutines in flight

	requests  atomic.Uint64
	batches   atomic.Uint64
	sizeFl    atomic.Uint64
	deadlFl   atomic.Uint64
	idleFl    atomic.Uint64
	drainFl   atomic.Uint64
	fallbacks atomic.Uint64
}

type batchReq struct {
	ctx    context.Context
	inputs map[int]*cimmlc.Tensor
	reply  chan batchRes
}

type batchRes struct {
	outs map[int]*cimmlc.Tensor
	err  error
}

// NewBatcher starts the batching loop for p.
func NewBatcher(p *cimmlc.Program, cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		p:       p,
		cfg:     cfg,
		submit:  make(chan *batchReq, cfg.Queue),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go b.loop()
	return b
}

// Do submits one inference request and blocks until its batch has executed
// (or ctx is done). It returns ErrClosed once Close has begun.
func (b *Batcher) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if b.closed.Load() {
		return nil, ErrClosed
	}
	r := &batchReq{ctx: ctx, inputs: inputs, reply: make(chan batchRes, 1)}
	select {
	case b.submit <- r:
	case <-b.closing:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case res := <-r.reply:
		return res.outs, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.done:
		// The loop has exited. A send that raced Close may have landed
		// after the drain's final poll; the drain's replies are buffered
		// before done closes, so a missing reply means the request was
		// never seen.
		select {
		case res := <-r.reply:
			return res.outs, res.err
		default:
			return nil, ErrClosed
		}
	}
}

// Close stops accepting requests, flushes everything already queued, and
// waits for in-flight batches to finish. It is idempotent.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() {
		b.closed.Store(true)
		close(b.closing)
	})
	<-b.done
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Requests:           b.requests.Load(),
		Batches:            b.batches.Load(),
		SizeFlushes:        b.sizeFl.Load(),
		DeadlineFlushes:    b.deadlFl.Load(),
		IdleFlushes:        b.idleFl.Load(),
		DrainFlushes:       b.drainFl.Load(),
		IsolationFallbacks: b.fallbacks.Load(),
	}
}

// Program returns the program the batcher serves.
func (b *Batcher) Program() *cimmlc.Program { return b.p }

// Depth reports the number of requests queued but not yet claimed by the
// batching loop — the backlog signal fleet autoscalers act on.
func (b *Batcher) Depth() int { return len(b.submit) }

// Inputs reports the underlying program's input schema (node ID → shape).
func (b *Batcher) Inputs() map[int][]int { return b.p.Inputs() }

func (b *Batcher) loop() {
	// The done close must wait for detached isolation-fallback goroutines:
	// Do treats a closed done channel with no buffered reply as "request
	// never seen" (ErrClosed), so every reply must be in flight first.
	defer func() {
		b.fallbackW.Wait()
		close(b.done)
	}()
	var pending []*batchReq
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var timerC <-chan time.Time

	flush := func(trigger *atomic.Uint64) {
		if timerC != nil {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timerC = nil
		}
		if len(pending) == 0 {
			return
		}
		if b.runBatch(pending) {
			trigger.Add(1)
		}
		pending = nil
	}

	for {
		select {
		case r := <-b.submit:
			pending = append(pending, r)
			if b.cfg.WorkConserving {
				// Group commit: top up from the backlog without blocking,
				// then flush rather than letting the executor idle.
				for len(pending) < b.cfg.MaxBatch {
					select {
					case r2 := <-b.submit:
						pending = append(pending, r2)
						continue
					default:
					}
					break
				}
				if len(pending) >= b.cfg.MaxBatch {
					flush(&b.sizeFl)
				} else {
					flush(&b.idleFl)
				}
				continue
			}
			if len(pending) == 1 {
				timer.Reset(b.cfg.MaxDelay)
				timerC = timer.C
			}
			if len(pending) >= b.cfg.MaxBatch {
				flush(&b.sizeFl)
			}
		case <-timerC:
			timerC = nil
			flush(&b.deadlFl)
		case <-b.closing:
			// Drain: everything already queued still gets served.
			for {
				select {
				case r := <-b.submit:
					pending = append(pending, r)
					if len(pending) >= b.cfg.MaxBatch {
						// A full batch during the drain is an ordinary
						// size-triggered flush; only the final partial
						// flush below is attributed to the drain.
						flush(&b.sizeFl)
					}
					continue
				default:
				}
				break
			}
			flush(&b.drainFl)
			return
		}
	}
}

// runBatch executes one flushed batch. Requests whose context is already
// done are answered without running; the rest go through RunBatch, falling
// back to per-request Runs when the batch fails as a whole so errors stay
// isolated to the request that caused them. It reports whether a batch ran
// (false when every request was already cancelled), so the trigger counters
// keep splitting Batches.
func (b *Batcher) runBatch(reqs []*batchReq) bool {
	live := reqs[:0]
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			r.reply <- batchRes{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return false
	}
	b.batches.Add(1)
	b.requests.Add(uint64(len(live)))

	inputs := make([]map[int]*cimmlc.Tensor, len(live))
	for i, r := range live {
		inputs[i] = r.inputs
	}
	// The batch runs under the background context: one caller's timeout
	// must not cancel its batch-mates.
	outs, err := b.p.RunBatch(context.Background(), inputs)
	if err == nil {
		for i, r := range live {
			r.reply <- batchRes{outs: outs[i]}
		}
		return true
	}
	// Per-request error isolation: re-run individually so only the
	// offending request observes its error. The re-runs detach onto their
	// own goroutine — they execute serially per batch, and keeping them on
	// the batching loop would head-of-line block every later batch behind
	// one poisoned one.
	b.fallbacks.Add(1)
	b.fallbackW.Add(1)
	go func() {
		defer b.fallbackW.Done()
		for _, r := range live {
			o, rerr := b.p.Run(r.ctx, r.inputs)
			r.reply <- batchRes{outs: o, err: rerr}
		}
	}()
	return true
}
