package fleet

import (
	"context"
	"sync"
	"sync/atomic"

	"cimmlc"
	"cimmlc/serving"
)

// runner is one replica's execution engine: a *serving.Batcher in front of a
// program that occupies one chip, a *stageRunner around one cut across
// several.
type runner interface {
	Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error)
	// Depth reports the requests admitted but not yet executing.
	Depth() int
	Close()
}

// chips reports how many chips p occupies: its stage count when the plan was
// cut on the chip link, one otherwise (a host-cut plan's CIM stages share a
// chip).
func chips(p *cimmlc.Program) int {
	if ps := p.Stats().Partition; ps != nil && ps.Link == "chip" {
		return p.Stages()
	}
	return 1
}

// stageJob is one request flowing through a stageRunner. env accumulates
// boundary activations keyed by global node ID; exactly one stage worker
// touches a job at a time, so no locking is needed.
type stageJob struct {
	ctx   context.Context
	env   map[int]*cimmlc.Tensor
	reply chan stageRes
}

type stageRes struct {
	outs map[int]*cimmlc.Tensor
	err  error
}

// stageRunner is the cross-chip replica: one multi-chip Program with a worker
// goroutine per stage (per chip), connected by channels. Each chip processes
// one request at a time, so k requests in flight occupy k consecutive
// stages — stage i of request k+1 overlaps stage i+1 of request k, the
// inter-request pipelining that hides all but the slowest stage's latency.
type stageRunner struct {
	p     *cimmlc.Program
	outs  []int
	heads []chan *stageJob // heads[i] feeds stage i

	// queued counts the jobs admitted but not yet picked up by stage 0 —
	// including callers still blocked handing theirs over, which the head
	// channel's own length cannot show.
	queued atomic.Int64

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // jobs admitted but not yet finished
	wg       sync.WaitGroup // stage workers
}

func newStageRunner(p *cimmlc.Program) *stageRunner {
	r := &stageRunner{p: p, outs: p.Outputs(), heads: make([]chan *stageJob, p.Stages())}
	for i := range r.heads {
		r.heads[i] = make(chan *stageJob, 1)
	}
	for i := range r.heads {
		r.wg.Add(1)
		go r.stageWorker(i)
	}
	return r
}

// stageWorker drives one chip: it pulls jobs from its head channel, runs its
// stage — which publishes the stage's exports into the job's environment —
// and hands the job to the next chip, or answers the caller after the last
// stage. A job whose context is already done skips the stage and fails.
func (r *stageRunner) stageWorker(i int) {
	defer r.wg.Done()
	last := i == len(r.heads)-1
	for job := range r.heads[i] {
		if i == 0 {
			r.queued.Add(-1)
		}
		err := job.ctx.Err()
		if err == nil {
			err = r.p.RunStage(job.ctx, i, job.env)
		}
		switch {
		case err != nil:
			r.finish(job, stageRes{err: err})
		case last:
			outs := make(map[int]*cimmlc.Tensor, len(r.outs))
			for _, id := range r.outs {
				outs[id] = job.env[id]
			}
			r.finish(job, stageRes{outs: outs})
		default:
			r.heads[i+1] <- job
		}
	}
	if !last {
		close(r.heads[i+1])
	}
}

// finish answers a job's caller and retires it from the in-flight count. The
// reply channel is buffered, so a caller that gave up on its context never
// blocks the stage worker.
func (r *stageRunner) finish(job *stageJob, res stageRes) {
	job.reply <- res
	r.inflight.Done()
}

func (r *stageRunner) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	env := make(map[int]*cimmlc.Tensor, len(inputs))
	for id, t := range inputs {
		env[id] = t
	}
	job := &stageJob{ctx: ctx, env: env, reply: make(chan stageRes, 1)}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, serving.ErrClosed
	}
	r.inflight.Add(1)
	r.mu.Unlock()

	r.queued.Add(1)
	select {
	case r.heads[0] <- job:
	case <-ctx.Done():
		r.queued.Add(-1)
		r.inflight.Done()
		return nil, ctx.Err()
	}
	select {
	case res := <-job.reply:
		return res.outs, res.err
	case <-ctx.Done():
		// The job keeps flowing; the buffered reply lets the worker finish.
		return nil, ctx.Err()
	}
}

func (r *stageRunner) Depth() int { return int(r.queued.Load()) }

// Close drains in-flight jobs, then shuts the stage workers down. It is
// idempotent; Do after Close returns serving.ErrClosed.
func (r *stageRunner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.inflight.Wait()
	close(r.heads[0])
	r.wg.Wait()
}
