package fleet

import (
	"context"
	"sync"

	"cimmlc"
	"cimmlc/serving"
	"cimmlc/serving/internal/queue"
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

// stageRunner is the cross-chip replica: one multi-chip Program with a worker
// goroutine per stage (per chip), each behind the batching queue a
// serving.Batcher consumes. A chip steps, lane-wise, whatever queued for it
// while it was busy — at once and alone when it was idle — so requests in
// flight spread over the stages: stage i of one batch overlaps stage i+1 of
// the batch before, the inter-request pipelining that hides all but the
// slowest stage's latency.
type stageRunner struct {
	p    *cimmlc.Program
	outs []int
	// in[i] feeds stage i. Requests are admitted through in[0], whose Close
	// therefore waits for every job in flight on any stage.
	in []*queue.Queue
	wg sync.WaitGroup // stage workers
}

// testHookStage is a test seam, nil outside tests: a stage worker calls it
// with each batch it has taken, before stepping it.
var testHookStage func(stage, lanes int)

func newStageRunner(p *cimmlc.Program, cfg serving.BatcherConfig) *stageRunner {
	r := &stageRunner{p: p, outs: p.Outputs(), in: make([]*queue.Queue, p.Stages())}
	for i := range r.in {
		r.in[i] = queue.New(cfg.MaxBatch, cfg.Queue)
	}
	for i := range r.in {
		r.wg.Add(1)
		go r.stageWorker(i)
	}
	return r
}

// stageWorker drives one chip: it takes batches from its queue, runs its
// stage over them — which publishes the stage's exports into each job's
// environment — and hands the jobs to the next chip, or answers their callers
// after the last stage. A job environment is touched by one worker at a time.
func (r *stageRunner) stageWorker(i int) {
	defer r.wg.Done()
	last := i == len(r.in)-1
	step := func(ctx context.Context, jobs []*queue.Job) error {
		envs := make([]map[int]*cimmlc.Tensor, len(jobs))
		for k, j := range jobs {
			envs[k] = j.Env
		}
		if err := r.p.RunStage(ctx, i, envs...); err != nil {
			return err
		}
		for _, j := range jobs {
			if !last {
				r.in[i+1].Forward(j)
				continue
			}
			outs := make(map[int]*cimmlc.Tensor, len(r.outs))
			for _, id := range r.outs {
				outs[id] = j.Env[id]
			}
			j.Finish(outs, nil)
		}
		return nil
	}
	for {
		jobs, _ := r.in[i].Take()
		if jobs == nil {
			break
		}
		if testHookStage != nil {
			testHookStage(i, len(jobs))
		}
		queue.Run(jobs, step)
	}
	if !last {
		r.in[i+1].Close()
	}
}

func (r *stageRunner) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	// The stages publish into the job's environment; the caller's map stays
	// its own.
	env := make(map[int]*cimmlc.Tensor, len(inputs))
	for id, t := range inputs {
		env[id] = t
	}
	return r.in[0].Do(ctx, env)
}

func (r *stageRunner) Depth() int { return r.in[0].Depth() }

// Close drains in-flight jobs, then shuts the stage workers down. It is
// idempotent; Do after Close returns serving.ErrClosed.
func (r *stageRunner) Close() {
	r.in[0].Close()
	r.wg.Wait()
}
