// Package queue is the serving stack's one batching policy, written once: a
// bounded inbox whose consumer blocks for the first job, tops the batch up
// from the backlog without waiting, runs it, and repeats. A job runs at once
// when its executor is idle; a batch is whatever queued while the executor
// was busy, capped at the batch limit. No timer ever holds a job back.
//
// serving.Batcher consumes one Queue per chip of its Program: every chip
// worker takes its batches with Take and carries them out with Run, so the
// rules a batch runner needs — skip the jobs nobody waits for any more, let a
// poisoned job fail alone — exist here and nowhere else.
package queue

import (
	"context"
	"errors"
	"sync"

	"cimmlc"
)

// ErrClosed is returned by Do once Close has begun (serving.ErrClosed).
var ErrClosed = errors.New("serving: batcher closed")

// Job is one admitted request on its way through one or more queues.
type Job struct {
	Ctx context.Context
	// Env holds the request's tensors by node ID: its inputs on admission,
	// plus whatever the steps it passes through publish into it.
	Env map[int]*cimmlc.Tensor

	home  *Queue // the queue that admitted the job and waits for its answer
	reply chan result
}

type result struct {
	outs map[int]*cimmlc.Tensor
	err  error
}

// Finish answers the job's caller, exactly once per job. The reply is
// buffered, so a caller that gave up on its context never blocks a consumer.
func (j *Job) Finish(outs map[int]*cimmlc.Tensor, err error) {
	j.reply <- result{outs, err}
	j.home.inflight.Done()
}

// Queue is a bounded inbox of jobs with one consumer. Safe for concurrent
// use.
type Queue struct {
	ch  chan *Job
	max int

	mu        sync.Mutex
	closed    bool
	inflight  sync.WaitGroup // jobs admitted here and not yet answered
	closeOnce sync.Once
}

// New returns a queue whose batches hold at most maxBatch jobs (default 8)
// and whose inbox buffers capacity of them (default 4×maxBatch). When the
// inbox is full, senders block: backpressure reaches the callers instead of
// growing an unbounded queue.
func New(maxBatch, capacity int) *Queue {
	if maxBatch <= 0 {
		maxBatch = 8
	}
	if capacity <= 0 {
		capacity = 4 * maxBatch
	}
	return &Queue{ch: make(chan *Job, capacity), max: maxBatch}
}

// Do admits one request and blocks until a consumer has answered it or ctx
// is done. An admitted job is answered even when its caller has left.
func (q *Queue) Do(ctx context.Context, env map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Admission and Close's wait are ordered by the mutex: no job slips in
	// after Close has counted the ones to wait for.
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	q.inflight.Add(1)
	q.mu.Unlock()

	j := &Job{Ctx: ctx, Env: env, home: q, reply: make(chan result, 1)}
	select {
	case q.ch <- j:
	case <-ctx.Done():
		q.inflight.Done()
		return nil, ctx.Err()
	}
	select {
	case res := <-j.reply:
		return res.outs, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Forward hands a job admitted elsewhere on to this queue's consumer — the
// next step of a pipeline. The admitting queue's Close still waits for it.
func (q *Queue) Forward(j *Job) { q.ch <- j }

// Depth reports the jobs queued and not yet taken: the backlog the next
// batches form from, and the signal fleet autoscalers act on.
func (q *Queue) Depth() int { return len(q.ch) }

// Close stops admission, waits until every job admitted here has been
// answered, then releases the consumer: Take returns nil. Idempotent; a
// concurrent second call returns when the first has.
func (q *Queue) Close() {
	q.closeOnce.Do(func() {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		q.inflight.Wait()
		close(q.ch)
	})
}

// Take blocks until a job is queued, then tops the batch up from the
// backlog without waiting, to at most the batch limit; full reports that
// the backlog reached it. Jobs whose context is already done are answered
// with its error and skipped — a batch they leave empty is no batch, and
// Take waits again. It returns nil once the queue is closed.
func (q *Queue) Take() (live []*Job, full bool) {
	for first := range q.ch {
		batch := append(make([]*Job, 0, min(q.max, 1+len(q.ch))), first)
	topUp:
		for len(batch) < q.max {
			select {
			case j, ok := <-q.ch:
				if !ok {
					break topUp
				}
				batch = append(batch, j)
			default:
				break topUp
			}
		}
		full, live = len(batch) == q.max, batch[:0]
		for _, j := range batch {
			if err := j.Ctx.Err(); err != nil {
				j.Finish(nil, err)
				continue
			}
			live = append(live, j)
		}
		if len(live) > 0 {
			return live, full
		}
	}
	return nil, false
}

// Run carries one batch through step, which either disposes of every job it
// was given — Finish, or Forward to the next queue — and returns nil, or
// disposes of none and returns the error. A lone job runs under its own
// context. A batch runs under the background context, so that one caller's
// timeout cannot cancel its batch-mates, and when it fails as a whole its
// jobs run again one by one: only the job that causes an error is answered
// with it. Run reports whether that isolation pass was needed.
func Run(jobs []*Job, step func(ctx context.Context, jobs []*Job) error) (isolated bool) {
	if len(jobs) > 1 {
		if step(context.Background(), jobs) == nil {
			return false
		}
		isolated = true
	}
	for i, j := range jobs {
		if err := step(j.Ctx, jobs[i:i+1]); err != nil {
			j.Finish(nil, err)
		}
	}
	return isolated
}
