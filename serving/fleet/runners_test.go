package fleet

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

// stageRig is a stageRunner over the zoo mlp cut across two jia-small chips
// whose stage workers a test can hold: through testHookStage a worker parks
// on the batch it takes next once hold(stage) has been called, until the
// returned release. Every batch taken is recorded per stage.
type stageRig struct {
	t *testing.T
	p *cimmlc.Program
	r *stageRunner

	mu      sync.Mutex
	batches [2][]int              // lanes of every batch taken, per stage
	gates   [2]chan chan struct{} // a pending hold: receives the gate once parked
}

func newStageRig(t *testing.T, cfg serving.BatcherConfig) *stageRig {
	t.Helper()
	p, err := smallChipRegistry(t).BuildPipeline(context.Background(), "mlp", "jia-small", 0, cimmlc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages() != 2 {
		t.Fatalf("mlp on jia-small built %d stages, want 2", p.Stages())
	}
	g := &stageRig{t: t, p: p}
	testHookStage = func(stage, lanes int) {
		g.mu.Lock()
		g.batches[stage] = append(g.batches[stage], lanes)
		parked := g.gates[stage]
		g.gates[stage] = nil
		g.mu.Unlock()
		if parked != nil {
			gate := make(chan struct{})
			parked <- gate
			<-gate
		}
	}
	g.r = newStageRunner(p, cfg)
	// Last in, first out: the workers have exited before the hook is cleared.
	t.Cleanup(func() { testHookStage = nil })
	t.Cleanup(g.r.Close)
	return g
}

// hold makes the stage's worker park on the next batch it takes; parked
// yields that batch's gate once it has, and closing the gate releases it.
func (g *stageRig) hold(stage int) (parked chan chan struct{}) {
	parked = make(chan chan struct{}, 1)
	g.mu.Lock()
	g.gates[stage] = parked
	g.mu.Unlock()
	return parked
}

type stageRes struct {
	outs map[int]*cimmlc.Tensor
	err  error
}

// do submits one request in the background.
func (g *stageRig) do(ctx context.Context, in map[int]*cimmlc.Tensor) <-chan stageRes {
	res := make(chan stageRes, 1)
	go func() {
		outs, err := g.r.Do(ctx, in)
		res <- stageRes{outs, err}
	}()
	return res
}

// queued waits until stage's inbox holds exactly n jobs.
func (g *stageRig) queued(stage, n int) {
	g.t.Helper()
	for deadline := time.Now().Add(30 * time.Second); g.r.in[stage].Depth() < n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			g.t.Fatalf("timed out waiting for %d jobs in stage %d's inbox", n, stage)
		}
	}
	if d := g.r.in[stage].Depth(); d != n {
		g.t.Fatalf("stage %d's inbox holds %d jobs, want %d", stage, d, n)
	}
}

func (g *stageRig) taken(stage int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.batches[stage])
}

// want fails unless res is request i's bit-exact answer.
func (g *stageRig) want(label string, i int, res stageRes) {
	g.t.Helper()
	if res.err != nil {
		g.t.Fatalf("%s: %v", label, res.err)
	}
	want, err := g.p.Run(context.Background(), mlpInput(i))
	if err != nil {
		g.t.Fatal(err)
	}
	sameBits(g.t, label, res.outs, want)
}

// TestStageRunnerBatchesBacklog: the jobs that queue for a chip while it is
// busy leave its inbox as one lane-wise step, counted by the program like any
// micro-batch, and every lane's output equals a direct Run's bit for bit.
func TestStageRunnerBatchesBacklog(t *testing.T) {
	g := newStageRig(t, serving.BatcherConfig{MaxBatch: 4})
	ctx := context.Background()
	parked := g.hold(1)
	first := g.do(ctx, mlpInput(0))
	gate := <-parked // request 0 has cleared chip 0 and occupies chip 1

	const k = 3
	rest := make([]<-chan stageRes, k)
	for i := range rest {
		rest[i] = g.do(ctx, mlpInput(i+1))
	}
	g.queued(1, k) // chip 0 was idle: all k stepped through it and wait for chip 1
	before := g.p.Stats()
	close(gate)

	results := []stageRes{<-first}
	for _, res := range rest {
		results = append(results, <-res)
	}
	after := g.p.Stats() // before the reference Runs below move the counters
	for i, res := range results {
		g.want("request", i, res)
	}
	if got := g.taken(1); !slices.Equal(got, []int{1, k}) {
		t.Fatalf("chip 1 stepped batches of %v lanes, want [1 %d]", got, k)
	}
	if runs, reqs := after.BatchRuns-before.BatchRuns, after.BatchedRequests-before.BatchedRequests; runs != 1 || reqs != k {
		t.Fatalf("program counted %d requests in %d micro-batches, want the %d staged lanes in one", reqs, runs, k)
	}
	if d := after.Requests - before.Requests; d != k+1 {
		t.Fatalf("program counted %d requests, want %d", d, k+1)
	}
}

// TestStageRunnerCancelledJobSkipped: a job whose caller gives up while it
// waits for a chip is answered with its context's error and does not step.
func TestStageRunnerCancelledJobSkipped(t *testing.T) {
	g := newStageRig(t, serving.BatcherConfig{MaxBatch: 4})
	parked := g.hold(1)
	first := g.do(context.Background(), mlpInput(0))
	gate := <-parked

	ctx, cancel := context.WithCancel(context.Background())
	gone := g.do(ctx, mlpInput(1))
	live := g.do(context.Background(), mlpInput(2))
	g.queued(1, 2)
	cancel()
	if res := <-gone; res.err != context.Canceled {
		t.Fatalf("cancelled Do = %v, want context.Canceled", res.err)
	}
	before := g.p.Stats().Requests
	close(gate)

	firstRes, liveRes := <-first, <-live
	if d := g.p.Stats().Requests - before; d != 2 {
		t.Fatalf("program completed %d requests, want 2", d)
	}
	g.want("held request", 0, firstRes)
	g.want("live request", 2, liveRes)
	if got := g.taken(1); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("chip 1 stepped batches of %v lanes, want [1 1]: the cancelled job must not run", got)
	}
}

// TestStageRunnerMalformedLaneFailsAlone: a malformed request poisons the
// batch it is admitted in; the batch re-runs lane by lane, so it alone draws
// the error Program.Run gives it and the others flow on.
func TestStageRunnerMalformedLaneFailsAlone(t *testing.T) {
	g := newStageRig(t, serving.BatcherConfig{MaxBatch: 4})
	ctx := context.Background()
	parked := g.hold(0)
	first := g.do(ctx, mlpInput(0))
	gate := <-parked

	bad := map[int]*cimmlc.Tensor{0: cimmlc.NewTensor(2, 2)}
	_, wantErr := g.p.Run(ctx, bad)
	if wantErr == nil {
		t.Fatal("Program.Run accepted the malformed request")
	}
	good1, poisoned, good2 := g.do(ctx, mlpInput(1)), g.do(ctx, bad), g.do(ctx, mlpInput(2))
	g.queued(0, 3)
	close(gate)

	g.want("held request", 0, <-first)
	g.want("batch-mate", 1, <-good1)
	g.want("batch-mate", 2, <-good2)
	if res := <-poisoned; res.outs != nil || res.err == nil || res.err.Error() != wantErr.Error() {
		t.Fatalf("malformed request: outs=%v err=%v, want Program.Run's error %q", res.outs, res.err, wantErr)
	}
	if got := g.taken(0); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("chip 0 stepped batches of %v lanes, want [1 3]", got)
	}
}

// TestStageRunnerCloseAnswersEveryInbox: Close with a batch held on each chip
// and jobs queued behind both waits for all of them; every admitted request
// gets its bit-exact answer, later ones ErrClosed.
func TestStageRunnerCloseAnswersEveryInbox(t *testing.T) {
	g := newStageRig(t, serving.BatcherConfig{MaxBatch: 4})
	ctx := context.Background()
	var pending []<-chan stageRes
	submit := func() { pending = append(pending, g.do(ctx, mlpInput(len(pending)))) }

	parked1 := g.hold(1)
	submit() // request 0: parks on chip 1
	gate1 := <-parked1
	submit()
	submit()
	g.queued(1, 2) // requests 1, 2: behind it in chip 1's inbox
	parked0 := g.hold(0)
	submit() // request 3: parks on chip 0
	gate0 := <-parked0
	submit()
	submit()
	g.queued(0, 2) // requests 4, 5: behind it in chip 0's inbox

	closed := make(chan struct{})
	go func() { g.r.Close(); close(closed) }()
	// Close has begun once a request is refused; until then a probe under a
	// dead context is either turned away by that context or queued and,
	// cancelled, skipped.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	for {
		if _, err := g.r.Do(dead, mlpInput(0)); err == serving.ErrClosed {
			break
		} else if err != context.Canceled {
			t.Fatalf("probe Do = %v, want context.Canceled or ErrClosed", err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with jobs held and queued on both chips")
	default:
	}
	close(gate0)
	close(gate1)
	<-closed
	for i, res := range pending {
		g.want("request admitted before Close", i, <-res)
	}
}
