package serving

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"cimmlc"
)

var (
	testProgOnce sync.Once
	testProg     *cimmlc.Program
	testProgErr  error
)

// buildConvRelu builds a conv-relu/toy-table2 Program.
func buildConvRelu(seed uint64, bopts ...cimmlc.BuildOption) (*cimmlc.Program, error) {
	g, err := cimmlc.Model("conv-relu")
	if err != nil {
		return nil, err
	}
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		return nil, err
	}
	c, err := cimmlc.New(a)
	if err != nil {
		return nil, err
	}
	return c.Build(context.Background(), g, cimmlc.RandomWeights(g, seed), cimmlc.CodegenOptions{}, bopts...)
}

// testProgram returns the one conv-relu/toy-table2 Program shared by the
// tests in this package; building it is the expensive part of every test.
func testProgram(t *testing.T) *cimmlc.Program {
	t.Helper()
	testProgOnce.Do(func() { testProg, testProgErr = buildConvRelu(42) })
	if testProgErr != nil {
		t.Fatal(testProgErr)
	}
	return testProg
}

// testInput returns a fresh valid request for the conv-relu program.
func testInput(seed uint64) map[int]*cimmlc.Tensor {
	in := cimmlc.NewTensor(3, 32, 32)
	in.Rand(seed+1, 1)
	return map[int]*cimmlc.Tensor{0: in}
}

type doRes struct {
	outs map[int]*cimmlc.Tensor
	err  error
}

// waitFor polls cond — an event another goroutine brings about — and fails
// the test when it does not come true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// twoChipProgram builds the zoo mlp across two chips of jia-isscc21 shrunk to 8
// cores (the mlp needs 13): the Batcher's several-queues case.
func twoChipProgram(t *testing.T) *cimmlc.Program {
	t.Helper()
	g, err := cimmlc.Model("mlp")
	if err != nil {
		t.Fatal(err)
	}
	a, err := cimmlc.Preset("jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
	c, err := cimmlc.New(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.BuildPipeline(context.Background(), g, cimmlc.RandomWeights(g, 42), cimmlc.CodegenOptions{}, 0, cimmlc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Chips() != 2 {
		t.Fatalf("mlp on the 8-core chip occupies %d chips, want 2", p.Chips())
	}
	return p
}

// mlpInput returns the deterministic request i for the zoo mlp.
func mlpInput(i int) map[int]*cimmlc.Tensor {
	in := cimmlc.NewTensor(784)
	in.Rand(uint64(i)+100, 1)
	return map[int]*cimmlc.Tensor{0: in}
}

// heldBatcher is a Batcher whose chip workers a test can hold: through
// testHookBatch a worker parks on the batch it takes next once hold(chip) has
// been called, until the gate it yields is closed. Whatever the test submits
// meanwhile is a backlog of exactly known size. Every batch taken is recorded
// per chip.
type heldBatcher struct {
	*Batcher
	t *testing.T
	// holdBatcher's fixture: release lets the held first batch go, first
	// receives its result.
	release func()
	first   chan doRes

	mu    sync.Mutex
	sizes [][]int                // lanes of every batch taken, per chip, in order
	gates []chan<- chan struct{} // a pending hold per chip: receives the gate once parked
}

// newHeldBatcher starts a Batcher over p with nothing held yet.
func newHeldBatcher(t *testing.T, p *cimmlc.Program, cfg BatcherConfig) *heldBatcher {
	t.Helper()
	h := &heldBatcher{t: t, first: make(chan doRes, 1), release: func() {},
		sizes: make([][]int, p.Chips()), gates: make([]chan<- chan struct{}, p.Chips())}
	testHookBatch = func(chip, lanes int) {
		h.mu.Lock()
		h.sizes[chip] = append(h.sizes[chip], lanes)
		parked := h.gates[chip]
		h.gates[chip] = nil
		h.mu.Unlock()
		if parked != nil {
			gate := make(chan struct{})
			parked <- gate
			<-gate
		}
	}
	h.Batcher = NewBatcher(p, cfg)
	// Cleanups run last in, first out: the workers have exited before the
	// hook is cleared.
	t.Cleanup(func() { testHookBatch = nil })
	t.Cleanup(func() { h.release(); h.Close() })
	return h
}

// hold makes the chip's worker park on the next batch it takes; parked yields
// that batch's gate once it has, and closing the gate releases it.
func (h *heldBatcher) hold(chip int) (parked <-chan chan struct{}) {
	c := make(chan chan struct{}, 1)
	h.mu.Lock()
	h.gates[chip] = c
	h.mu.Unlock()
	return c
}

// holdBatcher is a Batcher held on the first batch chip 0 takes — one lone
// request the fixture sends itself — until release.
func holdBatcher(t *testing.T, p *cimmlc.Program, cfg BatcherConfig) *heldBatcher {
	t.Helper()
	h := newHeldBatcher(t, p, cfg)
	parked := h.hold(0)
	h.first = h.do(context.Background(), testInput(0))
	gate := <-parked
	h.release = sync.OnceFunc(func() { close(gate) })
	return h
}

// do submits one request in the background.
func (h *heldBatcher) do(ctx context.Context, in map[int]*cimmlc.Tensor) chan doRes {
	res := make(chan doRes, 1)
	go func() {
		outs, err := h.Do(ctx, in)
		res <- doRes{outs, err}
	}()
	return res
}

// queued waits until chip's queue holds exactly n jobs.
func (h *heldBatcher) queued(chip, n int) {
	h.t.Helper()
	waitFor(h.t, "the backlog to queue", func() bool { return h.in[chip].Depth() >= n })
	if d := h.in[chip].Depth(); d != n {
		h.t.Fatalf("chip %d's queue holds %d jobs, want %d", chip, d, n)
	}
}

// backlog submits n requests behind the held batch, request i under ctx(i)
// (nil: the background context), and returns once all n are queued; wait
// returns their results.
func (h *heldBatcher) backlog(n int, inputs func(i int) map[int]*cimmlc.Tensor, ctx func(i int) context.Context) (wait func() []doRes) {
	h.t.Helper()
	pending := make([]chan doRes, n)
	for i := range pending {
		c := context.Background()
		if ctx != nil {
			c = ctx(i)
		}
		pending[i] = h.do(c, inputs(i))
	}
	h.queued(0, n)
	return func() []doRes {
		results := make([]doRes, n)
		for i, res := range pending {
			results[i] = <-res
		}
		return results
	}
}

// closeHeld starts Close while the first batch is still held and returns once
// it has begun; closed is closed when Close has returned.
func (h *heldBatcher) closeHeld() (closed <-chan struct{}) {
	h.t.Helper()
	c := make(chan struct{})
	go func() { h.Close(); close(c) }()
	waitFor(h.t, "Close to begin", h.closing.Load)
	return c
}

// batches returns the sizes of the batches chip 0 has taken so far, taken
// those of any chip.
func (h *heldBatcher) batches() []int { return h.taken(0) }

func (h *heldBatcher) taken(chip int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.sizes[chip])
}

func validInput(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i + 1)) }

// checkSplit holds the flush counters to their contract: they split Batches,
// and nothing is ever attributed to a deadline.
func checkSplit(t *testing.T, st BatcherStats) {
	t.Helper()
	if sum := st.SizeFlushes + st.IdleFlushes + st.DrainFlushes; sum != st.Batches || st.DeadlineFlushes != 0 {
		t.Fatalf("flush counters must split Batches with no deadline flush: %+v", st)
	}
}

// sameAsRun fails unless outs is bit-identical to a direct Run of in.
func sameAsRun(t *testing.T, p *cimmlc.Program, label string, in, outs map[int]*cimmlc.Tensor) {
	t.Helper()
	want, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(outs), len(want))
	}
	for id, wt := range want {
		if gt := outs[id]; gt == nil || !slices.Equal(gt.Data(), wt.Data()) {
			t.Fatalf("%s: output %d differs from a direct Run", label, id)
		}
	}
}

// TestBatcherTriggers pins the one batching rule on a backlog of known size:
// what queued while the executor was held leaves as batches of MaxBatch —
// size flushes — and one remainder, an idle flush.
func TestBatcherTriggers(t *testing.T) {
	p := testProgram(t)
	cases := []struct {
		name       string
		maxBatch   int
		k          int
		sizes      []int // the held lone request first
		size, idle uint64
	}{
		{"flush on size", 4, 4, []int{1, 4}, 1, 1},
		{"flush on idle", 1000, 3, []int{1, 3}, 0, 2},
		{"backlog over the cap", 4, 10, []int{1, 4, 4, 2}, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Queue holds the whole backlog at once whatever MaxBatch is.
			h := holdBatcher(t, p, BatcherConfig{MaxBatch: tc.maxBatch, Queue: 16})
			wait := h.backlog(tc.k, validInput, nil)
			h.release()
			for i, r := range wait() {
				if r.err != nil {
					t.Fatalf("request %d: %v", i, r.err)
				}
				sameAsRun(t, p, "backlog request", validInput(i), r.outs)
			}
			if r := <-h.first; r.err != nil {
				t.Fatalf("held request: %v", r.err)
			}
			if got := h.batches(); !slices.Equal(got, tc.sizes) {
				t.Fatalf("batches of %v lanes, want %v", got, tc.sizes)
			}
			st := h.Stats()
			checkSplit(t, st)
			if st.Requests != uint64(tc.k+1) || st.SizeFlushes != tc.size || st.IdleFlushes != tc.idle {
				t.Fatalf("stats %+v, want %d requests, %d size and %d idle flushes", st, tc.k+1, tc.size, tc.idle)
			}
			if d := h.Depth(); d != 0 {
				t.Fatalf("Depth() = %d after the backlog was served", d)
			}
		})
	}
}

// TestBatcherLoneRequestRunsAtOnce: on an idle batcher there is nothing to
// wait for — no deadline exists to be waited out — so a lone request is a
// batch of one, flushed because the executor was idle.
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{})
	defer b.Close()
	outs, err := b.Do(context.Background(), testInput(1))
	if err != nil {
		t.Fatal(err)
	}
	sameAsRun(t, p, "lone request", testInput(1), outs)
	if st := b.Stats(); st != (BatcherStats{Requests: 1, Batches: 1, IdleFlushes: 1}) {
		t.Fatalf("lone request on an idle batcher: %+v, want one idle flush of one request", st)
	}
	// An unheld burst is served in full, however it happens to batch.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Do(context.Background(), validInput(i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := b.Stats()
	checkSplit(t, st)
	if st.Requests != 17 {
		t.Fatalf("served %d requests, want 17", st.Requests)
	}
}

// TestBatcherShutdownDrainsPending: Close during a held batch answers every
// queued request exactly once (a second answer would block on the job's
// one-slot reply or drive the queue's in-flight count negative), and what it
// drains below MaxBatch is the drain flush.
func TestBatcherShutdownDrainsPending(t *testing.T) {
	p := testProgram(t)
	h := holdBatcher(t, p, BatcherConfig{MaxBatch: 1000, Queue: 16})
	const n = 3
	wait := h.backlog(n, validInput, nil)
	closed := h.closeHeld()
	select {
	case <-closed:
		t.Fatal("Close returned with a batch held and requests queued")
	default:
	}
	h.release()
	<-closed
	for i, r := range wait() {
		if r.err != nil {
			t.Fatalf("drained request %d: %v", i, r.err)
		}
	}
	if r := <-h.first; r.err != nil {
		t.Fatalf("held request: %v", r.err)
	}
	st := h.Stats()
	checkSplit(t, st)
	if st.DrainFlushes != 1 || st.Requests != n+1 || !slices.Equal(h.batches(), []int{1, n}) {
		t.Fatalf("stats %+v over batches %v, want the %d queued requests drained as one flush", st, h.batches(), n)
	}
	if _, err := h.Do(context.Background(), testInput(9)); err != ErrClosed {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

func TestBatcherPerRequestErrorIsolation(t *testing.T) {
	// Two RunBatch workers, so a failing lane load happens on a worker
	// goroutine: a nil tensor used to panic there, beyond the caller's reach.
	p, err := buildConvRelu(42, cimmlc.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]map[int]*cimmlc.Tensor{
		"wrong shape": {0: cimmlc.NewTensor(1, 2, 2)},
		"nil tensor":  {0: nil},
		"no inputs":   {},
	} {
		t.Run(name, func(t *testing.T) {
			h := holdBatcher(t, p, BatcherConfig{MaxBatch: 4})
			// Request 2 is malformed: it must fail alone while the three
			// requests that share its batch get their bit-exact answers.
			wait := h.backlog(4, func(i int) map[int]*cimmlc.Tensor {
				if i == 2 {
					return bad
				}
				return validInput(i)
			}, nil)
			h.release()
			for i, r := range wait() {
				if i == 2 {
					if r.err == nil {
						t.Fatal("malformed request 2 did not fail")
					}
					continue
				}
				if r.err != nil {
					t.Fatalf("request %d failed alongside the malformed one: %v", i, r.err)
				}
				sameAsRun(t, p, "batch-mate", validInput(i), r.outs)
			}
			if st := h.Stats(); st.IsolationFallbacks != 1 || !slices.Equal(h.batches(), []int{1, 4}) {
				t.Fatalf("stats %+v over batches %v, want one isolation fallback for the batch of 4", st, h.batches())
			}
		})
	}
}

// TestBatcherCancelledRequestSkipped: a request whose caller gave up while it
// was queued is answered with its context's error and never executes, and a
// batch left empty by that is no batch.
func TestBatcherCancelledRequestSkipped(t *testing.T) {
	p := testProgram(t)
	h := holdBatcher(t, p, BatcherConfig{MaxBatch: 2})
	ctx, cancel := context.WithCancel(context.Background())
	// Requests 0..3 are given up on, request 4 is not: the backlog leaves
	// as [0 1] — empty, skipped — [2 3] likewise, or with request 4 mixed
	// in wherever it landed; either way exactly one more request runs.
	wait := h.backlog(5, validInput, func(i int) context.Context {
		if i < 4 {
			return ctx
		}
		return context.Background()
	})
	cancel()
	h.release()
	for i, r := range wait() {
		if i == 4 {
			if r.err != nil {
				t.Fatalf("live request: %v", r.err)
			}
			sameAsRun(t, p, "live request", validInput(i), r.outs)
		} else if r.err != context.Canceled {
			t.Fatalf("Do with cancelled ctx = %v, want context.Canceled", r.err)
		}
	}
	h.Close()
	st := h.Stats()
	checkSplit(t, st)
	if st.Batches != 2 || st.Requests != 2 {
		t.Fatalf("cancelled requests must not execute: %+v over batches %v", st, h.batches())
	}
}

func TestBatcherBitIdenticalToDirectRun(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{MaxBatch: 4})
	defer b.Close()
	const n = 8
	results := make([]doRes, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs, err := b.Do(context.Background(), validInput(i))
			results[i] = doRes{outs, err}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		sameAsRun(t, p, "batched request", validInput(i), r.outs)
	}
}

// TestBatcherEngagesBatchedKernels pins the Batcher→RunBatch handoff: with a
// single-worker program, a full batch forms multi-lane micro-batches — two of
// two lanes, conv-relu.toy-table2's 68 736-word lanes holding a micro-batch to
// the lane cap's floor — so the program's batched counters must cover every
// request, and the outputs must still match direct Runs bit-for-bit.
func TestBatcherEngagesBatchedKernels(t *testing.T) {
	p, err := buildConvRelu(43, cimmlc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	h := holdBatcher(t, p, BatcherConfig{MaxBatch: 4})
	const n = 4
	wait := h.backlog(n, validInput, nil)
	h.release()
	for i, r := range wait() {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		sameAsRun(t, p, "batched request", validInput(i), r.outs)
	}
	if st := p.Stats(); st.BatchRuns != 2 || st.BatchedRequests != n {
		t.Fatalf("%d requests in %d micro-batches, want the %d queued ones in two", st.BatchedRequests, st.BatchRuns, n)
	}
}

// wantRun fails unless res is the bit-exact answer Program.Run gives in.
func (h *heldBatcher) wantRun(label string, in map[int]*cimmlc.Tensor, res doRes) {
	h.t.Helper()
	if res.err != nil {
		h.t.Fatalf("%s: %v", label, res.err)
	}
	sameAsRun(h.t, h.Program(), label, in, res.outs)
}

// TestBatcherChipsBatchBacklog: the jobs that queue for a later chip while it
// is busy leave its queue as one lane-wise step, counted by the program like
// any micro-batch, and every lane's output equals a direct Run's bit for bit.
// The batcher's own stats count what chip 0 took.
func TestBatcherChipsBatchBacklog(t *testing.T) {
	p := twoChipProgram(t)
	h := newHeldBatcher(t, p, BatcherConfig{MaxBatch: 4})
	ctx := context.Background()
	parked := h.hold(1)
	first := h.do(ctx, mlpInput(0))
	gate := <-parked // request 0 has cleared chip 0 and occupies chip 1

	const k = 3
	rest := make([]chan doRes, k)
	for i := range rest {
		rest[i] = h.do(ctx, mlpInput(i+1))
	}
	h.queued(1, k) // chip 0 was idle: all k stepped through it and wait for chip 1
	before := p.Stats()
	close(gate)

	results := []doRes{<-first}
	for _, res := range rest {
		results = append(results, <-res)
	}
	after := p.Stats() // before the reference Runs below move the counters
	for i, res := range results {
		h.wantRun("request", mlpInput(i), res)
	}
	if got := h.taken(1); !slices.Equal(got, []int{1, k}) {
		t.Fatalf("chip 1 stepped batches of %v lanes, want [1 %d]", got, k)
	}
	if runs, reqs := after.BatchRuns-before.BatchRuns, after.BatchedRequests-before.BatchedRequests; runs != 1 || reqs != k {
		t.Fatalf("program counted %d requests in %d micro-batches, want the %d staged lanes in one", reqs, runs, k)
	}
	if d := after.Requests - before.Requests; d != k+1 {
		t.Fatalf("program counted %d requests, want %d", d, k+1)
	}
	st := h.Stats()
	checkSplit(t, st)
	if st.Requests != k+1 || st.Batches != uint64(len(h.taken(0))) {
		t.Fatalf("stats %+v over chip 0's batches %v: they must count what chip 0 took", st, h.taken(0))
	}
}

// TestBatcherChipCancelledJobSkipped: a job whose caller gives up while it
// waits for a later chip is answered with its context's error and does not
// step there.
func TestBatcherChipCancelledJobSkipped(t *testing.T) {
	p := twoChipProgram(t)
	h := newHeldBatcher(t, p, BatcherConfig{MaxBatch: 4})
	parked := h.hold(1)
	first := h.do(context.Background(), mlpInput(0))
	gate := <-parked

	ctx, cancel := context.WithCancel(context.Background())
	gone := h.do(ctx, mlpInput(1))
	live := h.do(context.Background(), mlpInput(2))
	h.queued(1, 2)
	cancel()
	if res := <-gone; res.err != context.Canceled {
		t.Fatalf("cancelled Do = %v, want context.Canceled", res.err)
	}
	before := p.Stats().Requests
	close(gate)

	firstRes, liveRes := <-first, <-live
	if d := p.Stats().Requests - before; d != 2 {
		t.Fatalf("program completed %d requests, want 2", d)
	}
	h.wantRun("held request", mlpInput(0), firstRes)
	h.wantRun("live request", mlpInput(2), liveRes)
	if got := h.taken(1); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("chip 1 stepped batches of %v lanes, want [1 1]: the cancelled job must not run", got)
	}
}

// TestBatcherChipsMalformedLaneFailsAlone: a malformed request poisons the
// batch it is admitted in; the batch re-runs lane by lane, so it alone draws
// the error Program.Run gives it and the others flow on to the next chip.
func TestBatcherChipsMalformedLaneFailsAlone(t *testing.T) {
	p := twoChipProgram(t)
	h := newHeldBatcher(t, p, BatcherConfig{MaxBatch: 4})
	ctx := context.Background()
	parked := h.hold(0)
	first := h.do(ctx, mlpInput(0))
	gate := <-parked

	bad := map[int]*cimmlc.Tensor{0: cimmlc.NewTensor(2, 2)}
	_, wantErr := p.Run(ctx, bad)
	if wantErr == nil {
		t.Fatal("Program.Run accepted the malformed request")
	}
	good1, poisoned, good2 := h.do(ctx, mlpInput(1)), h.do(ctx, bad), h.do(ctx, mlpInput(2))
	h.queued(0, 3)
	close(gate)

	h.wantRun("held request", mlpInput(0), <-first)
	h.wantRun("batch-mate", mlpInput(1), <-good1)
	h.wantRun("batch-mate", mlpInput(2), <-good2)
	if res := <-poisoned; res.outs != nil || res.err == nil || res.err.Error() != wantErr.Error() {
		t.Fatalf("malformed request: outs=%v err=%v, want Program.Run's error %q", res.outs, res.err, wantErr)
	}
	if got := h.taken(0); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("chip 0 stepped batches of %v lanes, want [1 3]", got)
	}
	if st := h.Stats(); st.IsolationFallbacks != 1 {
		t.Fatalf("stats %+v, want one isolation fallback", st)
	}
}

// TestBatcherCloseAnswersEveryChip: Close with a batch held on each chip and
// jobs queued behind both waits for all of them; every admitted request gets
// its bit-exact answer, later ones ErrClosed.
func TestBatcherCloseAnswersEveryChip(t *testing.T) {
	p := twoChipProgram(t)
	h := newHeldBatcher(t, p, BatcherConfig{MaxBatch: 4})
	ctx := context.Background()
	var pending []chan doRes
	submit := func() { pending = append(pending, h.do(ctx, mlpInput(len(pending)))) }

	parked1 := h.hold(1)
	submit() // request 0: parks on chip 1
	gate1 := <-parked1
	submit()
	submit()
	h.queued(1, 2) // requests 1, 2: behind it in chip 1's queue
	parked0 := h.hold(0)
	submit() // request 3: parks on chip 0
	gate0 := <-parked0
	submit()
	submit()
	h.queued(0, 2) // requests 4, 5: behind it in chip 0's queue

	closed := h.closeHeld()
	// Admission has stopped once a request is refused; until then a probe
	// under a dead context is either turned away by that context or queued
	// and, cancelled, skipped.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	waitFor(t, "Close to refuse requests", func() bool {
		_, err := h.Do(dead, mlpInput(0))
		if err != ErrClosed && err != context.Canceled {
			t.Fatalf("probe Do = %v, want context.Canceled or ErrClosed", err)
		}
		return err == ErrClosed
	})
	select {
	case <-closed:
		t.Fatal("Close returned with jobs held and queued on both chips")
	default:
	}
	close(gate0)
	close(gate1)
	<-closed
	for i, res := range pending {
		h.wantRun("request admitted before Close", mlpInput(i), <-res)
	}
}
