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

// testProgram builds one conv-relu/toy-table2 Program shared by the tests
// in this package; building it is the expensive part of every test.
func testProgram(t *testing.T) *cimmlc.Program {
	t.Helper()
	testProgOnce.Do(func() {
		g, err := cimmlc.Model("conv-relu")
		if err != nil {
			testProgErr = err
			return
		}
		a, err := cimmlc.Preset("toy-table2")
		if err != nil {
			testProgErr = err
			return
		}
		c, err := cimmlc.New(a)
		if err != nil {
			testProgErr = err
			return
		}
		testProg, testProgErr = c.Build(context.Background(), g, cimmlc.RandomWeights(g, 42), cimmlc.CodegenOptions{})
	})
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

// submitN fires n Do calls concurrently and returns their results.
func submitN(t *testing.T, b *Batcher, n int, inputs func(i int) map[int]*cimmlc.Tensor) []batchRes {
	t.Helper()
	results := make([]batchRes, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs, err := b.Do(context.Background(), inputs(i))
			results[i] = batchRes{outs: outs, err: err}
		}(i)
	}
	wg.Wait()
	return results
}

func TestBatcherTriggers(t *testing.T) {
	p := testProgram(t)
	cases := []struct {
		name    string
		cfg     BatcherConfig
		n       int
		trigger func(BatcherStats) uint64
	}{
		// MaxDelay is effectively infinite: only the size trigger can fire.
		{"flush on size", BatcherConfig{MaxBatch: 4, MaxDelay: time.Hour}, 4,
			func(s BatcherStats) uint64 { return s.SizeFlushes }},
		// MaxBatch is unreachable: only the deadline trigger can fire.
		{"flush on deadline", BatcherConfig{MaxBatch: 1000, MaxDelay: 10 * time.Millisecond}, 3,
			func(s BatcherStats) uint64 { return s.DeadlineFlushes }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBatcher(p, tc.cfg)
			defer b.Close()
			results := submitN(t, b, tc.n, func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) })
			for i, r := range results {
				if r.err != nil {
					t.Fatalf("request %d: %v", i, r.err)
				}
				if len(r.outs) == 0 {
					t.Fatalf("request %d: no outputs", i)
				}
			}
			st := b.Stats()
			if st.Requests != uint64(tc.n) {
				t.Fatalf("stats count %d requests, want %d", st.Requests, tc.n)
			}
			if tc.trigger(st) == 0 {
				t.Fatalf("expected trigger did not fire: %+v", st)
			}
		})
	}
}

func TestBatcherWorkConserving(t *testing.T) {
	p := testProgram(t)
	// MaxDelay is huge on purpose: in work-conserving mode a lone request
	// must flush the moment the executor is idle, not wait out a deadline.
	b := NewBatcher(p, BatcherConfig{MaxBatch: 8, MaxDelay: time.Hour, WorkConserving: true})
	defer b.Close()
	start := time.Now()
	if _, err := b.Do(context.Background(), testInput(1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("lone work-conserving request took %v; idle flush did not fire", d)
	}
	if st := b.Stats(); st.IdleFlushes == 0 {
		t.Fatalf("expected an idle flush: %+v", st)
	}
	// A burst is still served in full, through size and idle flushes only.
	results := submitN(t, b, 16, func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) })
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	st := b.Stats()
	if st.Requests != 17 {
		t.Fatalf("served %d requests, want 17", st.Requests)
	}
	if st.DeadlineFlushes != 0 {
		t.Fatalf("work-conserving mode used the deadline timer: %+v", st)
	}
	if st.SizeFlushes+st.IdleFlushes != st.Batches {
		t.Fatalf("flush triggers do not add up: %+v", st)
	}
}

func TestBatcherShutdownDrainsPending(t *testing.T) {
	p := testProgram(t)
	// Neither trigger can fire on its own: requests sit queued until Close
	// drains them.
	b := NewBatcher(p, BatcherConfig{MaxBatch: 1000, MaxDelay: time.Hour})
	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Do(context.Background(), testInput(uint64(i)))
		}(i)
	}
	// Let the requests reach the queue, then drain.
	time.Sleep(100 * time.Millisecond)
	b.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("drained request %d: %v", i, err)
		}
	}
	st := b.Stats()
	if st.DrainFlushes == 0 {
		t.Fatalf("expected a drain flush: %+v", st)
	}
	if st.Requests != n {
		t.Fatalf("drained %d requests, want %d", st.Requests, n)
	}
	if _, err := b.Do(context.Background(), testInput(9)); err != ErrClosed {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

func TestBatcherPerRequestErrorIsolation(t *testing.T) {
	// Two RunBatch workers, so a failing lane load happens on a worker
	// goroutine: a nil tensor used to panic there, beyond the caller's reach.
	g, err := cimmlc.Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cimmlc.New(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Build(context.Background(), g, cimmlc.RandomWeights(g, 42), cimmlc.CodegenOptions{}, cimmlc.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]map[int]*cimmlc.Tensor{
		"wrong shape": {0: cimmlc.NewTensor(1, 2, 2)},
		"nil tensor":  {0: nil},
		"no inputs":   {},
	} {
		t.Run(name, func(t *testing.T) {
			b := NewBatcher(p, BatcherConfig{MaxBatch: 4, MaxDelay: time.Hour})
			defer b.Close()
			// Request 2 is malformed: it must fail alone while its three
			// batch-mates get their bit-exact answers.
			results := submitN(t, b, 4, func(i int) map[int]*cimmlc.Tensor {
				if i == 2 {
					return bad
				}
				return testInput(uint64(i))
			})
			for i, r := range results {
				if i == 2 {
					if r.err == nil {
						t.Fatal("malformed request 2 did not fail")
					}
					continue
				}
				if r.err != nil {
					t.Fatalf("request %d failed alongside the malformed one: %v", i, r.err)
				}
				want, err := p.Run(context.Background(), testInput(uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				for id, wt := range want {
					if !slices.Equal(r.outs[id].Data(), wt.Data()) {
						t.Fatalf("request %d output %d differs from a direct Run", i, id)
					}
				}
			}
			if st := b.Stats(); st.IsolationFallbacks == 0 {
				t.Fatalf("expected an isolation fallback: %+v", st)
			}
		})
	}
}

func TestBatcherCancelledRequestSkipped(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{MaxBatch: 1000, MaxDelay: 20 * time.Millisecond})
	defer b.Close()
	// One live request first, so the counters below are not all zero.
	if _, err := b.Do(context.Background(), testInput(0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled Do still lands in the queue about half the time
	// (select picks between the buffered submit and ctx.Done() at random),
	// so some of these reach a flush whose every request is cancelled.
	for i := 0; i < 16; i++ {
		if _, err := b.Do(ctx, testInput(1)); err != context.Canceled {
			t.Fatalf("Do with cancelled ctx = %v, want context.Canceled", err)
		}
	}
	b.Close()
	st := b.Stats()
	if st.Batches != 1 || st.Requests != 1 {
		t.Fatalf("cancelled requests must not execute: %+v", st)
	}
	// A flush that ran no batch is not a flush: the trigger counters split
	// Batches.
	if sum := st.SizeFlushes + st.DeadlineFlushes + st.IdleFlushes + st.DrainFlushes; sum != st.Batches {
		t.Fatalf("trigger counters sum to %d, want Batches = %d: %+v", sum, st.Batches, st)
	}
}

func TestBatcherBitIdenticalToDirectRun(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond})
	defer b.Close()
	const n = 8
	results := submitN(t, b, n, func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) })
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		want, err := p.Run(context.Background(), testInput(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for id, wt := range want {
			gt, ok := r.outs[id]
			if !ok {
				t.Fatalf("request %d missing output node %d", i, id)
			}
			wd, gd := wt.Data(), gt.Data()
			if len(wd) != len(gd) {
				t.Fatalf("request %d node %d: length %d vs %d", i, id, len(gd), len(wd))
			}
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("request %d node %d element %d: batched %v != direct %v", i, id, j, gd[j], wd[j])
				}
			}
		}
	}
}

// TestBatcherEngagesBatchedKernels pins the Batcher→RunBatch handoff: with a
// single-worker program, a full flush forms one multi-lane micro-batch, so
// the program's batched counters must cover every request — and the outputs
// must still match direct Runs bit-for-bit.
func TestBatcherEngagesBatchedKernels(t *testing.T) {
	g, err := cimmlc.Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cimmlc.New(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Build(context.Background(), g, cimmlc.RandomWeights(g, 43), cimmlc.CodegenOptions{}, cimmlc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(p, BatcherConfig{MaxBatch: 4, MaxDelay: time.Hour})
	defer b.Close()

	const n = 4
	results := submitN(t, b, n, func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(100 + i)) })
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		want, err := p.Run(context.Background(), testInput(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		for id, wt := range want {
			gt := r.outs[id]
			if gt == nil {
				t.Fatalf("request %d missing output node %d", i, id)
			}
			wd, gd := wt.Data(), gt.Data()
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("request %d node %d element %d: batched %v != direct %v", i, id, j, gd[j], wd[j])
				}
			}
		}
	}
	if st := p.Stats(); st.BatchedRequests < n {
		t.Fatalf("BatchedRequests = %d, want at least %d (requests did not share micro-batches)", st.BatchedRequests, n)
	}
}
