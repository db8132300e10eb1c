package cimmlc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"testing"
)

// buildMixedProgram compiles the host-only-operator test graph onto
// toy-table2 with host fallback: a partitioned program.
func buildMixedProgram(t testing.TB, bopts ...BuildOption) (*Graph, *Program) {
	t.Helper()
	g, w := mixedTestGraph(t)
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a, WithHostFallback())
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Build(context.Background(), g, w, CodegenOptions{}, bopts...)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().Partition == nil {
		t.Fatal("mixed graph built a monolithic program")
	}
	return g, p
}

// seededRequest builds a well-formed request for p from its input schema.
func seededRequest(p *Program, seed uint64) map[int]*Tensor {
	req := map[int]*Tensor{}
	for id, shape := range p.Inputs() {
		in := NewTensor(shape...)
		in.Rand(seed+uint64(id), 1)
		req[id] = in
	}
	return req
}

// microBatches returns what carry's cut of n requests over workers adds to a
// program's counters: the work items of two or more lanes (BatchRuns) and the
// requests they carry (BatchedRequests).
func microBatches(p *Program, n, workers int) (runs, batched uint64) {
	cuts := p.batchCuts(n, min(workers, n))
	if cuts == nil {
		cuts = []int{0, n}
	}
	for k := 1; k < len(cuts); k++ {
		if lanes := cuts[k] - cuts[k-1]; lanes >= 2 {
			runs, batched = runs+1, batched+uint64(lanes)
		}
	}
	return runs, batched
}

// TestRunBatchErrorContract pins RunBatch's result/error contract on one
// worker (work items run inline) and on a pool (work items spread over
// goroutines), for monolithic programs and for staged ones (the *-unbatched
// configs, named for the request-by-request stepping staged programs once
// fell back to): the result slice is nil whenever the error is non-nil, an
// empty batch on a live context yields an empty non-nil slice, a mid-batch
// failure names the failing request, and every request of a wide batch shares
// a micro-batch whatever the plan's shape.
func TestRunBatchErrorContract(t *testing.T) {
	ctx := context.Background()
	monolithic := func(t *testing.T, workers int) *Program {
		_, _, _, _, p := buildToyProgram(t, WithWorkers(workers))
		return p
	}
	partitioned := func(t *testing.T, workers int) *Program {
		_, p := buildMixedProgram(t, WithWorkers(workers))
		return p
	}
	configs := []struct {
		name    string
		build   func(t *testing.T, workers int) *Program
		workers int
	}{
		{"inline", monolithic, 1},
		{"pooled", monolithic, 4},
		{"inline-unbatched", partitioned, 1},
		{"pooled-unbatched", partitioned, 4},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			p := cfg.build(t, cfg.workers)
			good := func(seed uint64) map[int]*Tensor { return seededRequest(p, seed) }
			bad := good(9)
			for id := range bad {
				bad[id] = NewTensor(2, 2) // wrong element count for the input region
			}

			t.Run("empty", func(t *testing.T) {
				outs, err := p.RunBatch(ctx, nil)
				if err != nil || outs == nil || len(outs) != 0 {
					t.Fatalf("empty batch: outs=%v err=%v, want empty non-nil outs and nil err", outs, err)
				}
			})
			t.Run("empty-cancelled", func(t *testing.T) {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				outs, err := p.RunBatch(cctx, nil)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if outs != nil {
					t.Fatalf("outs = %v alongside error, want nil", outs)
				}
			})
			t.Run("pre-cancelled", func(t *testing.T) {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				outs, err := p.RunBatch(cctx, []map[int]*Tensor{good(1), good(2)})
				if err == nil || outs != nil {
					t.Fatalf("outs=%v err=%v, want nil outs and an error", outs, err)
				}
			})
			t.Run("mid-batch-failure", func(t *testing.T) {
				outs, err := p.RunBatch(ctx, []map[int]*Tensor{good(3), bad, good(4), good(5)})
				if err == nil || !strings.Contains(err.Error(), "request 1") {
					t.Fatalf("err = %v, want an error naming request 1", err)
				}
				if outs != nil {
					t.Fatalf("outs = %v alongside error, want nil", outs)
				}
			})
			t.Run("batched", func(t *testing.T) {
				reqs := make([]map[int]*Tensor, 8) // two lanes per worker of the pool
				for i := range reqs {
					reqs[i] = good(uint64(10 + i))
				}
				before := p.Stats()
				if _, err := p.RunBatch(ctx, reqs); err != nil {
					t.Fatal(err)
				}
				st := p.Stats()
				if d := st.BatchedRequests - before.BatchedRequests; d != uint64(len(reqs)) {
					t.Fatalf("%d of %d requests shared a micro-batch", d, len(reqs))
				}
				// The toy program's lanes are past half the lane budget: its
				// lane cap is the floor of two, so 8 requests are 4 items on
				// any pool. The staged program's fit one item per worker.
				if runs, _ := microBatches(p, len(reqs), cfg.workers); runs < uint64(cfg.workers) {
					t.Fatalf("%d requests cut into %d micro-batches for %d workers", len(reqs), runs, cfg.workers)
				} else if d := st.BatchRuns - before.BatchRuns; d != runs {
					t.Fatalf("batch ran as %d micro-batches, want batchCuts' %d", d, runs)
				}
			})
		})
	}
}

// TestMalformedRequests pins the one request contract of every plan shape. It
// is the regression test for three input-handling bugs: a nil input tensor
// used to nil-dereference inside the executor (on a RunBatch worker goroutine,
// where the caller cannot recover it); a monolithic program used to compute on
// an all-zero region when an input was missing while a partitioned one
// rejected the request; and a chip-staged program used to accept a tensor for
// a node that is not a graph input and to report the other three wrapped in
// stage-local node IDs. Every shape must return the same error, naming the
// global node, from Run and — request-indexed, with two workers — from
// RunBatch.
func TestMalformedRequests(t *testing.T) {
	ctx := context.Background()
	_, _, _, _, mono := buildToyProgram(t, WithWorkers(2))
	_, part := buildMixedProgram(t, WithWorkers(2))
	sc, sg, sw, sin := smallChipCompiler(t, WithStationaryWeights())
	staged, err := sc.BuildPipeline(ctx, sg, sw, CodegenOptions{}, 0, WithCalibration(sin), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if staged.Chips() < 2 {
		t.Fatal("over-capacity model built on one chip")
	}
	for _, shape := range []struct {
		name string
		p    *Program
	}{{"monolithic", mono}, {"host-partitioned", part}, {"chip-staged", staged}} {
		p := shape.p
		good := seededRequest(p, 1)
		id := p.g.InputIDs()[0]
		other := len(p.g.Nodes) - 1 // a real node, but not a graph input
		with := func(edit func(req map[int]*Tensor)) map[int]*Tensor {
			req := seededRequest(p, 2)
			edit(req)
			return req
		}
		for _, tc := range []struct {
			name string
			req  map[int]*Tensor
			want string
		}{
			{"missing", with(func(r map[int]*Tensor) { delete(r, id) }), fmt.Sprintf("funcsim: no input tensor provided for node %d", id)},
			{"nil", with(func(r map[int]*Tensor) { r[id] = nil }), fmt.Sprintf("funcsim: input tensor for node %d is nil", id)},
			{"unknown-node", with(func(r map[int]*Tensor) { r[other] = r[id] }), fmt.Sprintf("funcsim: input for unknown node %d (not a graph input)", other)},
			{"wrong-element-count", with(func(r map[int]*Tensor) { r[id] = NewTensor(2, 2) }), fmt.Sprintf("funcsim: input for node %d has 4 elements", id)},
		} {
			t.Run(shape.name+"/"+tc.name, func(t *testing.T) {
				out, err := p.Run(ctx, tc.req)
				if err == nil || out != nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("Run: out=%v err=%v, want nil output and the error %q", out, err, tc.want)
				}
				outs, err := p.RunBatch(ctx, []map[int]*Tensor{good, good, tc.req, good})
				if err == nil || outs != nil || !strings.HasPrefix(err.Error(), "cimmlc: RunBatch: request 2: "+tc.want) {
					t.Fatalf("RunBatch: outs=%v err=%v, want nil outputs and request 2's error %q", outs, err, tc.want)
				}
				if err := p.RunChip(ctx, 0, tc.req); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("RunChip(0): err=%v, want the error %q", err, tc.want)
				}
				// Among good lanes it is refused before any lane executes.
				lane, before := maps.Clone(good), p.Stats().Requests
				if err := p.RunChip(ctx, 0, lane, tc.req); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("RunChip(0) of two lanes: err=%v, want the error %q", err, tc.want)
				}
				if len(lane) != len(good) || p.Stats().Requests != before {
					t.Fatalf("RunChip(0) ran the good lane next to a malformed one")
				}
			})
		}
	}
}

// TestBuildRejectsMalformedCalibration holds a calibration set to the request
// contract above, for every plan shape: a nil calibration tensor used to
// nil-dereference in the float reference (inside funcsim.NewImage for a
// one-stage plan, in the boundary calibration for a staged one), and the other
// three each drew a different layer's error. All four are refused before any
// stage is built, with the error a malformed Run input draws.
func TestBuildRejectsMalformedCalibration(t *testing.T) {
	ctx := context.Background()
	tc, tg, tw, _, _ := buildToyProgram(t)
	mg, mw := mixedTestGraph(t)
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := New(a, WithHostFallback())
	if err != nil {
		t.Fatal(err)
	}
	sc, sg, sw, _ := smallChipCompiler(t, WithStationaryWeights())
	for _, shape := range []struct {
		name  string
		g     *Graph
		build func(calib map[int]*Tensor) (*Program, error)
	}{
		{"monolithic", tg, func(calib map[int]*Tensor) (*Program, error) {
			return tc.Build(ctx, tg, tw, CodegenOptions{}, WithCalibration(calib))
		}},
		{"host-partitioned", mg, func(calib map[int]*Tensor) (*Program, error) {
			return mc.Build(ctx, mg, mw, CodegenOptions{}, WithCalibration(calib))
		}},
		{"chip-staged", sg, func(calib map[int]*Tensor) (*Program, error) {
			return sc.BuildPipeline(ctx, sg, sw, CodegenOptions{}, 0, WithCalibration(calib))
		}},
	} {
		id := shape.g.InputIDs()[0]
		other := len(shape.g.Nodes) - 1 // a real node, but not a graph input
		for _, tc := range []struct {
			name string
			edit func(calib map[int]*Tensor)
			want string
		}{
			{"missing", func(c map[int]*Tensor) { delete(c, id) }, fmt.Sprintf("no input tensor provided for node %d", id)},
			{"nil", func(c map[int]*Tensor) { c[id] = nil }, fmt.Sprintf("input tensor for node %d is nil", id)},
			{"unknown-node", func(c map[int]*Tensor) { c[other] = c[id] }, fmt.Sprintf("input for unknown node %d (not a graph input)", other)},
			{"wrong-element-count", func(c map[int]*Tensor) { c[id] = NewTensor(2, 2) }, fmt.Sprintf("input for node %d has 4 elements", id)},
		} {
			t.Run(shape.name+"/"+tc.name, func(t *testing.T) {
				calib := mixedTestInput(shape.g, 3)
				tc.edit(calib)
				want := "cimmlc: Build: calibration: funcsim: " + tc.want
				if p, err := shape.build(calib); err == nil || p != nil || !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("Build: program=%v err=%v, want no program and the error %q", p, err, want)
				}
			})
		}
	}
}

// hookStep installs the step seam for the rest of the test.
func hookStep(t *testing.T, hook func(ctx context.Context, stage int, envs []map[int]*Tensor) (int, error)) {
	t.Helper()
	testHookStep = hook
	t.Cleanup(func() { testHookStep = nil })
}

// laneHolding returns the lane of envs whose input node in holds exactly the
// tensor mark, or -1: how a step hook tells one request from its batch-mates,
// since RunBatch clones the request maps but not the tensors.
func laneHolding(envs []map[int]*Tensor, in int, mark *Tensor) int {
	for lane, env := range envs {
		if env[in] == mark {
			return lane
		}
	}
	return -1
}

// observedCancel is the error a parked lane fails with once it has seen its
// batch cancelled. A carry classifies a failure with errors.Is, which asks
// the error itself first; the question calls asked, so a test learns that the
// cancellation is being recorded — under the lock the next failure has to
// take, hence before it.
type observedCancel struct {
	error
	asked func()
}

func (e observedCancel) Is(error) bool { e.asked(); return false }
func (e observedCancel) Unwrap() error { return e.error }

// TestRunBatchPrefersRequestErrorOverCancel forces the cancel/first-error
// interleaving through RunBatch on two workers: request 0 is parked inside its
// worker until the caller cancels the batch, while request 1 — admitted, and
// already inside its own worker — is held until request 0's cancellation is on
// record, and only then fails for real. The caller must still receive request
// 1's indexed error, not the bare (or request-0-attributed) context.Canceled
// that arrived first. (The failure is injected: a malformed request never
// reaches the workers, admission refuses it before any lane executes.)
func TestRunBatchPrefersRequestErrorOverCancel(t *testing.T) {
	_, _, _, inputs, p := buildToyProgram(t, WithWorkers(2))
	parked, failing := inputs[0], inputs[0].Clone()
	genuine := errors.New("kernel fault")

	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	claimed0 := make(chan struct{})
	entered1 := make(chan struct{})
	recording0 := make(chan struct{})
	var once sync.Once
	hookStep(t, func(ctx context.Context, _ int, envs []map[int]*Tensor) (int, error) {
		switch {
		case laneHolding(envs, 0, parked) >= 0:
			close(claimed0)
			// Hold request 0 until the caller's cancellation has reached the
			// batch's own context.
			<-ctx.Done()
			return 0, observedCancel{ctx.Err(), func() { once.Do(func() { close(recording0) }) }}
		case laneHolding(envs, 0, failing) >= 0:
			close(entered1)
			<-recording0 // request 0's cancellation must be recorded first
			return 0, genuine
		}
		return 0, nil
	})

	var (
		outs []map[int]*Tensor
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		outs, err = p.RunBatch(pctx, []map[int]*Tensor{{0: parked}, {0: failing}})
	}()
	<-claimed0 // request 0 parked inside its worker
	<-entered1 // request 1 inside its own, about to fail for real
	pcancel()  // cancellation now races the genuine failure — and must lose
	<-done

	if outs != nil {
		t.Fatalf("outs = %v alongside error, want nil", outs)
	}
	if !errors.Is(err, genuine) || !strings.HasPrefix(err.Error(), "cimmlc: RunBatch: request 1: ") {
		t.Fatalf("err = %v, want request 1's genuine error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the genuine request error, not cancellation", err)
	}
}

// TestRunBatchWorkerFailure fails one admitted request inside the lane carrier
// — at a late stage, its batch-mates' earlier stages long published — on every
// route a batch takes through it: one uncut micro-batch, the cuts of a batch
// past the lane cap run inline on one worker, and work items spread over a
// pool, where the other worker's lanes see the batch cancelled under them. The
// caller gets that request's index and error and no outputs; RunChip, which
// names no request, gets the error.
func TestRunBatchWorkerFailure(t *testing.T) {
	ctx := context.Background()
	toy := func(t *testing.T, workers int) *Program {
		_, _, _, _, p := buildToyProgram(t, WithWorkers(workers))
		return p
	}
	mixed := func(t *testing.T, workers int) *Program {
		_, p := buildMixedProgram(t, WithWorkers(workers))
		return p
	}
	for _, tc := range []struct {
		name     string
		build    func(t *testing.T, workers int) *Program
		workers  int
		n, bad   int
		wantCuts int
	}{
		{"uncut", mixed, 1, 4, 2, 1},
		{"inline", toy, 1, 17, 12, 9}, // past toy's lane cap of 2: 8 × 2 + 1
		{"pooled", mixed, 2, 4, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t, tc.workers)
			if cuts := p.batchCuts(tc.n, tc.workers); max(1, len(cuts)-1) != tc.wantCuts {
				t.Fatalf("%d requests cut into %d work items, want %d", tc.n, max(1, len(cuts)-1), tc.wantCuts)
			}
			in := p.g.InputIDs()[0]
			reqs := make([]map[int]*Tensor, tc.n)
			for i := range reqs {
				reqs[i] = seededRequest(p, uint64(20+i))
			}
			genuine := errors.New("kernel fault")
			hookStep(t, func(_ context.Context, stage int, envs []map[int]*Tensor) (int, error) {
				if lane := laneHolding(envs, in, reqs[tc.bad][in]); lane >= 0 && stage == len(p.stages)-1 {
					return lane, genuine
				}
				return 0, nil
			})
			before := p.Stats().Requests
			outs, err := p.RunBatch(ctx, reqs)
			if outs != nil {
				t.Fatalf("outs = %v alongside error, want nil", outs)
			}
			want := fmt.Sprintf("cimmlc: RunBatch: request %d: ", tc.bad)
			if !errors.Is(err, genuine) || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("err = %v, want %q and the injected error", err, want)
			}
			envs := make([]map[int]*Tensor, tc.n)
			for i, req := range reqs {
				envs[i] = maps.Clone(req)
			}
			if err := p.RunChip(ctx, 0, envs...); !errors.Is(err, genuine) || errors.Is(err, context.Canceled) {
				t.Fatalf("RunChip err = %v, want the injected error", err)
			}
			if tc.wantCuts == 1 && p.Stats().Requests != before {
				t.Fatal("a failed micro-batch counted its lanes as served")
			}
		})
	}
}

// TestRunChipFailureLeavesEnvsRerunnable is what a serving engine's isolation
// pass leans on: a batch that fails on a chip is run again lane by lane, on the
// same environments, to answer only the lane at fault with the error. A chip is
// several stages when host stages ride with it and its lanes several work
// items, so by the time one fails others have published — and chip 0 admits
// only environments that hold the graph's inputs and nothing else.
func TestRunChipFailureLeavesEnvsRerunnable(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, p := buildMixedProgram(t, WithWorkers(workers))
			if p.Chips() != 1 || len(p.stages) < 3 {
				t.Fatalf("want one chip of several stages, got %d chips, %d stages", p.Chips(), len(p.stages))
			}
			in := p.g.InputIDs()[0]
			const n, bad = 4, 3
			reqs, envs, want := make([]map[int]*Tensor, n), make([]map[int]*Tensor, n), make([]map[int]*Tensor, n)
			for i := range reqs {
				reqs[i] = seededRequest(p, uint64(40+i))
				envs[i] = maps.Clone(reqs[i])
				var err error
				if want[i], err = p.Run(ctx, reqs[i]); err != nil {
					t.Fatal(err)
				}
			}
			genuine := errors.New("kernel fault")
			hookStep(t, func(_ context.Context, stage int, lanes []map[int]*Tensor) (int, error) {
				if lane := laneHolding(lanes, in, reqs[bad][in]); lane >= 0 && stage == len(p.stages)-2 {
					return lane, genuine
				}
				return 0, nil
			})
			if err := p.RunChip(ctx, 0, envs...); !errors.Is(err, genuine) {
				t.Fatalf("RunChip err = %v, want the injected error", err)
			}
			for i, env := range envs {
				if len(env) != len(reqs[i]) {
					t.Fatalf("lane %d: the failed chip left %d tensors in an environment of %d inputs", i, len(env), len(reqs[i]))
				}
				err := p.RunChip(ctx, 0, env)
				if i == bad {
					if !errors.Is(err, genuine) {
						t.Fatalf("lane %d alone: err = %v, want the injected error", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("lane %d alone, after its batch failed: %v", i, err)
				}
				sameOutputs(t, p.outputs(env), want[i])
			}
		})
	}
}

// TestBatchErrorsAttribution pins the attribution rule of a batch that fails
// on several workers at once, whatever the arrival order: the lowest-indexed
// genuine error wins over any cancellation a lane observed, and is what
// cancels the rest of the batch.
func TestBatchErrorsAttribution(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	genuine := errors.New("kernel fault")
	rec := &batchErrors{cancel: cancel}
	rec.record(0, fmt.Errorf("stage 0: %w", context.Canceled))
	if rec.failed() || ctx.Err() != nil {
		t.Fatal("an observed cancellation counted as the batch's failure")
	}
	rec.record(3, context.DeadlineExceeded)
	rec.record(2, genuine)
	rec.record(1, genuine)
	if !rec.failed() || ctx.Err() == nil {
		t.Fatal("a genuine request error did not fail and cancel the batch")
	}
	if i, err := rec.resolve(ctx); i != 1 || err != genuine {
		t.Fatalf("resolve = request %d, %v; want request 1's genuine error", i, err)
	}

	// With cancellations only, the lowest-indexed one stands in; with nothing
	// recorded, the context's own error does, blaming no request.
	rec = &batchErrors{cancel: cancel}
	rec.record(4, context.Canceled)
	rec.record(2, context.Canceled)
	if i, err := rec.resolve(ctx); i != 2 || !errors.Is(err, context.Canceled) {
		t.Fatalf("resolve = request %d, %v; want request 2's cancellation", i, err)
	}
	if i, err := (&batchErrors{cancel: cancel}).resolve(ctx); i != -1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("resolve = request %d, %v; want the bare context error", i, err)
	}
}

// TestRunBatchBatchedBitIdentity drives multi-lane micro-batches under the
// fan-out pool (run with -race) and requires every result to be bit-identical
// to the one-lane Run of the same request. The second round reuses pooled
// BatchStates. The stats counters prove every request shared a micro-batch.
func TestRunBatchBatchedBitIdentity(t *testing.T) {
	ctx := context.Background()
	_, _, _, _, p := buildToyProgram(t, WithWorkers(8))

	const n = 24
	reqs := make([]map[int]*Tensor, n)
	want := make([]map[int]*Tensor, n)
	for i := range reqs {
		in := NewTensor(3, 32, 32)
		in.Rand(uint64(1000+i), 1)
		reqs[i] = map[int]*Tensor{0: in}
		out, err := p.Run(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	before := p.Stats()
	for round := 0; round < 2; round++ {
		outs, err := p.RunBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != n {
			t.Fatalf("round %d: got %d results, want %d", round, len(outs), n)
		}
		for i := range outs {
			sameOutputs(t, outs[i], want[i])
		}
	}
	st := p.Stats()
	if got := st.BatchedRequests - before.BatchedRequests; got != 2*n {
		t.Fatalf("BatchedRequests grew by %d, want %d (requests did not share micro-batches)", got, 2*n)
	}
	if st.BatchRuns == before.BatchRuns {
		t.Fatal("BatchRuns did not grow")
	}
}

// TestRunBatchMixedShapes sends tensors of one size but different shapes in
// one batch: a lane is addressed by element count, so they share micro-batches
// (the counters prove it) and each result equals the Run of the same data in
// the graph's own input shape, in request order.
func TestRunBatchMixedShapes(t *testing.T) {
	ctx := context.Background()
	_, _, _, _, p := buildToyProgram(t, WithWorkers(2))

	const n = 6
	reqs := make([]map[int]*Tensor, n)
	want := make([]map[int]*Tensor, n)
	for i := range reqs {
		in := NewTensor(3, 32, 32)
		in.Rand(uint64(2000+i), 1)
		out, err := p.Run(ctx, map[int]*Tensor{0: in})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
		if i%2 == 1 {
			if in, err = TensorFromSlice(in.Data(), 3*32*32); err != nil {
				t.Fatal(err)
			}
		}
		reqs[i] = map[int]*Tensor{0: in}
	}
	before := p.Stats()
	outs, err := p.RunBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		sameOutputs(t, outs[i], want[i])
	}
	st := p.Stats()
	if d := st.BatchedRequests - before.BatchedRequests; d != n {
		t.Fatalf("mixed-shape batch served %d of %d requests in shared micro-batches", d, n)
	}
	// Toy's lane cap of two cuts the six into three two-lane items, each
	// pairing a graph-shaped input with a flat one.
	if d := st.BatchRuns - before.BatchRuns; d != 3 {
		t.Fatalf("mixed-shape batch ran as %d micro-batches, want 3 of two lanes", d)
	}
}

// TestRunBatchSingleRequestFallsBack pins batch size 1 to a one-lane
// micro-batch — not counted as batched — with output equivalence.
func TestRunBatchSingleRequestFallsBack(t *testing.T) {
	ctx := context.Background()
	_, _, _, inputs, p := buildToyProgram(t, WithWorkers(4))
	want, err := p.Run(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	outs, err := p.RunBatch(ctx, []map[int]*Tensor{inputs})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d results, want 1", len(outs))
	}
	sameOutputs(t, outs[0], want)
	if d := p.Stats().BatchedRequests - before.BatchedRequests; d != 0 {
		t.Fatalf("batch of one counted %d batched requests, want 0", d)
	}
}

// FuzzBatchedRun drives random (model, arch, seed, width, level) points
// through RunBatch with a single worker — 1 to 6 lanes, one micro-batch or,
// past the cell's lane cap, the inline cuts of batchCuts — and requires every
// request to verify bit-exactly against the quantized reference, every lane's
// output to match the one-lane Run byte for byte, and every lane of a
// multi-lane cut to count as batched. The level caps the scheduling
// optimization (WithMaxLevel), so the flows codegen emits at each level run.
func FuzzBatchedRun(f *testing.F) {
	models := []string{"conv-relu", "mlp", "lenet5"}
	archs := []string{"isaac-baseline", "puma", "toy-table2", "jia-isscc21"}
	levels := []Mode{CM, XBM, WLM}
	f.Add(uint8(0), uint8(2), uint64(1), uint8(2), uint8(2))
	f.Add(uint8(1), uint8(2), uint64(7), uint8(1), uint8(1)) // XBM: one-window operators in several rounds
	f.Add(uint8(2), uint8(0), uint64(3), uint8(3), uint8(0))
	f.Add(uint8(0), uint8(1), uint64(5), uint8(0), uint8(2))
	f.Add(uint8(2), uint8(3), uint64(9), uint8(4), uint8(2)) // CM: readcore on the shared kernel
	f.Fuzz(func(t *testing.T, mi, ai uint8, seed uint64, nb, li uint8) {
		model := models[int(mi)%len(models)]
		archName := archs[int(ai)%len(archs)]
		level := levels[int(li)%len(levels)]
		lanes := int(nb)%6 + 1
		ctx := context.Background()

		g, err := Model(model)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Preset(archName)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(a, WithCache(0), WithMaxLevel(level))
		if err != nil {
			t.Fatal(err)
		}
		w := RandomWeights(g, seed|1)
		calib := map[int]*Tensor{}
		for _, id := range g.InputIDs() {
			tt := NewTensor(g.MustNode(id).OutShape...)
			tt.Rand(seed+uint64(id), 1)
			calib[id] = tt
		}
		p, err := c.Build(ctx, g, w, CodegenOptions{}, WithCalibration(calib), WithWorkers(1))
		if err != nil {
			t.Fatalf("%s/%s/%s seed %d: build: %v", model, archName, level, seed, err)
		}

		reqs := make([]map[int]*Tensor, lanes)
		want := make([]map[int]*Tensor, lanes)
		for i := range reqs {
			req := map[int]*Tensor{}
			for _, id := range g.InputIDs() {
				tt := NewTensor(g.MustNode(id).OutShape...)
				tt.Rand(seed+uint64(31*i+id+1), 1)
				req[id] = tt
			}
			reqs[i] = req
			// Bit-exact against QuantReferenceCalib; the float tolerance
			// only holds near the calibration input, so it is lifted.
			if err := p.Verify(ctx, req, math.Inf(1)); err != nil {
				t.Fatalf("%s/%s/%s seed %d: request %d: %v", model, archName, level, seed, i, err)
			}
			out, err := p.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = out
		}
		before := p.Stats()
		outs, err := p.RunBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			sameOutputs(t, outs[i], want[i])
		}
		_, batched := microBatches(p, lanes, 1) // a one-lane micro-batch is not counted as batched
		if d := p.Stats().BatchedRequests - before.BatchedRequests; d != batched {
			t.Fatalf("%s/%s/%s seed %d: %d of %d requests shared a micro-batch, want %d", model, archName, level, seed, d, lanes, batched)
		}
	})
}

// checkBatchCuts holds one cut of n requests over workers to carry's rules:
// the items cover [0, n) contiguously, none is empty or wider than the lane
// cap, their sizes differ by at most one, a batch that needs more items than
// workers gets a multiple of the workers whenever that keeps two lanes in
// every item, and no more items than it needs at the cost of a lone lane. It
// returns the item count and the narrowest and widest item.
func checkBatchCuts(t *testing.T, p *Program, n, workers int) (items, narrow, wide int) {
	t.Helper()
	lc := p.laneCap()
	if lc < 2 || lc > 64 || (lc > 2 && int64(lc)*p.laneWords > maxMicroBatchWords) || (lc < 64 && int64(lc+1)*p.laneWords <= maxMicroBatchWords) {
		t.Fatalf("%d words per lane: lane cap %d is not the most lanes in %d words, within [2, 64]", p.laneWords, lc, maxMicroBatchWords)
	}
	cuts := p.batchCuts(n, workers)
	if cuts == nil {
		cuts = []int{0, n}
	} else if len(cuts) < 3 {
		t.Fatalf("n=%d workers=%d: cuts %v: one item must be nil", n, workers, cuts)
	}
	if cuts[0] != 0 || cuts[len(cuts)-1] != n {
		t.Fatalf("n=%d workers=%d: cuts %v do not cover [0, %d)", n, workers, cuts, n)
	}
	items, narrow = len(cuts)-1, n
	for k := 1; k < len(cuts); k++ {
		lanes := cuts[k] - cuts[k-1]
		if lanes < 1 || lanes > lc {
			t.Fatalf("n=%d workers=%d: item %d of cuts %v has %d lanes, want 1..%d", n, workers, k-1, cuts, lanes, lc)
		}
		narrow, wide = min(narrow, lanes), max(wide, lanes)
	}
	if wide-narrow > 1 {
		t.Fatalf("n=%d workers=%d: cuts %v are unbalanced: items of %d and %d lanes", n, workers, cuts, narrow, wide)
	}
	if even := (items + workers - 1) / workers * workers; items > workers && items != even && n/even >= 2 {
		t.Fatalf("n=%d workers=%d lane cap %d: %d items leave workers idle; %d would keep two lanes each", n, workers, lc, items, even)
	}
	if fewest := (n + lc - 1) / lc; narrow < 2 && n > 1 && items > max(fewest, min(n, workers)) {
		t.Fatalf("n=%d workers=%d lane cap %d: %d items leave a lane alone; %d would do", n, workers, lc, items, max(fewest, min(n, workers)))
	}
	return items, narrow, wide
}

// TestBatchCutsExecCells pins how RunBatch of 64 cuts on the benchmark's six
// exec-* cells, at one worker and at two, under the 1 MiB lane budget: the
// lane words of each cell's widest CIM stage, and the items they make.
func TestBatchCutsExecCells(t *testing.T) {
	ctx := context.Background()
	type cut struct{ items, narrow, wide int }
	for _, tc := range []struct {
		model, arch string
		laneWords   int64
		one, two    cut
	}{
		{"conv-relu", "isaac-baseline", 96256, cut{32, 2, 2}, cut{32, 2, 2}},
		{"lenet5", "puma", 20886, cut{11, 5, 6}, cut{12, 5, 6}},
		{"lenet5", "jia-isscc21", 15786, cut{8, 8, 8}, cut{8, 8, 8}},
		{"mlp", "puma", 2346, cut{2, 32, 32}, cut{2, 32, 32}},
		{"lenet5", "toy-table2", 16186, cut{8, 8, 8}, cut{8, 8, 8}},
		{"conv-gate", "puma", 15872, cut{8, 8, 8}, cut{8, 8, 8}},
	} {
		t.Run(tc.model+"."+tc.arch, func(t *testing.T) {
			c, g, w := buildCell(t, tc.model, tc.arch)
			p, err := c.Build(ctx, g, w, CodegenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if p.laneWords != tc.laneWords {
				t.Fatalf("widest CIM stage holds %d words per lane, want %d", p.laneWords, tc.laneWords)
			}
			for workers, want := range map[int]cut{1: tc.one, 2: tc.two} {
				if items, narrow, wide := checkBatchCuts(t, p, 64, workers); (cut{items, narrow, wide}) != want {
					t.Errorf("64 requests on %d workers: %d items of %d–%d lanes, want %d of %d–%d", workers, items, narrow, wide, want.items, want.narrow, want.wide)
				}
			}
		})
	}
}

// FuzzBatchCuts holds batchCuts to carry's rules (checkBatchCuts) for any
// batch of 1 to 256 requests over 1 to 16 workers and lanes of 1 to 2²⁰
// words, seeded with the exec-* cells' lane words.
func FuzzBatchCuts(f *testing.F) {
	for _, words := range []uint32{96256, 20886, 15786, 2346, 16186, 15872} {
		f.Add(uint16(63), uint8(1), words-1)
	}
	f.Fuzz(func(t *testing.T, n uint16, workers uint8, words uint32) {
		p := &Program{laneWords: int64(words%(1<<20)) + 1}
		checkBatchCuts(t, p, int(n%256)+1, int(workers%16)+1)
	})
}
