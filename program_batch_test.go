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

// TestRunBatchErrorContract pins RunBatch's result/error contract on one
// worker (a whole batch is one micro-batch) and on a pool (work items spread
// over goroutines), for monolithic programs and for staged ones (the
// *-unbatched configs, named for the request-by-request stepping staged
// programs once fell back to): the result slice is nil whenever the error is
// non-nil, an empty batch on a live context yields an empty non-nil slice, a
// mid-batch failure names the failing request, and every request of a wide
// batch shares a micro-batch whatever the plan's shape.
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
				if d := st.BatchRuns - before.BatchRuns; d != uint64(cfg.workers) {
					t.Fatalf("batch ran as %d micro-batches, want one per worker (%d)", d, cfg.workers)
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
	if staged.Stages() < 2 {
		t.Fatal("over-capacity model built a one-stage plan")
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
				if err := p.RunStage(ctx, 0, tc.req); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("RunStage(0): err=%v, want the error %q", err, tc.want)
				}
				// Among good lanes it is refused before any lane executes.
				lane, before := maps.Clone(good), p.Stats().Requests
				if err := p.RunStage(ctx, 0, lane, tc.req); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("RunStage(0) of two lanes: err=%v, want the error %q", err, tc.want)
				}
				if len(lane) != len(good) || p.Stats().Requests != before {
					t.Fatalf("RunStage(0) ran the good lane next to a malformed one")
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

// TestRunBatchPrefersRequestErrorOverCancel forces the cancel/first-error
// interleaving: request 0 is parked inside its worker until the caller
// cancels the batch, while request 1 — already past its context check — is
// held until request 0's cancellation has been recorded, and only then fails
// with a genuine input error. The caller must still receive request 1's
// indexed error, not the bare (or request-0-attributed) context.Canceled
// that arrived first.
func TestRunBatchPrefersRequestErrorOverCancel(t *testing.T) {
	_, _, _, inputs, p := buildToyProgram(t, WithWorkers(2))
	badIn := NewTensor(3, 32, 32)
	reqs := []map[int]*Tensor{inputs, {99: badIn}} // node 99 does not exist

	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()

	claimed0 := make(chan struct{})
	entered1 := make(chan struct{})
	recorded0 := make(chan struct{})
	var once0, once1, onceRec sync.Once

	testHookBatchClaim = func(ctx context.Context, i int) {
		if i == 0 {
			once0.Do(func() { close(claimed0) })
			// Hold request 0 until the caller's cancellation has reached the
			// batch's own context: a parent context closes its Done channel
			// before it cancels its children.
			<-ctx.Done()
		}
	}
	testHookRunStart = func(ctx context.Context, in map[int]*Tensor) {
		if _, ok := in[99]; ok {
			once1.Do(func() { close(entered1) })
			<-recorded0 // request 0's cancellation must be recorded first
		}
	}
	testHookBatchFail = func(i int) {
		if i == 0 {
			onceRec.Do(func() { close(recorded0) })
		}
	}
	defer func() {
		testHookBatchClaim, testHookRunStart, testHookBatchFail = nil, nil, nil
	}()

	var (
		outs []map[int]*Tensor
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		outs, err = p.RunBatch(pctx, reqs)
	}()
	<-claimed0 // request 0 parked inside its worker
	<-entered1 // request 1 past the context check, about to fail for real
	pcancel()  // cancellation now races the genuine failure — and must lose
	<-done

	if outs != nil {
		t.Fatalf("outs = %v alongside error, want nil", outs)
	}
	if err == nil || !strings.Contains(err.Error(), "request 1") || !strings.Contains(err.Error(), "unknown node 99") {
		t.Fatalf("err = %v, want request 1's unknown-node error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the genuine request error, not cancellation", err)
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
	if d := st.BatchRuns - before.BatchRuns; d != 2 {
		t.Fatalf("mixed-shape batch ran as %d micro-batches, want 2 (one per worker)", d)
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

// FuzzBatchedRun drives random (model, arch, seed, width) points through
// RunBatch with a single worker — the whole batch is one micro-batch of 1 to
// 6 lanes — and requires every request to verify bit-exactly against the
// quantized reference and every lane's output to match the one-lane Run byte
// for byte.
func FuzzBatchedRun(f *testing.F) {
	models := []string{"conv-relu", "mlp", "lenet5"}
	archs := []string{"isaac-baseline", "puma", "toy-table2", "jia-isscc21"}
	f.Add(uint8(0), uint8(2), uint64(1), uint8(2))
	f.Add(uint8(1), uint8(2), uint64(7), uint8(1))
	f.Add(uint8(2), uint8(0), uint64(3), uint8(3))
	f.Add(uint8(0), uint8(1), uint64(5), uint8(0))
	f.Add(uint8(2), uint8(3), uint64(9), uint8(4)) // CM: readcore on the shared kernel
	f.Fuzz(func(t *testing.T, mi, ai uint8, seed uint64, nb uint8) {
		model := models[int(mi)%len(models)]
		archName := archs[int(ai)%len(archs)]
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
		c, err := New(a, WithCache(0))
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
			t.Fatalf("%s/%s seed %d: build: %v", model, archName, seed, err)
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
				t.Fatalf("%s/%s seed %d: request %d: %v", model, archName, seed, i, err)
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
		batched := uint64(lanes)
		if lanes == 1 {
			batched = 0 // a one-lane micro-batch is not counted as batched
		}
		if d := p.Stats().BatchedRequests - before.BatchedRequests; d != batched {
			t.Fatalf("%s/%s seed %d: %d of %d requests shared a micro-batch, want %d", model, archName, seed, d, lanes, batched)
		}
	})
}
