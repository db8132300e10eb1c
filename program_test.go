package cimmlc

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"cimmlc/internal/funcsim"
	"cimmlc/internal/tensor"
)

// buildToyProgram compiles conv-relu onto toy-table2 and returns the
// pieces shared by the Program tests.
func buildToyProgram(t testing.TB, bopts ...BuildOption) (*Compiler, *Graph, Weights, map[int]*Tensor, *Program) {
	t.Helper()
	g, err := Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 1)
	in := NewTensor(3, 32, 32)
	in.Rand(2, 1)
	inputs := map[int]*Tensor{0: in}
	p, err := c.Build(context.Background(), g, w, CodegenOptions{}, append([]BuildOption{WithCalibration(inputs)}, bopts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, w, inputs, p
}

// sameOutputs checks every tensor in got bit-exactly against want; want may
// carry more nodes (the reference executors return all of them, Program.Run
// only the graph outputs).
func sameOutputs(t *testing.T, got, want map[int]*Tensor) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("no outputs")
	}
	for id, gt := range got {
		if !tensor.AllClose(gt, want[id], 0) {
			d, _ := tensor.MaxAbsDiff(gt, want[id])
			t.Fatalf("node %d diverges by %g", id, d)
		}
	}
}

// quantReference runs the quantized reference executor on an image built
// apart from the program's, from the same graph, layout, weights and
// calibration buildToyProgram uses (the inputs themselves): Verify's reference
// on the program's own image must need no second one.
func quantReference(t *testing.T, c *Compiler, g *Graph, w Weights, p *Program, inputs map[int]*Tensor) map[int]*Tensor {
	t.Helper()
	img, err := funcsim.NewImage(g.Clone(), c.Arch(), p.Flow().Layout, w, inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := img.Reference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestProgramMatchesOneShot pins Program.Run to the quantized reference
// executor: Verify holds it bit-exact on every node, and repeated Runs must
// keep returning the reference's output tensors bit for bit.
func TestProgramMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	c, g, w, inputs, p := buildToyProgram(t)

	want := quantReference(t, c, g, w, p, inputs)
	if err := p.Verify(ctx, inputs, 0.05); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := p.Run(ctx, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(g.Outputs()) {
			t.Fatalf("Run returned %d tensors, want the %d graph outputs", len(got), len(g.Outputs()))
		}
		sameOutputs(t, got, want)
	}
	st := p.Stats()
	if st.Requests != 4 { // Verify + 3 runs
		t.Fatalf("requests = %d, want 4", st.Requests)
	}
	// sync.Pool intentionally drops items at random under the race
	// detector, so only the accounting identity is exact.
	if st.PoolHits+st.PoolMisses != st.Requests {
		t.Fatalf("pool accounting %+v does not add up", st)
	}
	if p.Result() == nil || p.Result().Report.Cycles <= 0 {
		t.Fatal("program lost its compilation result")
	}
	if p.Flow() == nil || p.Flow().Flow == nil {
		t.Fatal("program lost its flow")
	}
}

// TestProgramConcurrentRuns exercises the acceptance criterion: many
// goroutines share one Program and every output must be bit-identical to
// the quantized reference Verify checks against. Half the goroutines Verify
// while the rest Run, so Verify's reference runs on the stage image while
// serving shares it. Run with -race.
func TestProgramConcurrentRuns(t *testing.T) {
	ctx := context.Background()
	c, g, w, inputs, p := buildToyProgram(t)

	want := quantReference(t, c, g, w, p, inputs)
	if err := p.Verify(ctx, inputs, 0.05); err != nil {
		t.Fatal(err)
	}
	verified := p.Stats().Requests

	const goroutines = 8
	const runsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				if i%2 == 1 {
					if err := p.Verify(ctx, inputs, 0.05); err != nil {
						errs <- err
						return
					}
					continue
				}
				got, err := p.Run(ctx, inputs)
				if err != nil {
					errs <- err
					return
				}
				if len(got) == 0 {
					errs <- fmt.Errorf("no outputs")
					return
				}
				for id, gt := range got {
					if !tensor.AllClose(gt, want[id], 0) {
						errs <- fmt.Errorf("node %d diverges from reference", id)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A Verify is one request through the stage and one pooled state; its
	// reference runs on a state of its own, outside the pool and the counts.
	st := p.Stats()
	runs, verifies := uint64(goroutines/2*runsEach), uint64(goroutines/2*runsEach)
	if st.Requests != verified+runs+verifies {
		t.Fatalf("requests = %d, want %d (%d runs, %d verifies after %d)", st.Requests, verified+runs+verifies, runs, verifies, verified)
	}
	if st.PoolHits+st.PoolMisses != st.Requests {
		t.Fatalf("pool accounting %+v does not add up", st)
	}
}

// TestProgramRunBatch checks batch fan-out: results in request order, each
// bit-identical to a sequential Run of the same inputs.
func TestProgramRunBatch(t *testing.T) {
	ctx := context.Background()
	_, _, _, _, p := buildToyProgram(t, WithWorkers(4))

	const n = 12
	reqs := make([]map[int]*Tensor, n)
	want := make([]map[int]*Tensor, n)
	for i := range reqs {
		in := NewTensor(3, 32, 32)
		in.Rand(uint64(100+i), 1)
		reqs[i] = map[int]*Tensor{0: in}
		out, err := p.Run(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	outs, err := p.RunBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != n {
		t.Fatalf("got %d results, want %d", len(outs), n)
	}
	for i := range outs {
		sameOutputs(t, outs[i], want[i])
	}
	// Empty batch and cancelled context.
	if outs, err := p.RunBatch(ctx, nil); err != nil || len(outs) != 0 {
		t.Fatalf("empty batch: %v, %v", outs, err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.RunBatch(cctx, reqs); err == nil {
		t.Fatal("cancelled batch succeeded")
	}
}

// TestProgramRunBatchSingleWorker pins workers==1, where the whole batch is
// one micro-batch on the caller's goroutine: same ordering and bit-identity
// guarantees as the fan-out path.
func TestProgramRunBatchSingleWorker(t *testing.T) {
	ctx := context.Background()
	_, _, _, _, p := buildToyProgram(t, WithWorkers(1))
	const n = 4
	reqs := make([]map[int]*Tensor, n)
	want := make([]map[int]*Tensor, n)
	for i := range reqs {
		in := NewTensor(3, 32, 32)
		in.Rand(uint64(300+i), 1)
		reqs[i] = map[int]*Tensor{0: in}
		out, err := p.Run(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	outs, err := p.RunBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		sameOutputs(t, outs[i], want[i])
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.RunBatch(cctx, reqs); err == nil {
		t.Fatal("cancelled single-worker batch succeeded")
	}
	bad := NewTensor(2, 2)
	_, err = p.RunBatch(ctx, []map[int]*Tensor{reqs[0], {0: bad}})
	if err == nil || !strings.Contains(err.Error(), "request 1") {
		t.Fatalf("bad request error %v should name request 1", err)
	}
}

// TestProgramBatchPropagatesError ensures a bad request surfaces its error
// and fails the batch.
func TestProgramBatchPropagatesError(t *testing.T) {
	_, _, _, inputs, p := buildToyProgram(t)
	bad := NewTensor(3, 3) // wrong shape for the input region
	if _, err := p.RunBatch(context.Background(), []map[int]*Tensor{inputs, {0: bad}}); err == nil {
		t.Fatal("batch with bad request succeeded")
	}
}

// TestProgramDefaultCalibration builds without WithCalibration and checks
// the program still runs and verifies within the float tolerance.
func TestProgramDefaultCalibration(t *testing.T) {
	g, _ := Model("conv-relu")
	a, _ := Preset("toy-table2")
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 1)
	p, err := c.Build(context.Background(), g, w, CodegenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := NewTensor(3, 32, 32)
	in.Rand(7, 1)
	if err := p.Verify(context.Background(), map[int]*Tensor{0: in}, 0.05); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRejectsTruncatedFlow: a flow cut short by MaxWindowsPerOp is not
// executable and must be rejected at Build time, not at Run time.
func TestBuildRejectsTruncatedFlow(t *testing.T) {
	g, _ := Model("conv-relu")
	a, _ := Preset("toy-table2")
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 1)
	if _, err := c.Build(context.Background(), g, w, CodegenOptions{MaxWindowsPerOp: 2}); err == nil {
		t.Fatal("Build accepted a truncated flow")
	}
	if _, err := c.Build(context.Background(), nil, w, CodegenOptions{}); err == nil {
		t.Fatal("Build accepted a nil graph")
	}
}

// TestProgramLeavesCallerGraphAlone: Build must not mutate the caller's
// graph (it clones before shape inference).
func TestProgramLeavesCallerGraphAlone(t *testing.T) {
	g, _ := Model("conv-relu")
	// Strip inferred shapes of non-input nodes; Build must not restore them
	// on the caller's copy.
	for _, n := range g.Nodes[1:] {
		n.OutShape = nil
	}
	a, _ := Preset("toy-table2")
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWeights(g, 1)
	if _, err := c.Build(context.Background(), g, w, CodegenOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes[1:] {
		if n.OutShape != nil {
			t.Fatalf("Build mutated caller graph node %d", n.ID)
		}
	}
}

// TestVerifyRejectsNonFiniteReference: an input the float reference cannot
// carry (one +Inf turns mlp's every output NaN) fails Verify, naming the
// output, rather than passing because no difference against NaN exceeds the
// tolerance. The program itself still runs: the +Inf saturates to the
// quantizer's largest level.
func TestVerifyRejectsNonFiniteReference(t *testing.T) {
	ctx := context.Background()
	c, g, w := buildCell(t, "mlp", "puma")
	p, err := c.Build(ctx, g, w, CodegenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := defaultCalibration(g)
	for _, x := range in {
		x.Data()[0] = float32(math.Inf(1))
	}
	if _, err := p.Run(ctx, in); err != nil {
		t.Fatal(err)
	}
	err = p.Verify(ctx, in, 1e-3)
	if err == nil || !strings.Contains(err.Error(), "float reference element") {
		t.Fatalf("Verify against a NaN reference: %v", err)
	}
	t.Log(err)
}

// TestBuildRejectsOverflowedCalibration: weights that overflow float32 on
// the calibration set (×1e30 makes mlp's node 3 all NaN) fail Build, naming
// the node, instead of calibrating NaN like zeros into a program whose every
// Run returns zeros.
func TestBuildRejectsOverflowedCalibration(t *testing.T) {
	c, g, w := buildCell(t, "mlp", "puma")
	big := Weights{}
	for id, wt := range w {
		s := wt.Clone()
		for i := range s.Data() {
			s.Data()[i] *= 1e30
		}
		big[id] = s
	}
	_, err := c.Build(context.Background(), g, big, CodegenOptions{})
	if err == nil || !strings.Contains(err.Error(), "calibration: node 3") {
		t.Fatalf("Build on overflowing weights: %v", err)
	}
	t.Log(err)
}
