package cimmlc

import (
	"context"
	"maps"
	"math"
	"strings"
	"testing"

	"cimmlc/internal/graph"
	"cimmlc/internal/irverify"
	"cimmlc/internal/partition"
	"cimmlc/internal/tensor"
)

// mixedTestGraph returns a small graph with host-only operators and its
// deterministic weights.
func mixedTestGraph(t testing.TB) (*Graph, Weights) {
	t.Helper()
	g, err := Model("mlp-sig")
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.RandomWeights(g, 7)
}

func mixedTestInput(g *Graph, seed uint64) map[int]*Tensor {
	in := map[int]*Tensor{}
	for _, id := range g.InputIDs() {
		n := g.MustNode(id)
		tt := tensor.New(n.OutShape...)
		tt.Rand(seed, 1)
		in[id] = tt
	}
	return in
}

// TestUnsupportedOpError pins the compile error for graphs with host-only
// operators: it must quote the supported operator set ("available:") and
// point at WithHostFallback.
func TestUnsupportedOpError(t *testing.T) {
	g, _ := mixedTestGraph(t)
	a, _ := Preset("toy-table2")
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Compile(context.Background(), g)
	if err == nil {
		t.Fatal("compiled a host-only graph without host fallback")
	}
	msg := err.Error()
	for _, want := range []string{"available:", "WithHostFallback", "Sigmoid", string(graph.OpConv)} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestHostFallbackEndToEnd builds and runs a mixed graph through the
// partitioned orchestrator and checks the result against the float reference
// executor.
func TestHostFallbackEndToEnd(t *testing.T) {
	g, w := mixedTestGraph(t)
	a, _ := Preset("toy-table2")
	c, err := New(a, WithHostFallback())
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Build(context.Background(), g, w, CodegenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := mixedTestInput(g, 3)
	out, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.Execute(g.Clone(), w, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p.Outputs() {
		scale := 0.0
		for _, v := range ref[id].Data() {
			if x := float64(v); x > scale {
				scale = x
			} else if -x > scale {
				scale = -x
			}
		}
		if scale == 0 {
			scale = 1
		}
		d, err := tensor.MaxAbsDiff(out[id], ref[id])
		if err != nil {
			t.Fatal(err)
		}
		if d > 0.12*scale {
			t.Errorf("output %d diverges from float reference by %g (max magnitude %g)", id, d, scale)
		}
	}
	if err := p.Verify(context.Background(), in, 0.12); err != nil {
		t.Errorf("Verify: %v", err)
	}

	st := p.Stats()
	if st.Partition == nil {
		t.Fatal("partitioned program reports nil PartitionStats")
	}
	ps := st.Partition
	if ps.HostNodes == 0 || ps.CIMNodes == 0 {
		t.Errorf("partition stats report %d host / %d CIM nodes, want both > 0", ps.HostNodes, ps.CIMNodes)
	}
	if ps.Transfers == 0 || ps.TransferElems == 0 || ps.TransferCycles <= 0 {
		t.Errorf("partition stats report no transfer cost: %+v", ps)
	}
	rep := p.Result().Report
	if rep == nil || rep.Cycles <= 0 {
		t.Fatalf("partitioned result has no aggregate report: %+v", rep)
	}
	if got := ps.CIMCycles + ps.HostCycles + ps.TransferCycles; got != rep.Cycles {
		t.Errorf("latency decomposition %g does not sum to aggregate cycles %g", got, rep.Cycles)
	}
}

// TestPartitionedRunBatchDeterminism is the one lane-identity table over every
// plan shape — host-cut, chip-cut (the model WithStationaryWeights rejects,
// served across chips) and the one-stage plan: the program verifies against
// the reference executors, RunBatch on 8 workers (run under -race) carries the
// requests through the stages in shared micro-batches yet returns what
// per-request Run returns bit for bit, stage-wise execution through RunStage
// and StageBoundary (the fleet path) does too, and the stats describe the
// plan.
func TestPartitionedRunBatchDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct {
		name, link    string // link is the PartitionStats.Link expected; "" for a one-stage plan
		model, preset string
		shrink        bool // jia-small: the zoo mlp needs 13 cores, the shrunk chip has 8
		tol           float64
		copts         []Option
	}{
		{"host-cut", "host", "conv-gate", "puma", false, 0.12, []Option{WithHostFallback()}},
		{"chip-cut", "chip", "mlp", "jia-isscc21", true, 0.05, []Option{WithStationaryWeights()}},
		{"one-stage", "", "conv-relu", "toy-table2", false, 0.05, nil},
	} {
		t.Run(shape.name, func(t *testing.T) {
			g, err := Model(shape.model)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Preset(shape.preset)
			if err != nil {
				t.Fatal(err)
			}
			if shape.shrink {
				a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
			}
			c, err := New(a, shape.copts...)
			if err != nil {
				t.Fatal(err)
			}
			w := RandomWeights(g, 7)
			bopts := []BuildOption{WithCalibration(mixedTestInput(g, 1)), WithWorkers(8)}
			var p *Program
			if shape.link == "chip" {
				p, err = c.BuildPipeline(ctx, g, w, CodegenOptions{}, 0, bopts...)
			} else {
				p, err = c.Build(ctx, g, w, CodegenOptions{}, bopts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Verify(ctx, mixedTestInput(g, 1), shape.tol); err != nil {
				t.Fatal(err)
			}

			const n = 24
			reqs := make([]map[int]*Tensor, n)
			want := make([]map[int]*Tensor, n)
			for i := range reqs {
				reqs[i] = mixedTestInput(g, uint64(i)*13+1)
				out, err := p.Run(ctx, reqs[i])
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != len(g.Outputs()) {
					t.Fatalf("Run returned %d tensors, want %d graph outputs", len(out), len(g.Outputs()))
				}
				want[i] = out
			}
			before := p.Stats()
			batch, err := p.RunBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range reqs {
				sameOutputs(t, batch[i], want[i])
			}
			after := p.Stats()
			if d := after.BatchedRequests - before.BatchedRequests; d != n {
				t.Fatalf("%d of %d requests shared a micro-batch", d, n)
			}
			if d := after.Requests - before.Requests; d != n {
				t.Fatalf("RunBatch counted %d requests, want %d", d, n)
			}

			// Fleet-style stage-wise execution.
			env := map[int]*Tensor{}
			for id, in := range reqs[0] {
				env[id] = in
			}
			for i := 0; i < p.Stages(); i++ {
				needs, exports := p.StageBoundary(i)
				for _, gid := range needs {
					if _, ok := env[gid]; !ok {
						t.Fatalf("stage %d needs node %d before it is produced", i, gid)
					}
				}
				if err := p.RunStage(ctx, i, env); err != nil {
					t.Fatal(err)
				}
				for _, gid := range exports {
					if env[gid] == nil {
						t.Fatalf("stage %d did not publish its export %d", i, gid)
					}
				}
			}
			for id, wt := range want[0] {
				if !tensor.AllClose(env[id], wt, 0) {
					t.Fatalf("stage-wise output %d diverges from Run", id)
				}
			}
			if d := p.Stats().Requests - after.Requests; d != 1 {
				t.Fatalf("stage-wise pass counted %d requests, want 1", d)
			}

			// The same stage-wise pass over all n requests at once, a lane
			// each: what a chip does with the jobs that queued while it was
			// busy. It must equal n one-lane passes bit for bit and count as
			// micro-batched.
			after = p.Stats()
			envs := make([]map[int]*Tensor, n)
			for i, req := range reqs {
				envs[i] = maps.Clone(req)
			}
			for i := 0; i < p.Stages(); i++ {
				if err := p.RunStage(ctx, i, envs...); err != nil {
					t.Fatal(err)
				}
			}
			for i := range reqs {
				for id, wt := range want[i] {
					if !tensor.AllClose(envs[i][id], wt, 0) {
						t.Fatalf("lane %d of the %d-lane stage-wise pass: output %d diverges from Run", i, n, id)
					}
				}
			}
			if st := p.Stats(); st.Requests-after.Requests != n || st.BatchedRequests-after.BatchedRequests != n {
				t.Fatalf("%d-lane stage-wise pass counted %d requests, %d of them batched", n,
					st.Requests-after.Requests, st.BatchedRequests-after.BatchedRequests)
			}

			ps := p.Stats().Partition
			if shape.link == "" {
				if ps != nil || p.Stages() != 1 || p.Flow() == nil {
					t.Fatalf("one-stage plan reports %d stages, partition %+v, flow %v", p.Stages(), ps, p.Flow())
				}
				return
			}
			if ps == nil || ps.Link != shape.link || ps.Subgraphs != p.Stages() || p.Stages() < 2 || p.Flow() != nil {
				t.Fatalf("staged plan (%d stages) reports partition %+v", p.Stages(), ps)
			}
			if len(ps.StageCores) != ps.Subgraphs || len(ps.StageCycles) != ps.Subgraphs {
				t.Fatalf("stats shape mismatch: %+v", ps)
			}
			if ps.Transfers == 0 || ps.TransferElems <= 0 || ps.TransferCycles <= 0 {
				t.Fatalf("staged plan reports no transfer costs: %+v", ps)
			}
			if got, want := ps.CIMCycles+ps.HostCycles+ps.TransferCycles, p.Result().Report.Cycles; got != want {
				t.Fatalf("latency decomposition %g does not sum to aggregate cycles %g", got, want)
			}
			for i, sr := range p.Result().Partition.Subs {
				cores := ps.StageCores[i]
				if cores < 0 || cores > p.Arch().Chip.CoreCount() || (cores == 0) != (sr.Target == TargetHost) {
					t.Fatalf("%s stage %d occupies %d cores: %+v", sr.Target, i, cores, ps)
				}
				if ps.StageCycles[i] != sr.Cycles || sr.Cycles <= 0 {
					t.Fatalf("stage %d reports %g cycles, compiled at %g", i, ps.StageCycles[i], sr.Cycles)
				}
			}
		})
	}
}

// TestHostFallbackMonolithicIdentity checks the refactor's core guarantee:
// a fully CIM-supported graph compiles and executes bit-identically with and
// without WithHostFallback, and reports no partition.
func TestHostFallbackMonolithicIdentity(t *testing.T) {
	g, err := Model("mlp")
	if err != nil {
		t.Fatal(err)
	}
	w := graph.RandomWeights(g, 7)
	a, _ := Preset("toy-table2")
	in := mixedTestInput(g, 5)

	run := func(opts ...Option) (*Program, map[int]*Tensor) {
		c, err := New(a, opts...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Build(context.Background(), g, w, CodegenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		return p, out
	}
	pMono, outMono := run()
	pFB, outFB := run(WithHostFallback())

	if pFB.Result().Partition != nil {
		t.Error("fully supported graph produced a partitioned result under host fallback")
	}
	if st := pFB.Stats(); st.Partition != nil {
		t.Error("fully supported graph reports partition stats under host fallback")
	}
	for _, id := range pMono.Outputs() {
		if !tensor.AllClose(outMono[id], outFB[id], 0) {
			t.Errorf("output %d differs between monolithic and host-fallback builds", id)
		}
	}
}

// FuzzPartition generates random layer stacks and cuts them with both
// cutters: chip == 0 partitions mixed CIM/host stacks (with optional ForceHost
// evictions) under host fallback; chip > 0 shrinks toy-table2 to one or two
// cores and pipelines the stack across chips under stationary weights. Every
// plan must pass the part/* verifier rules, build, verify (each CIM stage
// bit-exact against the quantized reference), run, report a latency
// decomposition that sums to Report.Cycles, and carry RunBatch lanes through
// its stages bit-identically to per-request Run; graphs that need no cut stay
// one-stage, and ChipStages rejects host-only operators. CI runs this for 10s
// as a smoke.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 2, 0, 3, 0}, uint8(0), uint8(0), uint64(1))
	f.Add([]byte{0, 1, 0}, uint8(0), uint8(0), uint64(2))
	f.Add([]byte{0, 5, 0, 6}, uint8(2), uint8(0), uint64(3))
	f.Add([]byte{2, 3, 2, 3}, uint8(0), uint8(0), uint64(4))
	f.Add([]byte{0, 1, 0, 4, 0, 6, 0}, uint8(0), uint8(1), uint64(5))
	f.Add([]byte{0, 0, 1}, uint8(0), uint8(2), uint64(6))
	f.Add([]byte{0, 2, 0}, uint8(0), uint8(1), uint64(7))
	f.Fuzz(func(t *testing.T, layers []byte, forceHost, chip uint8, seed uint64) {
		if len(layers) == 0 || len(layers) > 12 {
			t.Skip()
		}
		b := graph.NewBuilder("fuzz-partition", 16)
		hostOnly := false
		for _, l := range layers {
			switch l % 7 {
			case 0:
				b.Dense(16)
			case 1:
				b.ReLU()
			case 2:
				b.Sigmoid()
				hostOnly = true
			case 3:
				b.Tanh()
				hostOnly = true
			case 4:
				b.GELU()
			case 5:
				// Gate against an earlier same-shape node (all are [16]).
				b.MulFrom(b.Last - b.Last%2)
				hostOnly = true
			case 6:
				b.AddFrom(b.Last - b.Last%2)
			}
		}
		g, err := b.Finish()
		if err != nil {
			t.Skip()
		}
		ctx := context.Background()
		a, _ := Preset("toy-table2")
		w := graph.RandomWeights(g, seed)

		var (
			plan *partition.Plan
			p    *Program
		)
		if chip > 0 {
			a.Chip.CoreRows = 1 + int(chip)%2 // each Dense(16) occupies one core
			plan, err = partition.ChipStages(g, a, 0)
			if hostOnly {
				if err == nil {
					t.Fatal("ChipStages accepted a host-only operator")
				}
				return
			}
		} else {
			var opts partition.Options
			if forceHost > 0 {
				// Evict one non-input node deterministically.
				opts.ForceHost = []int{1 + int(forceHost)%(len(g.Nodes)-1)}
			}
			plan, err = partition.Partition(g, opts)
		}
		if err != nil {
			t.Fatalf("cut: %v", err)
		}
		if vs := irverify.VerifyPartition(plan); len(vs) > 0 {
			t.Fatalf("plan for %d layers violates soundness: %v", len(layers), vs[0])
		}
		if chip > 0 {
			c, err := New(a, WithStationaryWeights(), WithCache(0))
			if err != nil {
				t.Fatal(err)
			}
			p, err = c.BuildPipeline(ctx, g, w, CodegenOptions{}, 0, WithWorkers(1))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if (len(plan.Subs) == 1) != (p.Result().Partition == nil) || p.Stages() != len(plan.Subs) {
				t.Fatalf("ChipStages cut %d stages, BuildPipeline built %d (partition %v)", len(plan.Subs), p.Stages(), p.Result().Partition != nil)
			}
		} else {
			c, err := New(a, WithHostFallback(), WithCache(0))
			if err != nil {
				t.Fatal(err)
			}
			p, err = c.Build(ctx, g, w, CodegenOptions{}, WithWorkers(1))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if !hostOnly && forceHost == 0 && p.Result().Partition != nil {
				t.Fatal("fully supported graph produced a partitioned result")
			}
		}

		// Arbitrary quantized stacks have unbounded relative error, so the
		// float tolerance is lifted (the deterministic tests hold it); every
		// CIM stage must still match its quantized reference bit for bit.
		reqs := make([]map[int]*Tensor, 5)
		want := make([]map[int]*Tensor, len(reqs))
		for i := range reqs {
			reqs[i] = mixedTestInput(g, seed|1+uint64(i))
			if err := p.Verify(ctx, reqs[i], math.Inf(1)); err != nil {
				t.Fatalf("verify request %d: %v", i, err)
			}
			if want[i], err = p.Run(ctx, reqs[i]); err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, id := range p.Outputs() {
				if want[i][id] == nil {
					t.Fatalf("output node %d missing from run result", id)
				}
			}
		}
		for _, lanes := range []int{1, 2, 5} {
			outs, err := p.RunBatch(ctx, reqs[:lanes])
			if err != nil {
				t.Fatalf("RunBatch of %d: %v", lanes, err)
			}
			for i := range outs {
				sameOutputs(t, outs[i], want[i])
			}
		}
		if p.Result().Partition != nil {
			ps := p.Stats().Partition
			if ps == nil {
				t.Fatal("staged program reports nil PartitionStats")
			}
			if got, want := ps.CIMCycles+ps.HostCycles+ps.TransferCycles, p.Result().Report.Cycles; got != want {
				t.Fatalf("latency decomposition %g does not sum to aggregate %g", got, want)
			}
		}
	})
}

// TestLowerRejectsPartitioned pins the Lower guard: a partitioned result has
// no single flow.
func TestLowerRejectsPartitioned(t *testing.T) {
	g, _ := mixedTestGraph(t)
	a, _ := Preset("toy-table2")
	c, err := New(a, WithHostFallback())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition == nil {
		t.Fatal("mixed graph compiled without a partition")
	}
	if _, err := c.Lower(context.Background(), g, res, CodegenOptions{}); err == nil {
		t.Fatal("Lower accepted a partitioned result")
	}
}
