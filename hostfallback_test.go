package cimmlc

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"cimmlc/internal/core"
	"cimmlc/internal/graph"
	"cimmlc/internal/irverify"
	"cimmlc/internal/partition"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/tensor"
)

// crossedLinks returns the tiers a staged program's cut edges cross, sorted.
func crossedLinks(p *Program) []perfsim.Link {
	crossed := map[perfsim.Link]bool{}
	for _, x := range p.Result().Partition.Plan.Transfers {
		crossed[x.Link] = true
	}
	return slices.Sorted(maps.Keys(crossed))
}

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
	ref, err := graph.Execute(g, w, in)
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
// served across chips), both cuts at once (a gated stack whose CIM part
// overflows one chip) and the one-stage plan: the program verifies against
// the reference executors, RunBatch on 8 workers (run under -race) carries the
// requests through the stages in shared micro-batches yet returns what
// per-request Run returns bit for bit, chip-wise execution through RunChip
// (the serving path) does too, and the stats describe the plan.
func TestPartitionedRunBatchDeterminism(t *testing.T) {
	ctx := context.Background()
	zoo := func(name string) func() *Graph {
		return func() *Graph {
			g, err := Model(name)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	// On jia-small the first Dense fills a chip (8 cores), the second opens
	// the next one: a chip-link edge, then the host-link edges of the gate.
	gated := func() *Graph {
		return graph.NewBuilder("mlp-gated", 784).Dense(256).Dense(128).Sigmoid().Dense(10).MustFinish()
	}
	for _, shape := range []struct {
		name   string
		links  []perfsim.Link // the tiers the cut edges cross; none for a one-stage plan
		chips  int
		graph  func() *Graph
		preset string
		shrink bool // jia-small: the zoo mlp needs 13 cores, the shrunk chip has 8
		tol    float64
		copts  []Option
	}{
		{"host-cut", []perfsim.Link{perfsim.HostLink}, 1, zoo("conv-gate"), "puma", false, 0.12, []Option{WithHostFallback()}},
		{"chip-cut", []perfsim.Link{perfsim.ChipLink}, 2, zoo("mlp"), "jia-isscc21", true, 0.05, []Option{WithStationaryWeights()}},
		{"mixed", []perfsim.Link{perfsim.ChipLink, perfsim.HostLink}, 2, gated, "jia-isscc21", true, 0.12, []Option{WithHostFallback(), WithStationaryWeights()}},
		{"one-stage", nil, 1, zoo("conv-relu"), "toy-table2", false, 0.05, nil},
	} {
		t.Run(shape.name, func(t *testing.T) {
			g := shape.graph()
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
			if shape.shrink {
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

			// Serving-style chip-wise execution: one request alone, then all n
			// at once, a lane each — what a chip does with the jobs that
			// queued while it was busy. Either way it must equal n one-lane
			// Runs bit for bit, and the lanes must count as micro-batched.
			if p.Chips() != shape.chips {
				t.Fatalf("program occupies %d chips, want %d", p.Chips(), shape.chips)
			}
			for _, lanes := range []int{1, n} {
				after = p.Stats()
				envs := make([]map[int]*Tensor, lanes)
				for i := range envs {
					envs[i] = maps.Clone(reqs[i])
				}
				for c := 0; c < p.Chips(); c++ {
					if err := p.RunChip(ctx, c, envs...); err != nil {
						t.Fatal(err)
					}
				}
				for i, env := range envs {
					for id, wt := range want[i] {
						if !tensor.AllClose(env[id], wt, 0) {
							t.Fatalf("lane %d of the %d-lane chip-wise pass: output %d diverges from Run", i, lanes, id)
						}
					}
				}
				st, batched := p.Stats(), 0
				if lanes > 1 {
					batched = lanes
				}
				if st.Requests-after.Requests != uint64(lanes) || st.BatchedRequests-after.BatchedRequests != uint64(batched) {
					t.Fatalf("%d-lane chip-wise pass counted %d requests, %d of them batched", lanes,
						st.Requests-after.Requests, st.BatchedRequests-after.BatchedRequests)
				}
			}
			if err := p.RunChip(ctx, p.Chips(), maps.Clone(reqs[0])); err == nil {
				t.Fatalf("RunChip accepted chip %d of %d", p.Chips(), p.Chips())
			}

			ps := p.Stats().Partition
			if shape.links == nil {
				if ps != nil || p.Result().Partition != nil || p.Flow() == nil {
					t.Fatalf("one-stage plan reports partition %+v, flow %v", ps, p.Flow())
				}
				return
			}
			if ps == nil || ps.Subgraphs != len(p.Result().Partition.Subs) || ps.Subgraphs < 2 || p.Flow() != nil {
				t.Fatalf("staged plan reports partition %+v", ps)
			}
			if got := crossedLinks(p); !slices.Equal(got, shape.links) {
				t.Fatalf("cut edges cross the %v links, want %v", got, shape.links)
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

// FuzzPartition generates random layer stacks and cuts them with both of the
// cutter's policies at once: the target policy sends host-only operators (and
// an optional ForceHost eviction) to the host; chip > 0 shrinks toy-table2 to
// one or two cores and spreads what is left on the accelerator across chips
// under stationary weights. Every plan must pass the part/* verifier rules,
// build, verify (each CIM stage bit-exact against the quantized reference),
// run, report a latency decomposition that sums to Report.Cycles, and carry
// RunBatch lanes through its stages bit-identically to per-request Run; graphs
// that need no cut stay one-stage. A stack whose float reference overflows
// has nothing for Verify to hold its outputs to: that one refusal is accepted
// once graph.Execute confirms the overflow (overflowedReference), and Run and
// RunBatch must still agree on the request. CI runs this for 10s as a smoke.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 2, 0, 3, 0}, uint8(0), uint8(0), uint64(1))
	f.Add([]byte{0, 1, 0}, uint8(0), uint8(0), uint64(2))
	f.Add([]byte{0, 5, 0, 6}, uint8(2), uint8(0), uint64(3))
	f.Add([]byte{2, 3, 2, 3}, uint8(0), uint8(0), uint64(4))
	f.Add([]byte{0, 1, 0, 4, 0, 6, 0}, uint8(0), uint8(1), uint64(5))
	f.Add([]byte{0, 0, 1}, uint8(0), uint8(2), uint64(6))
	f.Add([]byte{0, 2, 0}, uint8(0), uint8(1), uint64(7))
	f.Add([]byte{0, 0, 2, 0, 5, 0, 0}, uint8(3), uint8(1), uint64(8))
	f.Add([]byte{0, 3, 0, 0, 6, 0}, uint8(4), uint8(2), uint64(9))
	f.Add([]byte{6, 6}, uint8(2), uint8(0), uint64(10)) // nothing host-only, nothing weighted: the eviction alone cuts
	f.Fuzz(func(t *testing.T, layers []byte, forceHost, chip uint8, seed uint64) {
		if len(layers) == 0 || len(layers) > 12 {
			t.Skip()
		}
		b := graph.NewBuilder("fuzz-partition", 16)
		for _, l := range layers {
			switch l % 7 {
			case 0:
				b.Dense(16)
			case 1:
				b.ReLU()
			case 2:
				b.Sigmoid()
			case 3:
				b.Tanh()
			case 4:
				b.GELU()
			case 5:
				// Gate against an earlier same-shape node (all are [16]).
				b.MulFrom(b.Last - b.Last%2)
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

		var cut partition.Options
		copts := []Option{WithHostFallback(), WithCache(0)}
		if forceHost > 0 {
			// Evict one non-input node deterministically.
			cut.ForceHost = []int{1 + int(forceHost)%(len(g.Nodes)-1)}
		}
		if chip > 0 {
			a.Chip.CoreRows = 1 + int(chip)%2 // each Dense(16) occupies one core
			cut.Chip = a
			copts = append(copts, WithStationaryWeights())
		}
		plan, err := partition.Partition(g, cut)
		if err != nil {
			t.Fatalf("cut: %v", err)
		}
		if vs := irverify.VerifyPartition(plan); len(vs) > 0 {
			t.Fatalf("plan for %d layers violates soundness: %v", len(layers), vs[0])
		}
		// Build what the compiler makes of the same cut: Compiler.Build and
		// BuildPipeline reach it with no eviction.
		c, err := New(a, copts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CompilePasses(ctx, g.Clone(), a, c.opt, cut, c.passes, nil)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		p, err := c.buildStaged(ctx, res, w, CodegenOptions{}, []BuildOption{WithWorkers(1)})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		whole := len(plan.Subs) == 1 && plan.Subs[0].Target == TargetCIM
		if whole != (res.Partition == nil) || p.Chips() != plan.Subs[len(plan.Subs)-1].Chip+1 {
			t.Fatalf("the cutter made %d stages on %d chips, the build %d chips (partition %v)",
				len(plan.Subs), plan.Subs[len(plan.Subs)-1].Chip+1, p.Chips(), res.Partition != nil)
		}
		if len(g.HostOnlyNodeIDs()) == 0 && forceHost == 0 && chip == 0 && !whole {
			t.Fatal("fully supported graph produced a partitioned result")
		}

		// Arbitrary quantized stacks have unbounded relative error, so the
		// float tolerance is lifted (the deterministic tests hold it); every
		// CIM stage must still match its quantized reference bit for bit.
		reqs := make([]map[int]*Tensor, 5)
		want := make([]map[int]*Tensor, len(reqs))
		for i := range reqs {
			reqs[i] = mixedTestInput(g, seed|1+uint64(i))
			if err := p.Verify(ctx, reqs[i], math.Inf(1)); err != nil && !overflowedReference(t, g, w, reqs[i], err) {
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

// overflowedReference reports whether err is Verify's refusal of a non-finite
// float reference output, and holds it to what the float reference itself
// gives on the request: the element the refusal names is the first non-finite
// one of that output. Verify runs every CIM stage's bit-exact check before it
// reaches the float reference, so the stages have passed when it refuses so.
func overflowedReference(t *testing.T, g *Graph, w Weights, in map[int]*Tensor, err error) bool {
	t.Helper()
	var id, elem int
	if n, _ := fmt.Sscanf(err.Error(), "cimmlc: Verify: output %d: float reference element %d is ", &id, &elem); n != 2 {
		return false
	}
	ref, rerr := graph.Execute(g, w, in)
	if rerr != nil {
		t.Fatalf("%v, and the float reference fails: %v", err, rerr)
	}
	if ref[id] == nil || tensor.FirstNonFinite(ref[id]) != elem {
		t.Fatalf("%v, but the float reference gives node %d %v", err, id, ref[id])
	}
	return true
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
