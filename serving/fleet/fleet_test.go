package fleet

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cimmlc"
	"cimmlc/internal/graph"
	"cimmlc/internal/perfsim"
	"cimmlc/serving"
)

// fleetInput returns the deterministic request i for conv-relu.
func fleetInput(i int) map[int]*cimmlc.Tensor {
	in := cimmlc.NewTensor(3, 32, 32)
	in.Rand(uint64(i)+1, 1)
	return map[int]*cimmlc.Tensor{0: in}
}

// doAll fires n concurrent requests and returns outputs in request order.
func doAll(t *testing.T, f *Fleet, n int, input func(i int) map[int]*cimmlc.Tensor) []map[int]*cimmlc.Tensor {
	t.Helper()
	outs := make([]map[int]*cimmlc.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = f.Do(context.Background(), input(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return outs
}

// sameBits fails unless got and want are bit-identical tensor maps.
func sameBits(t *testing.T, label string, got, want map[int]*cimmlc.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for id, wt := range want {
		gt, ok := got[id]
		if !ok {
			t.Fatalf("%s: missing output node %d", label, id)
		}
		wd, gd := wt.Data(), gt.Data()
		if len(wd) != len(gd) {
			t.Fatalf("%s node %d: %d elements, want %d", label, id, len(gd), len(wd))
		}
		for j := range wd {
			if wd[j] != gd[j] {
				t.Fatalf("%s node %d element %d: %v != %v", label, id, j, gd[j], wd[j])
			}
		}
	}
}

// TestFleetBitIdenticalAcrossReplicaCounts is the determinism acceptance
// test (run under -race in CI): the same request set served by 1-replica and
// 3-replica fleets — any routing, any interleaving — must produce outputs
// bit-identical to each other and to a direct single-Program run.
func TestFleetBitIdenticalAcrossReplicaCounts(t *testing.T) {
	ctx := context.Background()
	const n = 12

	reg := serving.NewRegistry()
	p, err := reg.Get(ctx, "conv-relu", "toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[int]*cimmlc.Tensor, n)
	for i := range want {
		if want[i], err = p.Run(ctx, fleetInput(i)); err != nil {
			t.Fatal(err)
		}
	}

	for _, replicas := range []int{1, 3} {
		f, err := New(ctx, reg, Config{Model: "conv-relu", Arch: "toy-table2", Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		if f.Mode() != "replicated" || f.Replicas() != replicas {
			t.Fatalf("fleet mode=%s replicas=%d, want replicated/%d", f.Mode(), f.Replicas(), replicas)
		}
		outs := doAll(t, f, n, fleetInput)
		for i := range outs {
			sameBits(t, fmt.Sprintf("replicas=%d request %d", replicas, i), outs[i], want[i])
		}
		st := f.State()
		if st.Requests != n {
			t.Fatalf("fleet counted %d requests, want %d", st.Requests, n)
		}
		var served uint64
		for _, rs := range st.Replicas {
			served += rs.Served
		}
		if served != n {
			t.Fatalf("replicas served %d requests in total, want %d (state: %+v)", served, n, st)
		}
		f.Close()
		if _, err := f.Do(ctx, fleetInput(0)); err != serving.ErrClosed {
			t.Fatalf("Do after Close = %v, want ErrClosed", err)
		}
	}
}

// mlpInput returns the deterministic request i for the zoo mlp.
func mlpInput(i int) map[int]*cimmlc.Tensor {
	in := cimmlc.NewTensor(784)
	in.Rand(uint64(i)+100, 1)
	return map[int]*cimmlc.Tensor{0: in}
}

// smallChipRegistry returns a stationary-weights registry with jia-small
// registered: the zoo mlp overflows it, forcing the pipeline path.
func smallChipRegistry(t *testing.T) *serving.Registry {
	return smallChipRegistryWith(t, serving.WithStationaryWeights())
}

func smallChipRegistryWith(t *testing.T, opts ...serving.RegistryOption) *serving.Registry {
	t.Helper()
	reg := serving.NewRegistry(opts...)
	if err := reg.RegisterArch(smallArch(t)); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestFleetScaleUpAndDrainDown exercises the autoscaler round trip in both
// fleet modes: a backlog grows the fleet toward MaxReplicas, idleness shrinks
// it back to MinReplicas, and the retiring replicas drain — no admitted
// request is dropped or failed at any point. The pipeline row is the
// regression test for a depth signal that could not exceed the stage-0
// channel's capacity of one, so pipeline fleets never scaled up.
func TestFleetScaleUpAndDrainDown(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		mode, model, arch string
		reg               func(t *testing.T) *serving.Registry
		input             func(i int) map[int]*cimmlc.Tensor
	}{
		{"replicated", "conv-relu", "toy-table2", func(*testing.T) *serving.Registry { return serving.NewRegistry() }, fleetInput},
		{"pipeline", "mlp", "jia-small", smallChipRegistry, mlpInput},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			reg := tc.reg(t)
			f, err := New(ctx, reg, Config{
				Model: tc.model, Arch: tc.arch,
				Replicas: 1, MinReplicas: 1, MaxReplicas: 3,
				ScaleInterval:      2 * time.Millisecond,
				ScaleUpDepth:       1,
				ScaleDownIdleTicks: 3,
				Batcher:            serving.BatcherConfig{MaxBatch: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Mode() != tc.mode {
				t.Fatalf("fleet mode = %s, want %s", f.Mode(), tc.mode)
			}

			// Sustained load from looping submitters until the autoscaler
			// observes the backlog; every request must succeed while the
			// fleet scales underneath them.
			var (
				stopLoad = make(chan struct{})
				loadWG   sync.WaitGroup
			)
			for i := 0; i < 16; i++ {
				loadWG.Add(1)
				go func(i int) {
					defer loadWG.Done()
					for j := 0; ; j++ {
						select {
						case <-stopLoad:
							return
						default:
						}
						if _, err := f.Do(ctx, tc.input(i*1000+j)); err != nil {
							t.Errorf("load request %d/%d: %v", i, j, err)
							return
						}
					}
				}(i)
			}
			deadline := time.Now().Add(10 * time.Second)
			for f.State().ScaleUps == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			close(stopLoad)
			loadWG.Wait()
			if grown := f.State(); grown.ScaleUps == 0 {
				t.Fatalf("no scale-up under sustained backlog: %+v", grown)
			}

			// Idle long enough for the autoscaler to retire the extras, then
			// verify the fleet still serves correctly at MinReplicas.
			deadline = time.Now().Add(10 * time.Second)
			// A retiring replica leaves Replicas() at once but counts as a
			// scale-down only when it has drained: wait for both.
			for (f.Replicas() > 1 || f.State().ScaleDowns == 0) && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := f.Replicas(); got != 1 {
				t.Fatalf("fleet did not drain down: %d replicas, want 1 (state %+v)", got, f.State())
			}
			if st := f.State(); st.ScaleDowns == 0 {
				t.Fatalf("no scale-down recorded: %+v", st)
			}
			outs := doAll(t, f, 4, tc.input)
			p, err := reg.BuildPipeline(ctx, tc.model, tc.arch, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range outs {
				want, err := p.Run(ctx, tc.input(i))
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("post-drain request %d", i), outs[i], want)
			}
		})
	}
}

// TestFleetBuildsOnce: a fleet's replicas are views of one Program, so N of
// them — initial or scaled up, on one chip each or several — cost the registry
// one build, not N, and no single-chip attempt first.
func TestFleetBuildsOnce(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		mode, model, arch string
		reg               func(t *testing.T) *serving.Registry
		input             func(i int) map[int]*cimmlc.Tensor
		builds            uint64
	}{
		{"replicated", "conv-relu", "toy-table2", func(*testing.T) *serving.Registry { return serving.NewRegistry() }, fleetInput, 1},
		{"pipeline", "mlp", "jia-small", smallChipRegistry, mlpInput, 1},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			reg := tc.reg(t)
			// The scaler never ticks: the test does its one scale-up itself.
			f, err := New(ctx, reg, Config{Model: tc.model, Arch: tc.arch, Replicas: 3, MaxReplicas: 4, ScaleInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.addReplica(f.spawn())
			if f.Mode() != tc.mode || f.Replicas() != 4 {
				t.Fatalf("fleet mode=%s replicas=%d, want %s/4", f.Mode(), f.Replicas(), tc.mode)
			}
			if got := reg.Builds(); got != tc.builds {
				t.Fatalf("a fleet of 4 replicas ran %d registry builds, want %d", got, tc.builds)
			}
			// Every replica serves, whichever the router picks.
			want, err := f.Do(ctx, tc.input(0))
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range f.replicas {
				got, err := rep.run.Do(ctx, tc.input(0))
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("replica %d", rep.id), got, want)
			}
		})
	}
}

// TestFleetReplicasSurviveRegisterArch: a replica spawned after the fleet's
// arch was re-registered with a different description is still a view of the
// Program the fleet was built with — bit-identical to its siblings, where one
// built from the registry at spawn time would answer the same request
// differently, depending on the router. The gateway replaces the whole fleet
// when it sees the new version.
func TestFleetReplicasSurviveRegisterArch(t *testing.T) {
	ctx := context.Background()
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "toy-live"
	reg := serving.NewRegistry()
	if err := reg.RegisterArch(a); err != nil {
		t.Fatal(err)
	}
	// The scaler never ticks: the test does its one scale-up itself.
	f, err := New(ctx, reg, Config{Model: "conv-relu", Arch: "toy-live", Replicas: 1, MaxReplicas: 2, ScaleInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := f.Do(ctx, fleetInput(0))
	if err != nil {
		t.Fatal(err)
	}

	// The same name, now with 4-bit weights: a Program built from it answers
	// differently.
	a.WeightBits = 4
	if err := reg.RegisterArch(a); err != nil {
		t.Fatal(err)
	}
	p, err := reg.BuildProgram(ctx, "conv-relu", "toy-live")
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Run(ctx, fleetInput(0))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, want) {
		t.Fatal("the re-registered arch answers as the old one: nothing to tell apart")
	}

	f.addReplica(f.spawn())
	if f.Replicas() != 2 {
		t.Fatalf("fleet has %d replicas, want 2", f.Replicas())
	}
	for _, rep := range f.replicas {
		got, err := rep.run.Do(ctx, fleetInput(0))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("replica %d", rep.id), got, want)
	}
}

// TestFleetMalformedRequests holds both fleet modes to the request contract
// of Program.Run: a malformed request draws the error a directly built
// Program returns for it, naming global node IDs — the pipeline path used to
// skip the check and run whatever it was given.
func TestFleetMalformedRequests(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		mode, model, arch string
		reg               func(t *testing.T) *serving.Registry
		input             func(i int) map[int]*cimmlc.Tensor
	}{
		{"replicated", "conv-relu", "toy-table2", func(*testing.T) *serving.Registry { return serving.NewRegistry() }, fleetInput},
		{"pipeline", "mlp", "jia-small", smallChipRegistry, mlpInput},
	} {
		reg := tc.reg(t)
		p, err := reg.BuildPipeline(ctx, tc.model, tc.arch, 0)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(ctx, reg, Config{Model: tc.model, Arch: tc.arch, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if f.Mode() != tc.mode {
			t.Fatalf("fleet mode = %s, want %s", f.Mode(), tc.mode)
		}
		for name, edit := range map[string]func(req map[int]*cimmlc.Tensor){
			"missing":             func(r map[int]*cimmlc.Tensor) { delete(r, 0) },
			"nil":                 func(r map[int]*cimmlc.Tensor) { r[0] = nil },
			"unknown-node":        func(r map[int]*cimmlc.Tensor) { r[2] = r[0] },
			"wrong-element-count": func(r map[int]*cimmlc.Tensor) { r[0] = cimmlc.NewTensor(2, 2) },
		} {
			t.Run(tc.mode+"/"+name, func(t *testing.T) {
				req := tc.input(1)
				edit(req)
				_, want := p.Run(ctx, req)
				if want == nil {
					t.Fatal("Program.Run accepted the malformed request")
				}
				out, err := f.Do(ctx, req)
				if out != nil || err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
					t.Fatalf("fleet.Do: out=%v err=%v, want Program.Run's error %q", out, err, want)
				}
			})
		}
	}
}

// smallArch returns jia-isscc21 shrunk to 8 cores under a distinct name —
// the zoo mlp (13 cores) overflows it, forcing the pipeline path.
func smallArch(t *testing.T) *cimmlc.Arch {
	t.Helper()
	a, err := cimmlc.Preset("jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "jia-small"
	a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
	return a
}

// TestFleetPipelineServesOverCapacityModel is the cross-chip acceptance
// path end to end: under stationary weights the mlp fails single-chip
// placement, the fleet transparently builds pipeline replicas, and serves
// with outputs bit-identical to a directly built multi-chip Program —
// regardless of replica count, per-chip batch size and request interleaving.
func TestFleetPipelineServesOverCapacityModel(t *testing.T) {
	ctx := context.Background()
	reg := smallChipRegistry(t)

	// Single-chip placement must genuinely fail first.
	if _, err := reg.BuildProgram(ctx, "mlp", "jia-small"); err == nil {
		t.Fatal("mlp unexpectedly placed on the small chip; pipeline path untested")
	}

	pl, err := reg.BuildPipeline(ctx, "mlp", "jia-small", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Chips() < 2 {
		t.Fatalf("reference pipeline occupies %d chips, want ≥ 2", pl.Chips())
	}
	const n = 8
	input := mlpInput
	want := make([]map[int]*cimmlc.Tensor, n)
	for i := range want {
		if want[i], err = pl.Run(ctx, input(i)); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct{ replicas, maxBatch int }{{1, 1}, {1, 4}, {2, 8}} {
		f, err := New(ctx, reg, Config{Model: "mlp", Arch: "jia-small", Replicas: tc.replicas,
			Batcher: serving.BatcherConfig{MaxBatch: tc.maxBatch}})
		if err != nil {
			t.Fatal(err)
		}
		if f.Mode() != "pipeline" {
			t.Fatalf("fleet mode = %s, want pipeline", f.Mode())
		}
		if st := f.State(); st.Stages < 2 {
			t.Fatalf("fleet reports %d stages, want ≥ 2", st.Stages)
		}
		outs := doAll(t, f, n, input)
		for i := range outs {
			sameBits(t, fmt.Sprintf("pipeline replicas=%d batch=%d request %d", tc.replicas, tc.maxBatch, i), outs[i], want[i])
		}
		f.Close()
	}
}

// TestFleetPipelinesWhateverTheRegistry is the regression test for fleets that
// never pipelined: what decides a fleet's mode is the compiler's cut of the
// model, not an error only a stationary-weights registry raises. Through a
// registry built as cmd/cimserve builds it — host fallback, no
// WithStationaryWeights — the over-capacity mlp used to be served
// "replicated", reloading weights on every request; it must occupy two chips.
// The same holds for a model that also needs the host: a gated stack whose CIM
// part overflows the chip is cut both ways, and the fleet serves it bit for
// bit as the Program BuildPipeline makes of it runs it directly.
func TestFleetPipelinesWhateverTheRegistry(t *testing.T) {
	ctx := context.Background()
	gated := serving.WithModelSource(func(name string) (*cimmlc.Graph, cimmlc.Weights, error) {
		// The first Dense fills a chip, the second opens the next, the
		// Sigmoid goes to the host.
		g, err := graph.NewBuilder(name, 784).Dense(256).Dense(128).Sigmoid().Dense(10).Finish()
		if err != nil {
			return nil, nil, err
		}
		return g, cimmlc.RandomWeights(g, 42), nil
	})
	for _, tc := range []struct {
		name, model string
		opts        []serving.RegistryOption
		links       []perfsim.Link // the tiers the cut edges cross
	}{
		{"as-cimserve", "mlp", []serving.RegistryOption{serving.WithHostFallback()}, []perfsim.Link{perfsim.ChipLink}},
		{"host-and-chip", "mlp-gated", []serving.RegistryOption{serving.WithHostFallback(), gated}, []perfsim.Link{perfsim.ChipLink, perfsim.HostLink}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := smallChipRegistryWith(t, tc.opts...)
			pl, err := reg.BuildPipeline(ctx, tc.model, "jia-small", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Verify(ctx, mlpInput(0), 0.12); err != nil {
				t.Fatal(err)
			}
			f, err := New(ctx, reg, Config{Model: tc.model, Arch: "jia-small", Replicas: 2,
				Batcher: serving.BatcherConfig{MaxBatch: 4}})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			crossed := map[perfsim.Link]bool{}
			for _, x := range f.prog.Result().Partition.Plan.Transfers {
				crossed[x.Link] = true
			}
			links := slices.Sorted(maps.Keys(crossed))
			if st := f.State(); f.Mode() != "pipeline" || st.Stages != 2 || f.prog.Chips() != 2 || !slices.Equal(links, tc.links) {
				t.Fatalf("fleet mode=%s stages=%d chips=%d cut on the %v links, want pipeline over 2 chips cut on %v", f.Mode(), st.Stages, f.prog.Chips(), links, tc.links)
			}
			const n = 8
			outs := doAll(t, f, n, mlpInput)
			for i := range outs {
				want, err := pl.Run(ctx, mlpInput(i))
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("request %d", i), outs[i], want)
			}
		})
	}
}

// TestFleetCloseDrainsInFlight pins the graceful-drain contract at
// shutdown: requests admitted before Close complete successfully even when
// Close races their execution.
func TestFleetCloseDrainsInFlight(t *testing.T) {
	ctx := context.Background()
	reg := serving.NewRegistry()
	f, err := New(ctx, reg, Config{Model: "conv-relu", Arch: "toy-table2", Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.Do(context.Background(), fleetInput(i))
		}(i)
	}
	// Close while the requests are (most likely) in flight; admitted ones
	// must drain, late ones must fail with ErrClosed — never hang or panic.
	f.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil && err != serving.ErrClosed {
			t.Fatalf("request %d: %v (want success or ErrClosed)", i, err)
		}
	}
}
