package cimmlc

import (
	"context"
	"maps"
	"reflect"
	"sync"
	"testing"
)

// TestProgramReplica holds Replica to what a fleet relies on, for every plan
// shape: a replica answers Run, RunBatch and chip-wise RunChip bit for bit
// as the program it was taken from, describes the same artifact, counts its
// own requests — and original and replicas, hammered concurrently (run under
// -race), share nothing a request writes to.
func TestProgramReplica(t *testing.T) {
	ctx := context.Background()
	_, _, _, _, mono := buildToyProgram(t, WithWorkers(2))
	_, part := buildMixedProgram(t, WithWorkers(2))
	sc, sg, sw, sin := smallChipCompiler(t, WithStationaryWeights())
	staged, err := sc.BuildPipeline(ctx, sg, sw, CodegenOptions{}, 0, WithCalibration(sin), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		p    *Program
	}{{"monolithic", mono}, {"host-partitioned", part}, {"chip-staged", staged}} {
		t.Run(shape.name, func(t *testing.T) {
			p := shape.p
			const n = 6
			reqs := make([]map[int]*Tensor, n)
			want := make([]map[int]*Tensor, n)
			for i := range reqs {
				reqs[i] = seededRequest(p, uint64(i)*17+3)
				if want[i], err = p.Run(ctx, reqs[i]); err != nil {
					t.Fatal(err)
				}
			}
			served := p.Stats()

			r := p.Replica()
			if r.Flow() != p.Flow() || r.Result() != p.Result() || r.Chips() != p.Chips() ||
				!reflect.DeepEqual(r.Inputs(), p.Inputs()) || !reflect.DeepEqual(r.Outputs(), p.Outputs()) ||
				!reflect.DeepEqual(r.Arch(), p.Arch()) || r.Stats().Partition != served.Partition {
				t.Fatal("a replica describes a different artifact than its program")
			}
			if st := r.Stats(); st.Requests != 0 || st.PoolHits != 0 || st.PoolMisses != 0 {
				t.Fatalf("a fresh replica starts with counters %+v", st)
			}
			for i, req := range reqs {
				out, err := r.Run(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				sameOutputs(t, out, want[i])
			}
			outs, err := r.RunBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			envs := make([]map[int]*Tensor, n)
			for i, req := range reqs {
				sameOutputs(t, outs[i], want[i])
				envs[i] = maps.Clone(req)
			}
			for c := 0; c < r.Chips(); c++ {
				if err := r.RunChip(ctx, c, envs...); err != nil {
					t.Fatal(err)
				}
			}
			for i := range reqs {
				for id, wt := range want[i] {
					sameOutputs(t, map[int]*Tensor{id: envs[i][id]}, map[int]*Tensor{id: wt})
				}
			}
			if st := r.Stats(); st.Requests != 3*n || st.BatchedRequests == 0 {
				t.Fatalf("the replica served %d requests three ways and counted %+v", n, st)
			}
			if st := p.Stats(); st.Requests != served.Requests || st.PoolHits != served.PoolHits || st.PoolMisses != served.PoolMisses {
				t.Fatalf("the replica's requests moved its program's counters: %+v, were %+v", st, served)
			}

			// Original and two replicas at once, each from two goroutines.
			var wg sync.WaitGroup
			for _, q := range []*Program{p, r, p.Replica()} {
				for k := 0; k < 2; k++ {
					wg.Add(1)
					go func(q *Program, k int) {
						defer wg.Done()
						for round := 0; round < 3; round++ {
							outs, err := q.RunBatch(ctx, reqs)
							if err != nil {
								t.Error(err)
								return
							}
							one, err := q.Run(ctx, reqs[(k+round)%n])
							if err != nil {
								t.Error(err)
								return
							}
							if !reflect.DeepEqual(one, want[(k+round)%n]) || !reflect.DeepEqual(outs, want) {
								t.Errorf("concurrent run %d/%d diverges from the program's own outputs", k, round)
								return
							}
						}
					}(q, k)
				}
			}
			wg.Wait()
		})
	}
}
