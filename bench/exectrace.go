package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"cimmlc"
	"cimmlc/internal/funcsim"
	"cimmlc/internal/mop"
)

// replay is a bench-owned copy of what Compiler.Build assembles inside a
// Program, built stage by stage so each stage can be timed from outside and
// the executor driven one step at a time.
type replay struct {
	img   *funcsim.Image
	flow  *cimmlc.Flow
	body  *funcsim.CompiledFlow
	outs  []int
	state *funcsim.State

	// The body flattened to leaf operators, each wrapped as its own flow so
	// Machine.RunBody can execute it alone, with its kind beside it.
	leaves []mop.Flow
	kinds  []string
}

// buildStages are the spans replayBuild records, in order; each is the
// per-layer metric of the same name plus "_ms".
var buildStages = []string{"cimmlc.build.compile", "codegen.lower", "funcsim.new_image", "funcsim.program_init", "funcsim.compile_body"}

// replayBuild repeats Compiler.Build's stages for one cell through the
// layers' public functions, a span around each. A host-partitioned cell has
// no single flow: only its compile stage is replayed and nil is returned.
func replayBuild(tr *Tracer, req int, c *execCell) (*replay, error) {
	ctx := context.Background()
	name := c.String()
	comp, err := c.newCompiler()
	if err != nil {
		return nil, err
	}
	root := tr.Start(0, req, "bench.build_replay", name)
	defer tr.End(root)

	s := tr.Start(root, req, buildStages[0], name)
	res, err := comp.Compile(ctx, c.g)
	tr.End(s)
	if err != nil || res.Partition != nil {
		return nil, err
	}
	s = tr.Start(root, req, buildStages[1], name)
	fr, err := comp.Lower(ctx, c.g, res, cimmlc.CodegenOptions{})
	tr.End(s)
	if err != nil {
		return nil, err
	}
	gc := c.g.Clone()
	if err := gc.InferShapes(); err != nil {
		return nil, err
	}
	s = tr.Start(root, req, buildStages[2], name)
	img, err := funcsim.NewImage(gc, c.arch, fr.Layout, c.w, c.calib)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	s = tr.Start(root, req, buildStages[3], name)
	err = img.ProgramInit(fr.Flow.Init)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	s = tr.Start(root, req, buildStages[4], name)
	body, err := img.CompileBody(fr.Flow.Body)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	rp := &replay{img: img, flow: fr.Flow, body: body, outs: gc.Outputs(), state: img.NewState()}
	var walk func(ops []mop.Op)
	walk = func(ops []mop.Op) {
		for _, op := range ops {
			if par, ok := op.(mop.Parallel); ok {
				walk(par.Body)
				continue
			}
			rp.leaves = append(rp.leaves, mop.Flow{Body: []mop.Op{op}})
			rp.kinds = append(rp.kinds, kindOf(op))
		}
	}
	walk(fr.Flow.Body)
	return rp, nil
}

// kindOf names a leaf meta-operator the way mopKinds does.
func kindOf(op mop.Op) string {
	return strings.ToLower(strings.TrimPrefix(fmt.Sprintf("%T", op), "mop."))
}

// runStages executes one request the way Program.Run does, a span per step.
func (rp *replay) runStages(tr *Tracer, req int, cell string, in map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, time.Duration, error) {
	t0 := time.Now()
	root := tr.Start(0, req, "bench.run_replay", cell)
	defer tr.End(root)

	s := tr.Start(root, req, "funcsim.reset", cell)
	rp.img.Reset(rp.state)
	m := rp.img.Exec(rp.state)
	tr.End(s)
	s = tr.Start(root, req, "funcsim.load_inputs", cell)
	err := m.LoadInputs(in)
	tr.End(s)
	if err != nil {
		return nil, 0, err
	}
	s = tr.Start(root, req, "funcsim.run_body", cell)
	err = m.RunBody(rp.flow)
	tr.End(s)
	if err != nil {
		return nil, 0, err
	}
	s = tr.Start(root, req, "funcsim.settle", cell)
	m.SettleAll()
	tr.End(s)
	s = tr.Start(root, req, "funcsim.extract", cell)
	out := m.TensorsOf(rp.outs)
	tr.End(s)
	return out, time.Since(t0), nil
}

// runByKind executes one request one leaf operator at a time and returns the
// wall time (us) each operator kind took.
func (rp *replay) runByKind(in map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, map[string]float64, error) {
	rp.img.Reset(rp.state)
	m := rp.img.Exec(rp.state)
	if err := m.LoadInputs(in); err != nil {
		return nil, nil, err
	}
	us := map[string]float64{}
	for i := range rp.leaves {
		t0 := time.Now()
		if err := m.RunBody(&rp.leaves[i]); err != nil {
			return nil, nil, err
		}
		us[rp.kinds[i]] += float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	m.SettleAll()
	return m.TensorsOf(rp.outs), us, nil
}

// runBatchStages executes lanes requests the way Program.runMicroBatch does,
// a span per step. tr may be nil.
func (rp *replay) runBatchStages(tr *Tracer, req int, cell string, st *funcsim.BatchState, ins []map[int]*cimmlc.Tensor) ([]map[int]*cimmlc.Tensor, time.Duration, error) {
	t0 := time.Now()
	root := tr.Start(0, req, "bench.runbatch_replay", cell)
	defer tr.End(root)

	s := tr.Start(root, req, "funcsim.batch.reset", cell)
	rp.img.ResetBatch(st, len(ins))
	bm := rp.img.ExecBatch(st)
	tr.End(s)
	s = tr.Start(root, req, "funcsim.batch.load_inputs", cell)
	for lane, in := range ins {
		if err := bm.LoadInputs(lane, in); err != nil {
			tr.End(s)
			return nil, 0, err
		}
	}
	tr.End(s)
	s = tr.Start(root, req, "funcsim.batch.run_body", cell)
	err := bm.RunBody(rp.body)
	tr.End(s)
	if err != nil {
		return nil, 0, err
	}
	s = tr.Start(root, req, "funcsim.batch.settle", cell)
	bm.SettleAll()
	tr.End(s)
	s = tr.Start(root, req, "funcsim.batch.extract", cell)
	outs := make([]map[int]*cimmlc.Tensor, len(ins))
	for lane := range ins {
		outs[lane] = bm.TensorsOf(lane, rp.outs)
	}
	tr.End(s)
	return outs, time.Since(t0), nil
}

// traceBuilds replays every cell's build, sets the build-stage and static
// flow metrics, and returns the replays (nil for partitioned cells).
// setupMS is the wall time of the real set-up the stages are a part of.
func traceBuilds(tr *Tracer, r *WorkloadResult, cells []*execCell, setupMS float64) ([]*replay, error) {
	rps := make([]*replay, len(cells))
	mops := map[string]float64{}
	words := 0.0
	for i, c := range cells {
		rp, err := replayBuild(tr, -(i + 1), c) // negative: build replays share no ID with requests
		if err != nil {
			return nil, fmt.Errorf("replaying build of %s: %w", c, err)
		}
		rps[i] = rp
		if rp == nil {
			continue
		}
		detail := map[string]float64{"funcsim.mem_words": float64(rp.img.MemWords())}
		for _, k := range rp.kinds {
			mops[k]++
			detail["codegen.mops."+k]++
		}
		words += float64(rp.img.MemWords())
		r.Rows = append(r.Rows, Row{Cell: c.String(), What: "flow", Unit: "count", Detail: detail})
	}
	stageMS, stageSum := map[string]float64{}, 0.0
	for _, s := range tr.Spans() {
		if slices.Contains(buildStages, s.Name) {
			stageMS[s.Name] += float64(s.EndNS-s.StartNS) / 1e6
			stageSum += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	for name, v := range stageMS {
		r.set(name+"_ms", v, len(cells))
	}
	r.set("cimmlc.build.self_ms", setupMS-stageSum, len(cells))
	total := 0.0
	for _, k := range mopKinds {
		r.set("codegen.mops."+k, mops[k], len(cells))
		total += mops[k]
	}
	r.set("codegen.mops", total, len(cells))
	r.set("funcsim.mem_words", words, len(cells))
	return rps, nil
}

// traceExecSetup is the traced runs' set-up: one real build (timed per cell),
// the gate, and the stage-by-stage replay.
func traceExecSetup(cfg runConfig, r *WorkloadResult, tr *Tracer) ([]*execCell, []*replay, error) {
	cfg.Size.SetupReps = 1
	cells, err := execSetup(cfg, r)
	if err != nil {
		return nil, nil, err
	}
	setupMS := 0.0
	for _, c := range cells {
		setupMS += c.buildMS
	}
	rps, err := traceBuilds(tr, r, cells, setupMS)
	return cells, rps, err
}

// cellStageMedians returns, per span name, the median duration (us, divided
// by per) of one cell's spans.
func cellStageMedians(spans []Span, cell string, per float64) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		if s.Cell == cell {
			by[s.Name] = append(by[s.Name], float64(s.EndNS-s.StartNS)/1e3/per)
		}
	}
	out := map[string]float64{}
	for name, vs := range by {
		out[name] = median(vs)
	}
	return out
}

var singleStages = []string{"funcsim.reset", "funcsim.load_inputs", "funcsim.run_body", "funcsim.settle", "funcsim.extract"}

// traceExecSingle runs, cell by cell, a block of plain Program.Run (latency
// rows, allocation and collector figures) and then, input by input, one more
// Run beside the two replays of the same input: runStages for the per-step
// split and runByKind for the per-operator-kind split. Both replays must
// reproduce the verified output bit for bit. The Run beside the replays is
// their base: on a shared host, blocks measured a tenth of a second apart
// differ by more than the self time being measured. A per-layer time is the
// per-cell median summed over the monolithic cells, so the stages add up to
// what one request on each costs.
func traceExecSingle(cfg runConfig, r *WorkloadResult) error {
	tr := newTracer()
	cells, rps, err := traceExecSetup(cfg, r, tr)
	if err != nil {
		return err
	}
	first := len(tr.Spans())
	check := checker(cfg, r)
	plainOp := singleOp(check)
	ctx := context.Background()

	plain := make([][]float64, len(cells))  // Program.Run, the block, us
	paired := make([][]float64, len(cells)) // Program.Run beside the replays, us
	traced := make([][]float64, len(cells)) // replay root (or spanned Run), us
	kindUS := make([]map[string][]float64, len(cells))
	var before, after runtime.MemStats
	plainOps, req := 0, 0
	var allocBytes, pauseNS uint64
	rounds := 0
	for start := time.Now(); rounds < cfg.Size.MinRounds || time.Since(start) < cfg.budget(); rounds++ {
		for ci, c := range cells {
			runtime.ReadMemStats(&before)
			lat := plainOp(c)
			runtime.ReadMemStats(&after)
			allocBytes += after.TotalAlloc - before.TotalAlloc
			pauseNS += after.PauseTotalNs - before.PauseTotalNs
			plainOps += len(lat)
			for _, l := range lat {
				plain[ci] = append(plain[ci], l*1e3)
			}
			if kindUS[ci] == nil {
				kindUS[ci] = map[string][]float64{}
			}
			pairedRun := func(i int, in map[int]*cimmlc.Tensor) {
				t0 := time.Now()
				out, err := c.prog.Run(ctx, in)
				d := time.Since(t0)
				if check(c, i, out, err) {
					paired[ci] = append(paired[ci], us(d))
				}
			}
			for i, in := range c.inputs {
				req++
				pairedRun(i, in)
				if rps[ci] == nil {
					s := tr.Start(0, req, "cimmlc.partitioned.run", c.String())
					out, err := c.prog.Run(ctx, in)
					d := tr.End(s)
					if check(c, i, out, err) {
						traced[ci] = append(traced[ci], us(d))
					}
					continue
				}
				out, d, err := rps[ci].runStages(tr, req, c.String(), in)
				if check(c, i, out, err) {
					traced[ci] = append(traced[ci], us(d))
				}
				// A Run before each replay: every step then follows exactly
				// one step that used the other image and state, so none
				// starts with a colder cache than the one it is compared to.
				pairedRun(i, in)
				out, kinds, err := rps[ci].runByKind(in)
				if check(c, i, out, err) {
					for k, v := range kinds {
						kindUS[ci][k] = append(kindUS[ci][k], v)
					}
				}
			}
		}
	}
	r.Counts["rounds"], r.Counts["cells"] = rounds, len(cells)

	spans := tr.Spans()[first:]
	sums := map[string]float64{}
	var plainP50, tracedP50, p50s, p90s []float64
	var hits, misses uint64
	for ci, c := range cells {
		if len(plain[ci]) == 0 || len(paired[ci]) == 0 || len(traced[ci]) == 0 {
			continue
		}
		p := median(paired[ci])
		plainP50 = append(plainP50, p)
		tracedP50 = append(tracedP50, median(traced[ci]))
		p50s = append(p50s, median(plain[ci]))
		p90s = append(p90s, percentile(plain[ci], 90))
		st := c.prog.Stats()
		hits += st.PoolHits
		misses += st.PoolMisses
		row := Row{Cell: c.String(), What: "run", Unit: "us", Dist: summarize(plain[ci]), Detail: map[string]float64{}}
		if rps[ci] == nil {
			sums["cimmlc.partitioned.run_us"] += median(traced[ci])
			sums["partition.transfers"] += float64(st.Partition.Transfers)
			sums["partition.host_nodes"] += float64(st.Partition.HostNodes)
			r.Rows = append(r.Rows, row)
			continue
		}
		stages := cellStageMedians(spans, c.String(), 1)
		replayed := 0.0
		for _, name := range singleStages {
			sums[name+"_us"] += stages[name]
			row.Detail[name+"_us"] = stages[name]
			replayed += stages[name]
		}
		sums["cimmlc.program.run_self_us"] += p - replayed
		row.Detail["replayed_stages_over_run"] = replayed / p
		for k, vs := range kindUS[ci] {
			sums["funcsim.mop."+k+"_us"] += median(vs)
			row.Detail["funcsim.mop."+k+"_us"] = median(vs)
		}
		r.Rows = append(r.Rows, row)
	}
	for name, v := range sums {
		r.set(name, v, len(cells))
	}
	if hits+misses > 0 {
		r.set("cimmlc.pool.hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	r.set("run.p50_us", geomean(p50s), len(p50s))
	r.set("run.p90_us", geomean(p90s), len(p90s))
	if plainOps > 0 {
		r.set("go.alloc_kb_per_op", float64(allocBytes)/1024/float64(plainOps), plainOps)
	}
	r.set("go.gc_pause_ms", float64(pauseNS)/1e6, plainOps)
	if g := geomean(plainP50); g > 0 {
		r.set("trace.overhead_ratio", geomean(tracedP50)/g, len(plainP50))
	}
	r.fillMissing()
	return writeSpans(cfg.OutDir, r.Workload, tr.Spans())
}

var batchStages = []string{"funcsim.batch.reset", "funcsim.batch.load_inputs", "funcsim.batch.run_body", "funcsim.batch.settle", "funcsim.batch.extract"}

// traceExecBatch alternates, cell by cell, plain RunBatch with a replay of
// the same requests through the batched kernels at the lane count RunBatch
// itself used (read from the Program's counters), and one pass of plain Run
// as the base of the per-cell speed-up. Times are per request. RunBatch
// spreads its micro-batches over workers while the replay runs them one
// after another, so cimmlc.program.runbatch_self_us compares RunBatch's wall
// time with the replay's divided by the micro-batches RunBatch ran at once.
func traceExecBatch(cfg runConfig, r *WorkloadResult) error {
	tr := newTracer()
	cells, rps, err := traceExecSetup(cfg, r, tr)
	if err != nil {
		return err
	}
	first := len(tr.Spans())
	check := checker(cfg, r)
	plainOp, baseOp := batchOp(check), singleOp(check)
	n := float64(cfg.Size.Inputs)

	type acc struct {
		batchUS, singleUS, tracedUS, untracedUS []float64 // per request
		lanes, parallel                         float64
		stats                                   cimmlc.ProgramStats
	}
	accs := make([]acc, len(cells))
	states := make([]*funcsim.BatchState, len(cells))
	req, rounds := 0, 0
	for start := time.Now(); rounds < cfg.Size.MinRounds || time.Since(start) < cfg.budget(); rounds++ {
		for ci, c := range cells {
			a := &accs[ci]
			s0 := c.prog.Stats()
			lat := plainOp(c)
			s1 := c.prog.Stats()
			for _, l := range lat {
				a.batchUS = append(a.batchUS, l*1e3/n)
			}
			a.stats.Requests += s1.Requests - s0.Requests
			a.stats.BatchedRequests += s1.BatchedRequests - s0.BatchedRequests
			a.stats.BatchRuns += s1.BatchRuns - s0.BatchRuns
			if lat := baseOp(c); len(lat) > 0 {
				a.singleUS = append(a.singleUS, median(lat)*1e3)
			}
			runs := s1.BatchRuns - s0.BatchRuns
			if rps[ci] == nil || runs == 0 {
				continue // per-request fallback: no batched kernels ran
			}
			a.lanes = math.Round(float64(s1.BatchedRequests-s0.BatchedRequests) / float64(runs))
			a.parallel = float64(min(runs, uint64(runtime.GOMAXPROCS(0))))
			lanes := int(a.lanes)
			if states[ci] == nil {
				states[ci] = rps[ci].img.NewBatchState(lanes)
			}
			for lo := 0; lo < len(c.inputs); lo += lanes {
				hi := min(lo+lanes, len(c.inputs))
				for _, t := range []*Tracer{tr, nil} {
					req++
					outs, d, err := rps[ci].runBatchStages(t, req, c.String(), states[ci], c.inputs[lo:hi])
					ok := true
					for i := lo; i < hi; i++ {
						var out map[int]*cimmlc.Tensor
						if err == nil {
							out = outs[i-lo]
						}
						ok = check(c, i, out, err) && ok
					}
					if !ok {
						continue
					}
					if t != nil {
						a.tracedUS = append(a.tracedUS, us(d)/float64(hi-lo))
					} else {
						a.untracedUS = append(a.untracedUS, us(d)/float64(hi-lo))
					}
				}
			}
		}
	}
	r.Counts["rounds"], r.Counts["cells"] = rounds, len(cells)

	spans := tr.Spans()[first:]
	sums := map[string]float64{}
	var speedups, tracedP50, untracedP50 []float64
	var reqs, batched, runs uint64
	for ci, c := range cells {
		a := &accs[ci]
		if len(a.batchUS) == 0 {
			continue
		}
		reqs += a.stats.Requests
		batched += a.stats.BatchedRequests
		runs += a.stats.BatchRuns
		p := median(a.batchUS)
		row := Row{Cell: c.String(), What: "runbatch per request", Unit: "us", Dist: summarize(a.batchUS), Detail: map[string]float64{
			"cimmlc.batch.batched_ratio": float64(a.stats.BatchedRequests) / float64(max(a.stats.Requests, 1)),
			"cimmlc.batch.lanes":         a.lanes,
		}}
		if len(a.singleUS) > 0 {
			row.Detail["cimmlc.batch.speedup_vs_single"] = median(a.singleUS) / p
			speedups = append(speedups, median(a.singleUS)/p)
		}
		if len(a.tracedUS) > 0 && len(a.untracedUS) > 0 {
			tracedP50 = append(tracedP50, median(a.tracedUS))
			untracedP50 = append(untracedP50, median(a.untracedUS))
			stages := cellStageMedians(spans, c.String(), a.lanes)
			replayed := 0.0
			for _, name := range batchStages {
				sums[name+"_us"] += stages[name]
				row.Detail[name+"_us"] = stages[name]
				replayed += stages[name]
			}
			sums["cimmlc.program.runbatch_self_us"] += p - replayed/a.parallel
		}
		r.Rows = append(r.Rows, row)
	}
	for name, v := range sums {
		r.set(name, v, len(cells))
	}
	if reqs > 0 {
		r.set("cimmlc.batch.batched_ratio", float64(batched)/float64(reqs), int(reqs))
	}
	if runs > 0 {
		r.set("cimmlc.batch.mean_lanes", float64(batched)/float64(runs), int(runs))
	}
	r.set("cimmlc.batch.speedup_vs_single", geomean(speedups), len(speedups))
	if g := geomean(untracedP50); g > 0 {
		r.set("trace.overhead_ratio", geomean(tracedP50)/g, len(untracedP50))
	}
	r.fillMissing()
	return writeSpans(cfg.OutDir, r.Workload, tr.Spans())
}
