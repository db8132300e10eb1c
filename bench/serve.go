package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cimmlc"
	"cimmlc/serving"
	"cimmlc/serving/fleet"
)

// batchCfg is cimserve's default batcher: flush at 8 requests or 2 ms after
// the first, whichever comes first.
var batchCfg = serving.BatcherConfig{MaxBatch: 8, MaxDelay: 2 * time.Millisecond}

// serveSpec is one HTTP workload: the traffic mix and how the gateway behind
// it is assembled.
type serveSpec struct {
	name  string
	pairs []cell
	// fleet serves every pair through a 2-replica fleet on a
	// stationary-weights registry with jia-small registered, as
	// "cimserve -replicas 2" would; otherwise one Batcher per pair.
	fleet bool
}

var (
	serveHTTP = serveSpec{name: "serve-http", pairs: []cell{
		{"conv-relu", "toy-table2"}, // 34 KB request, 16 K-float response: the codec-bound pair
		{"lenet5", "puma"},          // 8.8 KB request, 10 floats back
		{"mlp", "isaac-baseline"},   // smallest kernels: almost all queue wait
	}}
	serveFleet = serveSpec{name: "serve-fleet", fleet: true, pairs: []cell{
		{"conv-relu", "toy-table2"}, // replicated
		{"lenet5", "puma"},          // replicated
		{"mlp", jiaSmallName},       // over one chip's capacity: 2-stage pipeline, no Batcher
	}}
)

func runServeHTTP(cfg runConfig) (*WorkloadResult, error)  { return runServe(cfg, serveHTTP) }
func runServeFleet(cfg runConfig) (*WorkloadResult, error) { return runServe(cfg, serveFleet) }

// pair is one (model, arch) of the mix with its pre-encoded request bodies.
type pair struct {
	cell
	inputs []map[int]*cimmlc.Tensor
	bodies [][]byte
	want   []uint64 // hash of each input's verified response bytes
}

// gateway is one live serving stack: registry, Server, listener.
type gateway struct {
	reg    *serving.Registry
	gw     *serving.Server
	srv    *http.Server
	url    string
	served chan error

	// Traced gateways only: the span-recording runner of every pair.
	mu      sync.Mutex
	runners map[string]*tracedRunner
}

type spanKey struct{}

// tracedRunner records a span around the real runner's Do, child of the
// handler span the middleware put in the request's context.
type tracedRunner struct {
	serving.Runner
	tr   *Tracer
	cell string
}

func (t *tracedRunner) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	ids, _ := ctx.Value(spanKey{}).([2]int)
	s := t.tr.Start(ids[0], ids[1], "serving.runner.do", t.cell)
	defer t.tr.End(s)
	return t.Runner.Do(ctx, inputs)
}

// newGateway is the serve-* set-up: registry, Server, the runner of every
// pair built, listener accepting. With tr set, the handler is wrapped in a
// middleware and every runner in a tracedRunner; the program is untouched.
func newGateway(spec serveSpec, tr *Tracer) (*gateway, error) {
	ctx := context.Background()
	g := &gateway{served: make(chan error, 1), runners: map[string]*tracedRunner{}}
	opts := []serving.RegistryOption{serving.WithWeightSeed(weightSeed), serving.WithHostFallback()}
	if spec.fleet {
		opts = append(opts, serving.WithStationaryWeights())
	}
	g.reg = serving.NewRegistry(opts...)
	scfg := serving.ServerConfig{Batch: batchCfg}
	if spec.fleet {
		a, err := cell{Arch: jiaSmallName}.arch()
		if err != nil {
			return nil, err
		}
		if err := g.reg.RegisterArch(a); err != nil {
			return nil, err
		}
		scfg.Runner = fleet.Factory(fleet.Config{Replicas: 2, MinReplicas: 2, Batcher: batchCfg})
	}
	if tr != nil {
		inner := scfg.Runner
		if inner == nil {
			inner = func(ctx context.Context, reg *serving.Registry, model, arch string) (serving.Runner, error) {
				p, err := reg.Get(ctx, model, arch)
				if err != nil {
					return nil, err
				}
				return serving.NewBatcher(p, batchCfg), nil
			}
		}
		scfg.Runner = func(ctx context.Context, reg *serving.Registry, model, arch string) (serving.Runner, error) {
			run, err := inner(ctx, reg, model, arch)
			if err != nil {
				return nil, err
			}
			t := &tracedRunner{Runner: run, tr: tr, cell: cell{model, arch}.String()}
			g.mu.Lock()
			g.runners[t.cell] = t
			g.mu.Unlock()
			return t, nil
		}
	}
	g.gw = serving.NewServer(g.reg, scfg)
	for _, p := range spec.pairs {
		if _, err := g.gw.Runner(ctx, p.Model, p.Arch); err != nil {
			g.gw.Close()
			return nil, fmt.Errorf("runner for %s: %w", p, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.gw.Close()
		return nil, err
	}
	handler := g.gw.Handler()
	if tr != nil {
		next := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var parent, req int
			fmt.Sscanf(r.Header.Get("X-Bench-Req"), "%d,%d", &req, &parent)
			s := tr.Start(parent, req, "serving.handler", r.Header.Get("X-Bench-Cell"))
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, [2]int{s, req})))
			tr.End(s)
		})
	}
	g.srv = &http.Server{Handler: handler}
	g.url = "http://" + ln.Addr().String() + "/v1/run"
	go func() { g.served <- g.srv.Serve(ln) }()
	return g, nil
}

// close stops the listener, drains the runners and waits for Serve to return.
func (g *gateway) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g.srv.Shutdown(ctx)
	g.gw.Close()
	<-g.served
}

func newPairs(spec serveSpec, cfg runConfig) ([]*pair, error) {
	rng := newRand(cfg.Seed, 4)
	pairs := make([]*pair, len(spec.pairs))
	for i, c := range spec.pairs {
		g, err := cimmlc.Model(c.Model)
		if err != nil {
			return nil, err
		}
		schema, err := graphSchema(g)
		if err != nil {
			return nil, err
		}
		p := &pair{cell: c, inputs: seededInputs(schema, rng, cfg.Size.Inputs)}
		for _, in := range p.inputs {
			req := serving.RunRequest{Model: c.Model, Arch: c.Arch, Inputs: map[string]serving.JSONTensor{}}
			for id, t := range in {
				req.Inputs[strconv.Itoa(id)] = serving.JSONTensor{Shape: t.Shape(), Data: t.Data()}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			p.bodies = append(p.bodies, body)
		}
		pairs[i] = p
	}
	return pairs, nil
}

// reference builds the executable the gate verifies for one pair: the
// registry's own Program behind a Batcher, or what a fleet replica would
// build — a fresh Program, or a Pipeline when the model exceeds one chip.
func reference(spec serveSpec, reg *serving.Registry, c cell) (v verifier, exact bool, err error) {
	ctx := context.Background()
	if !spec.fleet {
		p, err := reg.Get(ctx, c.Model, c.Arch)
		if err != nil {
			return nil, false, err
		}
		return p, p.Stats().Partition == nil, nil
	}
	p, err := reg.BuildProgram(ctx, c.Model, c.Arch, cimmlc.WithWorkers(1))
	if errors.Is(err, cimmlc.ErrOverCapacity) {
		pl, err := reg.BuildPipeline(ctx, c.Model, c.Arch, 0, cimmlc.WithWorkers(1))
		return pl, false, err
	}
	if err != nil {
		return nil, false, err
	}
	return p, p.Stats().Partition == nil, nil
}

// post sends one request body and returns the status and the response bytes,
// read into buf.
func post(client *http.Client, url string, body []byte, header http.Header, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header = header
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}

// gateServe verifies every distinct input of every pair against the
// reference executable, then sends it over HTTP once and requires the
// decoded response to be bit-identical to the verified output; the hash of
// those response bytes is what every timed response must reproduce. It
// returns the reference executables for the traced run's kernel replay.
func gateServe(r *WorkloadResult, spec serveSpec, g *gateway, pairs []*pair) ([]verifier, error) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	header := http.Header{"Content-Type": {"application/json"}}
	var buf bytes.Buffer
	refs := make([]verifier, len(pairs))
	for pi, p := range pairs {
		v, exact, err := reference(spec, g.reg, p.cell)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", p, err)
		}
		refs[pi] = v
		outs := gate(r, p.String(), v, exact, p.inputs)
		p.want = make([]uint64, len(p.inputs))
		for i, out := range outs {
			if out == nil {
				continue
			}
			r.Attempted++
			status, err := post(client, g.url, p.bodies[i], header, &buf)
			if err != nil || status != http.StatusOK {
				r.fail("%s input %d: HTTP status %d: %v", p, i, status, err)
				continue
			}
			var resp serving.RunResponse
			if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
				r.fail("%s input %d: decoding response: %v", p, i, err)
				continue
			}
			got := map[int]*cimmlc.Tensor{}
			for key, jt := range resp.Outputs {
				id, _ := strconv.Atoi(key)
				if t, err := cimmlc.TensorFromSlice(jt.Data, jt.Shape...); err == nil {
					got[id] = t
				}
			}
			if hashTensors(got) != hashTensors(out) {
				r.fail("%s input %d: HTTP response differs from the verified output", p, i)
				continue
			}
			p.want[i] = hashBytes(buf.Bytes())
		}
	}
	return refs, nil
}

// sample is one timed request.
type sample struct {
	pair    int
	ms      float64
	endNS   int64  // since the drive started
	err     string // empty for a correct response
	reqKB   float64
	respKB  float64
	spanReq int
}

// account counts the samples as attempted operations and the wrong or
// failed ones as failed.
func (r *WorkloadResult) account(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if s.err != "" {
			r.fail("%s", s.err)
		}
	}
}

// drive runs a closed loop: clients keep-alive connections, each sending its
// next request only when the previous reply has been read to the last byte —
// callers that wait for a reply. The mix cycles through every distinct input
// of every pair in a seed-shuffled order, so the pairs are sent 1:1:1. It
// stops handing out requests once stop(i) is true. busy is the share of the
// clients' time spent outside http.Client.Do and reading the reply.
func drive(url string, pairs []*pair, order [][2]int, clients int, tr *Tracer, stop func(i int) bool) (samples []sample, busy float64) {
	var next, busyNS atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			var mine []sample
			idle := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if stop(i) {
					break
				}
				pi, ii := order[i%len(order)][0], order[i%len(order)][1]
				p := pairs[pi]
				header := http.Header{"Content-Type": {"application/json"}}
				span := 0
				if tr != nil {
					span = tr.Start(0, i+1, "net.roundtrip", p.String())
					header.Set("X-Bench-Req", fmt.Sprintf("%d,%d", i+1, span))
					header.Set("X-Bench-Cell", p.String())
				}
				t0 := time.Now()
				status, err := post(client, url, p.bodies[ii], header, &buf)
				t1 := time.Now()
				tr.End(span)
				s := sample{pair: pi, ms: ms(t1.Sub(t0)), endNS: t1.Sub(start).Nanoseconds(),
					reqKB: float64(len(p.bodies[ii])) / 1024, respKB: float64(buf.Len()) / 1024, spanReq: i + 1}
				switch {
				case err != nil || status != http.StatusOK:
					s.err = fmt.Sprintf("%s input %d: HTTP status %d: %v", p, ii, status, err)
				case hashBytes(buf.Bytes()) != p.want[ii]:
					s.err = fmt.Sprintf("%s input %d: response differs from the verified bytes", p, ii)
				}
				mine = append(mine, s)
				busyNS.Add(t0.Sub(idle).Nanoseconds() + time.Since(t1).Nanoseconds())
				idle = time.Now()
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, float64(busyNS.Load()) / float64(time.Since(start).Nanoseconds()*int64(clients))
}

// schedule lists every (pair, input) once, shuffled by the seed.
func schedule(pairs []*pair, cfg runConfig) [][2]int {
	var order [][2]int
	for pi, p := range pairs {
		for ii := range p.inputs {
			order = append(order, [2]int{pi, ii})
		}
	}
	newRand(cfg.Seed, 5).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// timedDrive warms the gateway up and then drives it for d.
func timedDrive(cfg runConfig, r *WorkloadResult, g *gateway, pairs []*pair, tr *Tracer, d time.Duration) ([]sample, float64) {
	order := schedule(pairs, cfg)
	clients := runtime.NumCPU()
	warm, _ := drive(g.url, pairs, order, clients, nil, func(i int) bool { return i >= cfg.Size.WarmupReqs })
	r.account(warm)
	runtime.GC()
	deadline := time.Now().Add(d)
	samples, busy := drive(g.url, pairs, order, clients, tr, func(int) bool { return !time.Now().Before(deadline) })
	r.account(samples)
	r.Counts["clients"], r.Counts["warmup_requests"], r.Counts["requests"] = clients, len(warm), len(samples)
	return samples, busy
}

// pairLatencies splits the correct samples' latencies by pair, in the order
// the responses completed.
func pairLatencies(samples []sample, n int) (perPair [][]float64, pooled []float64) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].endNS < samples[j].endNS })
	perPair = make([][]float64, n)
	for _, s := range samples {
		if s.err == "" {
			perPair[s.pair] = append(perPair[s.pair], s.ms)
			pooled = append(pooled, s.ms)
		}
	}
	return perPair, pooled
}

// pairQuiet returns every pair's median and mean round trip (ms) in its
// quietest windows.
func pairQuiet(perPair [][]float64) (medians, means []float64) {
	for _, lat := range perPair {
		if len(lat) > 0 {
			med, mean := quietest(lat, quietWindow)
			medians, means = append(medians, med), append(means, mean)
		}
	}
	return medians, means
}

// runServe measures /v1/run end to end: op_ms_gm is the geometric mean of the
// pairs' median round trips in their quietest windows, tail_ms the slowest
// pair's, ops_per_s the geometric mean of the rates the closed loop sustains
// there: clients over the window's mean round trip.
func runServe(cfg runConfig, spec serveSpec) (*WorkloadResult, error) {
	r := newResult(spec.name, cfg.Trace)
	pairs, err := newPairs(spec, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return r, traceServe(cfg, r, spec, pairs)
	}
	g, err := setup(r, cfg.Size.SetupReps, func() (*gateway, error) { return newGateway(spec, nil) }, (*gateway).close)
	if err != nil {
		return nil, err
	}
	defer g.close()
	if _, err := gateServe(r, spec, g, pairs); err != nil {
		return nil, err
	}
	if err := setSim(r, spec.pairs); err != nil {
		return nil, err
	}
	samples, busy := timedDrive(cfg, r, g, pairs, nil, cfg.budget())
	r.GeneratorCPUShare = busy

	perPair, pooled := pairLatencies(samples, len(pairs))
	for pi, p := range pairs {
		r.Rows = append(r.Rows, Row{Cell: p.String(), What: "roundtrip", Unit: "ms", Dist: summarize(perPair[pi])})
	}
	if len(pooled) == 0 {
		return r, fmt.Errorf("%s: no request succeeded", spec.name)
	}
	r.Rows = append(r.Rows, Row{Cell: "all pairs", What: "roundtrip", Unit: "ms", Dist: summarize(pooled)})
	quiet, means := pairQuiet(perPair)
	rates := make([]float64, len(means))
	for i, mean := range means {
		rates[i] = float64(r.Counts["clients"]) * 1e3 / mean
	}
	r.set("op_ms_gm", geomean(quiet), len(pooled))
	r.set("tail_ms", slowCells(quiet), len(pooled))
	r.set("ops_per_s", geomean(rates), len(pooled))
	return r, nil
}

// traceServe drives an untraced gateway for half the budget and a traced one
// for the other half. In the traced one the client's round trip, the
// handler (middleware) and the runner's Do (wrapper) are nested spans of one
// live request, tied together by the X-Bench-Req header; kernel time is a
// replayed Run of the same inputs on the gate's reference executable.
func traceServe(cfg runConfig, r *WorkloadResult, spec serveSpec, pairs []*pair) error {
	half := cfg.budget() / 2
	plain, err := newGateway(spec, nil)
	if err != nil {
		return err
	}
	refs, err := gateServe(r, spec, plain, pairs)
	if err != nil {
		plain.close()
		return err
	}
	samples, _ := timedDrive(cfg, r, plain, pairs, nil, half)
	plain.close()
	plainPairs, _ := pairLatencies(samples, len(pairs))

	tr := newTracer()
	t0 := time.Now()
	g, err := newGateway(spec, tr)
	if err != nil {
		return err
	}
	setupMS := ms(time.Since(t0))
	defer g.close()
	builds := g.reg.Builds()
	samples, busy := timedDrive(cfg, r, g, pairs, tr, half)
	r.GeneratorCPUShare = busy
	spans := tr.Spans()

	// Kernel time: the reference executable's Run on every input, per pair.
	execP50 := make([]float64, len(pairs))
	for pi, p := range pairs {
		var runs []float64
		for _, in := range p.inputs {
			t0 := time.Now()
			if _, err := refs[pi].Run(context.Background(), in); err == nil {
				runs = append(runs, ms(time.Since(t0)))
			}
		}
		execP50[pi] = median(runs)
	}

	// One row of three nested durations per correct request.
	type trip struct{ rt, handler, do float64 }
	trips := map[int]*trip{}
	for _, s := range spans {
		t := trips[s.Req]
		if t == nil {
			t = &trip{}
			trips[s.Req] = t
		}
		d := float64(s.EndNS-s.StartNS) / 1e6
		switch s.Name {
		case "net.roundtrip":
			t.rt = d
		case "serving.handler":
			t.handler = d
		case "serving.runner.do":
			t.do = d
		}
	}
	var net, codec, do, wait, exec, reqKB, respKB []float64
	nested := 0
	for _, s := range samples {
		t := trips[s.spanReq]
		if s.err != "" || t == nil || t.handler == 0 || t.do == 0 {
			continue
		}
		if t.rt >= t.handler && t.handler >= t.do {
			nested++
		}
		net = append(net, t.rt-t.handler)
		codec = append(codec, t.handler-t.do)
		do = append(do, t.do)
		wait = append(wait, t.do-execP50[s.pair])
		exec = append(exec, execP50[s.pair])
		reqKB = append(reqKB, s.reqKB)
		respKB = append(respKB, s.respKB)
	}
	if len(do) == 0 {
		return fmt.Errorf("%s: no traced request completed", spec.name)
	}
	r.Counts["nested_spans_permille"] = nested * 1000 / len(do)
	r.set("net.roundtrip_self_ms", median(net), len(net))
	r.set("serving.codec_ms", median(codec), len(codec))
	r.set("serving.runner_do_ms", median(do), len(do))
	r.set("serving.batcher.wait_ms", median(wait), len(wait))
	r.set("serving.exec_ms", median(exec), len(exec))
	r.set("serving.request_kb", sum(reqKB)/float64(len(reqKB)), len(reqKB))
	r.set("serving.response_kb", sum(respKB)/float64(len(respKB)), len(respKB))
	r.set("serving.registry.builds", float64(builds), len(pairs))

	perPair, pooled := pairLatencies(samples, len(pairs))
	for pi, p := range pairs {
		r.Rows = append(r.Rows, Row{Cell: p.String(), What: "roundtrip", Unit: "ms", Dist: summarize(perPair[pi]),
			Detail: map[string]float64{"serving.exec_ms": execP50[pi]}})
	}
	r.set("serve.p50_ms", median(pooled), len(pooled))
	r.set("serve.p99_ms", percentile(pooled, 99), len(pooled))
	plainQuiet, _ := pairQuiet(plainPairs)
	tracedQuiet, _ := pairQuiet(perPair)
	if base := geomean(plainQuiet); base > 0 {
		r.set("trace.overhead_ratio", geomean(tracedQuiet)/base, len(pooled))
	}

	var bs serving.BatcherStats
	var scale, stages float64
	imbalance := 0.0
	for _, t := range g.runners {
		switch run := t.Runner.(type) {
		case *serving.Batcher:
			st := run.Stats()
			bs.Requests += st.Requests
			bs.Batches += st.Batches
			bs.SizeFlushes += st.SizeFlushes
			bs.DeadlineFlushes += st.DeadlineFlushes
			bs.IsolationFallbacks += st.IsolationFallbacks
		case *fleet.Fleet:
			st := run.State()
			scale += float64(st.ScaleUps + st.ScaleDowns)
			stages = max(stages, float64(st.Stages))
			lo, hi := math.Inf(1), 0.0
			for _, rep := range st.Replicas {
				lo, hi = min(lo, float64(rep.Served)), max(hi, float64(rep.Served))
			}
			if lo > 0 {
				imbalance = max(imbalance, hi/lo)
			}
		}
	}
	if bs.Batches > 0 {
		r.set("serving.batcher.mean_batch", float64(bs.Requests)/float64(bs.Batches), int(bs.Batches))
		r.set("serving.batcher.size_flush_share", float64(bs.SizeFlushes)/float64(bs.Batches), int(bs.Batches))
		r.set("serving.batcher.deadline_flush_share", float64(bs.DeadlineFlushes)/float64(bs.Batches), int(bs.Batches))
		r.set("serving.batcher.isolation_fallbacks", float64(bs.IsolationFallbacks), int(bs.Batches))
	}
	if spec.fleet {
		r.set("fleet.do_ms", median(do), len(do))
		r.set("fleet.replica_imbalance", imbalance, len(pairs))
		r.set("fleet.pipeline_stages", stages, len(pairs))
		r.set("fleet.scale_events", scale, len(pairs))
	}

	// Build stages, replayed for the pairs outside the gateway.
	cells, err := newExecCells(spec.pairs, cfg)
	if err != nil {
		return err
	}
	if _, err := traceBuilds(tr, r, cells, setupMS); err != nil {
		return err
	}
	r.fillMissing()
	return writeSpans(cfg.OutDir, r.Workload, tr.Spans())
}
