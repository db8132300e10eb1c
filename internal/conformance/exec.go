package conformance

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"time"

	"cimmlc"
	"cimmlc/serving"
	"cimmlc/serving/fleet"
)

// runExecBattery checks one cell's seeded requests against the independent
// oracle and then through every way the system carries a request to the one
// executor. Every request must verify bit-exactly against the quantized
// reference executor (Program.Verify; the float-reference tolerance applies
// to the calibration request only — it does not hold far from the
// calibration point), and its Program.Run output, hashed into the golden, is
// what every carrier must reproduce bit for bit:
//
//   - Program.RunBatch across a worker pool, two batches at once
//   - Program.RunBatch on a widened batch whose every request must share a
//     micro-batch of two or more lanes (the program's counters prove it)
//   - a serving.Batcher flushed by concurrent client goroutines
//   - HTTP POST /v1/run against the gateway with JSON tensors
//   - a 2-replica serving fleet routing the concurrent requests
//
// plus a rebuild of the same cell under WithHostFallback that must
// reproduce every output (it cuts the graph exactly as the reference build
// did), and, for a staged program, checkPartition. It returns the output
// hash and any violations, and for a one-stage program the flow's
// meta-operator counts.
func runExecBattery(ctx context.Context, c *cimmlc.Compiler, g *cimmlc.Graph, a *cimmlc.Arch, cell Cell, cfg Config) (mops *MOPCounts, hash string, violations []string) {
	key := cell.Key()
	// failf records one violation and returns whatever mops/hash were
	// computed before the failure, so an aborted battery does not also
	// masquerade as golden drift on those fields.
	failf := func(format string, args ...any) (*MOPCounts, string, []string) {
		return mops, hash, append(violations, fmt.Sprintf("%s: %s", key, fmt.Sprintf(format, args...)))
	}

	w := cimmlc.RandomWeights(g, cfg.Seed)
	reqs := seededRequests(g, cfg.Requests, cfg.Seed)
	calib := reqs[0]

	p, err := c.Build(ctx, g, w, cimmlc.CodegenOptions{},
		cimmlc.WithCalibration(calib), cimmlc.WithWorkers(4))
	if err != nil {
		return failf("build: %v", err)
	}
	if fr := p.Flow(); fr != nil {
		st := fr.Flow.Stats()
		mops = &MOPCounts{CIM: st.CIMOps, DCOM: st.DCOMOps, DMOV: st.DMOVOps, Parallel: st.ParallelOps}
	}

	// Every request, one lane at a time: differential against the quantized
	// reference executor (the role the digital reference plays in Kourtis et
	// al.), then the output the other legs are held to.
	base := make([]map[int]*cimmlc.Tensor, len(reqs))
	for i, req := range reqs {
		floatTol := math.Inf(1)
		if i == 0 {
			floatTol = 0.05
		}
		if err := p.Verify(ctx, req, floatTol); err != nil {
			violations = append(violations, fmt.Sprintf("%s: Verify request %d against reference executors: %v", key, i, err))
		}
		out, err := p.Run(ctx, req)
		if err != nil {
			return failf("Program.Run request %d: %v", i, err)
		}
		base[i] = out
	}
	hash = hashOutputs(base)

	// Host-fallback rebuild: the partitioner cuts only what the chip cannot
	// run, so a fresh host-fallback build must cut the graph exactly as the
	// reference build did — a fully supported graph stays monolithic, a mixed
	// one gets the same plan and latency decomposition — and every output
	// bit must match the reference build.
	if cfg.PartitionCheck {
		violations = append(violations, checkPartition(ctx, c, g, p, cell)...)
		hopts, _ := cellOptions(cell, cimmlc.WithHostFallback())
		hc, err := cimmlc.New(a, hopts...)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: host-fallback compiler: %v", key, err))
		} else if hp, err := hc.Build(ctx, g, w, cimmlc.CodegenOptions{},
			cimmlc.WithCalibration(calib), cimmlc.WithWorkers(4)); err != nil {
			violations = append(violations, fmt.Sprintf("%s: host-fallback build: %v", key, err))
		} else {
			if got, want := hp.Stats().Partition, p.Stats().Partition; !reflect.DeepEqual(got, want) {
				violations = append(violations, fmt.Sprintf("%s: host-fallback rebuild reports partition stats %+v, reference build %+v", key, got, want))
			}
			for i, req := range reqs {
				out, err := hp.Run(ctx, req)
				if err != nil {
					violations = append(violations, fmt.Sprintf("%s: host-fallback Program.Run request %d: %v", key, i, err))
					break
				}
				if d := firstOutputDiff(out, base[i]); d != "" {
					violations = append(violations, fmt.Sprintf("%s: host-fallback request %d diverges from reference: %s", key, i, d))
					break
				}
			}
		}
	}

	// Concurrent RunBatch: two simultaneous batches over the same Program,
	// exercising the pooled-state path under contention (and the race
	// detector when enabled).
	var wg sync.WaitGroup
	batchOuts := make([][]map[int]*cimmlc.Tensor, 2)
	batchErrs := make([]error, 2)
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batchOuts[b], batchErrs[b] = p.RunBatch(ctx, reqs)
		}(b)
	}
	wg.Wait()
	for b := 0; b < 2; b++ {
		if batchErrs[b] != nil {
			violations = append(violations, fmt.Sprintf("%s: RunBatch #%d: %v", key, b, batchErrs[b]))
			continue
		}
		for i := range reqs {
			if d := firstOutputDiff(batchOuts[b][i], base[i]); d != "" {
				violations = append(violations, fmt.Sprintf("%s: RunBatch #%d request %d diverges: %s", key, b, i, d))
				break
			}
		}
	}

	// Wide micro-batches: replicate the seeded requests until every worker
	// gets at least two lanes per micro-batch, then demand (a) the program's
	// counters prove every request shared a micro-batch and (b) every lane is
	// bit-identical to its one-lane run.
	wide := make([]map[int]*cimmlc.Tensor, 0, 4*len(reqs))
	for r := 0; r < 4; r++ {
		wide = append(wide, reqs...)
	}
	bBefore := p.Stats()
	wideOuts, err := p.RunBatch(ctx, wide)
	if err != nil {
		violations = append(violations, fmt.Sprintf("%s: batched RunBatch: %v", key, err))
	} else {
		for i := range wide {
			if d := firstOutputDiff(wideOuts[i], base[i%len(reqs)]); d != "" {
				violations = append(violations, fmt.Sprintf("%s: batched RunBatch request %d diverges: %s", key, i, d))
				break
			}
		}
		if got := p.Stats().BatchedRequests - bBefore.BatchedRequests; got != uint64(len(wide)) {
			violations = append(violations, fmt.Sprintf("%s: batched RunBatch served %d of %d requests in micro-batches of two or more lanes", key, got, len(wide)))
		}
	}

	// Micro-batching queue under concurrent clients.
	batcher := serving.NewBatcher(p, serving.BatcherConfig{MaxBatch: 3})
	qOuts := make([]map[int]*cimmlc.Tensor, len(reqs))
	qErrs := make([]error, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qOuts[i], qErrs[i] = batcher.Do(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	batcher.Close()
	for i := range reqs {
		if qErrs[i] != nil {
			violations = append(violations, fmt.Sprintf("%s: Batcher.Do request %d: %v", key, i, qErrs[i]))
		} else if d := firstOutputDiff(qOuts[i], base[i]); d != "" {
			violations = append(violations, fmt.Sprintf("%s: Batcher request %d diverges: %s", key, i, d))
		}
	}

	// HTTP gateway path: a registry serving this exact (graph, weights,
	// calibration) under the cell's mode-overridden architecture.
	violations = append(violations, runHTTPPath(ctx, g, a, w, calib, reqs, base, cell)...)

	return mops, hash, violations
}

// runHTTPPath round-trips every request through POST /v1/run and compares
// the wire outputs bit-for-bit (float32 JSON encoding round-trips exactly).
func runHTTPPath(ctx context.Context, g *cimmlc.Graph, a *cimmlc.Arch, w cimmlc.Weights, calib map[int]*cimmlc.Tensor, reqs []map[int]*cimmlc.Tensor, base []map[int]*cimmlc.Tensor, cell Cell) []string {
	var violations []string
	key := cell.Key()
	_, regOpts := cellOptions(cell)

	archName := fmt.Sprintf("%s@%s", cell.Arch, cell.Level)
	ga := a.Clone()
	ga.Name = archName
	reg := serving.NewRegistry(append([]serving.RegistryOption{
		serving.WithModelSource(func(name string) (*cimmlc.Graph, cimmlc.Weights, error) {
			if name != cell.Model {
				return nil, nil, fmt.Errorf("conformance source serves only %q", cell.Model)
			}
			return g.Clone(), w, nil
		}),
		serving.WithBuildOptions(cimmlc.WithCalibration(calib), cimmlc.WithWorkers(2)),
	}, regOpts...)...)
	if err := reg.RegisterArch(ga); err != nil {
		return append(violations, fmt.Sprintf("%s: gateway RegisterArch: %v", key, err))
	}
	srv := serving.NewServer(reg, serving.ServerConfig{
		Batch:          serving.BatcherConfig{MaxBatch: 2},
		RequestTimeout: 2 * time.Minute,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i, req := range reqs {
		body := serving.RunRequest{Model: cell.Model, Arch: archName, Inputs: map[string]serving.JSONTensor{}}
		for id, t := range req {
			body.Inputs[strconv.Itoa(id)] = serving.JSONTensor{Shape: t.Shape(), Data: t.Data()}
		}
		data, err := json.Marshal(body)
		if err != nil {
			return append(violations, fmt.Sprintf("%s: gateway request %d marshal: %v", key, i, err))
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(data))
		if err != nil {
			return append(violations, fmt.Sprintf("%s: gateway request %d: %v", key, i, err))
		}
		resp, err := ts.Client().Do(hreq)
		if err != nil {
			return append(violations, fmt.Sprintf("%s: gateway request %d: %v", key, i, err))
		}
		var rr serving.RunResponse
		decErr := json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return append(violations, fmt.Sprintf("%s: gateway request %d: HTTP %d", key, i, resp.StatusCode))
		}
		if decErr != nil {
			return append(violations, fmt.Sprintf("%s: gateway request %d decode: %v", key, i, decErr))
		}
		got := map[int]*cimmlc.Tensor{}
		for idStr, jt := range rr.Outputs {
			id, err := strconv.Atoi(idStr)
			if err != nil {
				return append(violations, fmt.Sprintf("%s: gateway request %d: bad output key %q", key, i, idStr))
			}
			t, err := cimmlc.TensorFromSlice(jt.Data, jt.Shape...)
			if err != nil {
				return append(violations, fmt.Sprintf("%s: gateway request %d output %d: %v", key, i, id, err))
			}
			got[id] = t
		}
		if d := firstOutputDiff(got, base[i]); d != "" {
			violations = append(violations, fmt.Sprintf("%s: HTTP /v1/run request %d diverges: %s", key, i, d))
		}
	}

	// Fleet path: the same registry behind a 2-replica fleet. The fleet
	// builds its own Program from the shared deterministic source and its
	// replicas are views of it, so however the router spreads the concurrent
	// requests the outputs must stay bit-identical to the reference.
	fl, err := fleet.New(ctx, reg, fleet.Config{Model: cell.Model, Arch: archName, Replicas: 2,
		Batcher: serving.BatcherConfig{MaxBatch: 2}})
	if err != nil {
		return append(violations, fmt.Sprintf("%s: fleet build: %v", key, err))
	}
	defer fl.Close()
	fOuts := make([]map[int]*cimmlc.Tensor, len(reqs))
	fErrs := make([]error, len(reqs))
	var fwg sync.WaitGroup
	for i := range reqs {
		fwg.Add(1)
		go func(i int) {
			defer fwg.Done()
			fOuts[i], fErrs[i] = fl.Do(ctx, reqs[i])
		}(i)
	}
	fwg.Wait()
	for i := range reqs {
		if fErrs[i] != nil {
			violations = append(violations, fmt.Sprintf("%s: fleet request %d: %v", key, i, fErrs[i]))
		} else if d := firstOutputDiff(fOuts[i], base[i]); d != "" {
			violations = append(violations, fmt.Sprintf("%s: fleet request %d diverges: %s", key, i, d))
		}
	}
	return violations
}

// checkPartition holds a program to the multi-target property. It is staged
// iff its model has host-only operators, and a staged program must put nodes
// on both targets, cost its transfers, decompose its latency exactly
// (cim + host + transfer == report cycles) and agree with the partition
// section Analyze reports for its compilation.
func checkPartition(ctx context.Context, c *cimmlc.Compiler, g *cimmlc.Graph, p *cimmlc.Program, cell Cell) []string {
	key := cell.Key()
	ps, cycles := p.Stats().Partition, p.Result().Report.Cycles
	switch {
	case (ps != nil) != cimmlc.ModelMixed(cell.Model):
		return []string{fmt.Sprintf("%s: program staged = %v, but the model's host-only operators say %v", key, ps != nil, cimmlc.ModelMixed(cell.Model))}
	case ps == nil:
		return nil
	case ps.HostNodes == 0 || ps.CIMNodes == 0:
		return []string{fmt.Sprintf("%s: partition is single-target (%d host, %d cim nodes)", key, ps.HostNodes, ps.CIMNodes)}
	case ps.Transfers == 0 || ps.TransferElems == 0 || ps.TransferCycles <= 0:
		return []string{fmt.Sprintf("%s: partition has no costed transfers", key)}
	case ps.CIMCycles+ps.HostCycles+ps.TransferCycles != cycles:
		return []string{fmt.Sprintf("%s: latency decomposition %v+%v+%v does not sum to report cycles %v", key,
			ps.CIMCycles, ps.HostCycles, ps.TransferCycles, cycles)}
	}
	// The partition section comes from the compilation, not the flows, so a
	// counts-only report (one window per operator) is enough to compare.
	rep, err := c.Analyze(ctx, g, p.Result(), cimmlc.CodegenOptions{MaxWindowsPerOp: 1})
	switch {
	case err != nil:
		return []string{fmt.Sprintf("%s: Analyze: %v", key, err)}
	case rep.Partition == nil:
		return []string{fmt.Sprintf("%s: Analyze report has no partition section", key)}
	}
	if ap := rep.Partition; ap.Subgraphs != ps.Subgraphs || ap.CIMNodes != ps.CIMNodes || ap.HostNodes != ps.HostNodes ||
		ap.Transfers != ps.Transfers || ap.TransferElems != ps.TransferElems ||
		ap.CIMCycles != ps.CIMCycles || ap.HostCycles != ps.HostCycles || ap.TransferCycles != ps.TransferCycles {
		return []string{fmt.Sprintf("%s: Analyze partition section %+v disagrees with program stats %+v", key, *ap, *ps)}
	}
	return nil
}

// seededRequests builds deterministic pseudo-random inputs for every input
// node; request 0 doubles as the calibration set.
func seededRequests(g *cimmlc.Graph, n int, seed uint64) []map[int]*cimmlc.Tensor {
	reqs := make([]map[int]*cimmlc.Tensor, n)
	for i := range reqs {
		in := map[int]*cimmlc.Tensor{}
		for _, id := range g.InputIDs() {
			nd := g.MustNode(id)
			t := cimmlc.NewTensor(nd.OutShape...)
			t.Rand(seed*1_000_003+uint64(i)*131+uint64(id)+1, 1)
			in[id] = t
		}
		reqs[i] = in
	}
	return reqs
}

// firstOutputDiff compares two output maps bit-for-bit and describes the
// first difference ("" when identical).
func firstOutputDiff(got, want map[int]*cimmlc.Tensor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("output count %d vs %d", len(got), len(want))
	}
	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		gt, ok := got[id]
		if !ok || gt == nil {
			return fmt.Sprintf("node %d missing", id)
		}
		gd, wd := gt.Data(), want[id].Data()
		if len(gd) != len(wd) {
			return fmt.Sprintf("node %d has %d elements, want %d", id, len(gd), len(wd))
		}
		for i := range gd {
			if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
				return fmt.Sprintf("node %d element %d: %v != %v", id, i, gd[i], wd[i])
			}
		}
	}
	return ""
}

// hashOutputs digests a request series' outputs canonically: requests in
// order, node IDs ascending, each tensor as its shape then raw float32 bits.
func hashOutputs(outs []map[int]*cimmlc.Tensor) string {
	h := sha256.New()
	for _, m := range outs {
		ids := make([]int, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			binary.Write(h, binary.LittleEndian, int64(id))
			t := m[id]
			for _, d := range t.Shape() {
				binary.Write(h, binary.LittleEndian, int64(d))
			}
			for _, v := range t.Data() {
				binary.Write(h, binary.LittleEndian, math.Float32bits(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
