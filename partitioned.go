package cimmlc

import (
	"context"
	"fmt"

	"cimmlc/internal/funcsim"
	"cimmlc/internal/graph"
	"cimmlc/internal/hostexec"
	"cimmlc/internal/partition"
	"cimmlc/internal/tensor"
)

// subprogram is one step of a partitioned Program: either a full inner CIM
// Program (compiled, lowered and weight-programmed like any monolithic
// build) or a host-executor program, plus the subgraph metadata that maps
// its local node IDs back into the full graph.
type subprogram struct {
	sub   *partition.Subgraph
	inner *Program          // CIM subgraphs
	host  *hostexec.Program // host subgraphs
}

// PartitionStats summarizes a partitioned program's multi-target plan and
// the modelled latency decomposition. Program.Stats reports it only for
// partitioned programs — monolithic builds (including fully supported graphs
// compiled under WithHostFallback) leave it nil.
type PartitionStats struct {
	// Subgraphs counts the partition's subgraphs; CIMNodes and HostNodes
	// the real graph nodes on each target.
	Subgraphs int `json:"subgraphs"`
	CIMNodes  int `json:"cim_nodes"`
	HostNodes int `json:"host_nodes"`
	// Transfers counts the cut edges; TransferElems their total tensor
	// element volume.
	Transfers     int   `json:"transfers"`
	TransferElems int64 `json:"transfer_elems"`
	// CIMCycles, HostCycles and TransferCycles decompose the aggregate
	// modelled latency (Result.Report.Cycles).
	CIMCycles      float64 `json:"cim_cycles"`
	HostCycles     float64 `json:"host_cycles"`
	TransferCycles float64 `json:"transfer_cycles"`
}

// buildPartitioned assembles the orchestrator Program for a partitioned
// compilation: every CIM subgraph becomes a full inner Program (lowered and
// weight-programmed through the normal path, calibrated on reference
// activations at its boundary), every host subgraph a host-executor program.
func (c *Compiler) buildPartitioned(ctx context.Context, res *Result, w Weights, opt CodegenOptions, cfg buildConfig) (*Program, error) {
	plan := res.Partition.Plan
	calib := cfg.calib
	if calib == nil {
		calib = defaultCalibration(plan.Graph)
	}
	// Boundary calibration: reference-execute the full graph on the
	// calibration set so each subgraph's synthetic inputs calibrate on the
	// activation distribution they will actually see. Execute re-runs shape
	// inference, so give it a private clone — plan.Graph may be shared
	// through the compiler's artifact cache.
	refVals, err := graph.Execute(plan.Graph.Clone(), w, calib)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: Build: boundary calibration: %w", err)
	}

	p := &Program{
		arch:    c.arch,
		g:       plan.Graph,
		res:     res,
		w:       w,
		calib:   calib,
		outs:    plan.Graph.Outputs(),
		workers: cfg.workers,
	}
	for i, sub := range plan.Subs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		subW := sub.SubWeights(w)
		switch sub.Target {
		case graph.TargetHost:
			hp, err := hostexec.Compile(sub.G, subW)
			if err != nil {
				return nil, fmt.Errorf("cimmlc: Build: subgraph %d: %w", sub.Index, err)
			}
			p.parts = append(p.parts, &subprogram{sub: sub, host: hp})
		case graph.TargetCIM:
			subCalib := make(map[int]*Tensor, len(sub.G.InputIDs()))
			for _, lid := range sub.G.InputIDs() {
				gid := sub.GlobalOf[lid]
				t, ok := refVals[gid]
				if !ok {
					return nil, fmt.Errorf("cimmlc: Build: subgraph %d: no calibration activation for node %d", sub.Index, gid)
				}
				subCalib[lid] = t
			}
			sr := res.Partition.Subs[i]
			if sr.Res == nil {
				return nil, fmt.Errorf("cimmlc: Build: subgraph %d: missing CIM compilation result", sub.Index)
			}
			fr, err := c.Lower(ctx, sub.G, sr.Res, opt)
			if err != nil {
				return nil, fmt.Errorf("cimmlc: Build: subgraph %d: %w", sub.Index, err)
			}
			ip, err := c.newProgram(sub.G, fr, subW, buildConfig{calib: subCalib, workers: 1})
			if err != nil {
				return nil, fmt.Errorf("cimmlc: Build: subgraph %d: %w", sub.Index, err)
			}
			ip.res = sr.Res
			// The orchestrator consumes the subgraph's exports, not the
			// subgraph's own terminal nodes.
			ip.outs = append([]int(nil), sub.Exports...)
			p.parts = append(p.parts, &subprogram{sub: sub, inner: ip})
		default:
			return nil, fmt.Errorf("cimmlc: Build: subgraph %d has target %q", sub.Index, sub.Target)
		}
	}
	return p, nil
}

// runPartitioned executes one inference by stepping the subprograms in
// topological order through a shared tensor environment keyed by global node
// IDs: each subprogram reads its boundary inputs from the environment and
// publishes its exports back.
func (p *Program) runPartitioned(ctx context.Context, inputs map[int]*Tensor) (map[int]*Tensor, error) {
	// The same request check a monolithic program's input load applies, so
	// both shapes reject a malformed request with the same error.
	if err := funcsim.CheckInputs(p.g, inputs); err != nil {
		return nil, err
	}
	env := make(map[int]*Tensor, len(p.g.Nodes))
	for id, t := range inputs {
		env[id] = t
	}
	for _, sp := range p.parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		subIn := make(map[int]*Tensor)
		for _, lid := range sp.sub.G.InputIDs() {
			gid := sp.sub.GlobalOf[lid]
			t, ok := env[gid]
			if !ok {
				return nil, fmt.Errorf("cimmlc: Run: subgraph %d: boundary value of node %d not yet computed", sp.sub.Index, gid)
			}
			subIn[lid] = t
		}
		if sp.host != nil {
			vals, err := sp.host.Run(ctx, subIn)
			if err != nil {
				return nil, fmt.Errorf("cimmlc: Run: subgraph %d: %w", sp.sub.Index, err)
			}
			for _, lid := range sp.sub.Exports {
				env[sp.sub.GlobalOf[lid]] = vals[lid]
			}
			continue
		}
		out, err := sp.inner.Run(ctx, subIn)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: Run: subgraph %d: %w", sp.sub.Index, err)
		}
		for _, lid := range sp.sub.Exports {
			t, ok := out[lid]
			if !ok {
				return nil, fmt.Errorf("cimmlc: Run: subgraph %d: export %d missing from result", sp.sub.Index, lid)
			}
			env[sp.sub.GlobalOf[lid]] = t
		}
	}
	outs := make(map[int]*Tensor, len(p.outs))
	for _, id := range p.outs {
		t, ok := env[id]
		if !ok {
			return nil, fmt.Errorf("cimmlc: Run: output node %d was never computed", id)
		}
		outs[id] = t
	}
	p.requests.Add(1)
	return outs, nil
}

// verifyPartitioned checks a partitioned program's outputs against the float
// reference executor within floatTol (relative to each output's max
// magnitude). Partitioned execution has no single quantized reference: host
// subgraphs compute in float32 where the monolithic pipeline would have
// quantized digital ops, so the bit-exact check of the monolithic Verify
// does not apply across cut edges.
func (p *Program) verifyPartitioned(ctx context.Context, inputs map[int]*Tensor, floatTol float64) error {
	got, err := p.runPartitioned(ctx, inputs)
	if err != nil {
		return err
	}
	ref, err := graph.Execute(p.g.Clone(), p.w, inputs)
	if err != nil {
		return err
	}
	for _, id := range p.outs {
		scale := 0.0
		for _, v := range ref[id].Data() {
			a := float64(v)
			if a < 0 {
				a = -a
			}
			if a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
		d, err := tensor.MaxAbsDiff(got[id], ref[id])
		if err != nil {
			return fmt.Errorf("cimmlc: Verify: output %d: %w", id, err)
		}
		if d > floatTol*scale {
			return fmt.Errorf("cimmlc: Verify: output %d diverges from float reference by %g (tol %g of max magnitude %g)", id, d, floatTol, scale)
		}
	}
	return nil
}

// partitionStats derives the serving-visible summary from a partitioned
// compilation result.
func partitionStats(res *Result) *PartitionStats {
	info := res.Partition
	st := &PartitionStats{
		Subgraphs:      len(info.Plan.Subs),
		CIMNodes:       info.Plan.CIMNodeCount(),
		HostNodes:      info.Plan.HostNodeCount(),
		Transfers:      len(info.Plan.Transfers),
		TransferElems:  info.Plan.TransferElems(),
		CIMCycles:      info.CIMCycles,
		HostCycles:     info.HostCycles,
		TransferCycles: info.TransferCycles,
	}
	return st
}
