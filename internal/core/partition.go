package core

import (
	"context"
	"fmt"
	"strings"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/hostexec"
	"cimmlc/internal/irverify"
	"cimmlc/internal/partition"
	"cimmlc/internal/perfsim"
)

// SubResult is the compilation outcome of one partition subgraph.
type SubResult struct {
	Target graph.Target
	// Res is the full single-target compilation for CIM subgraphs; nil for
	// host subgraphs.
	Res *Result
	// HostOps is the scalar-operation estimate for host subgraphs (zero
	// for CIM subgraphs).
	HostOps int64
	// Cycles is this subgraph's modelled latency contribution.
	Cycles float64
}

// PartitionInfo bundles a staged compilation: the partition plan,
// per-subgraph results in execution order, and the latency decomposition the
// aggregate Report.Cycles is built from.
type PartitionInfo struct {
	Plan *partition.Plan
	Subs []SubResult
	// CIMCycles, HostCycles and TransferCycles decompose the aggregate
	// latency: accelerator subgraphs, host subgraphs, and the transfers at
	// the cut edges (each on its own link tier).
	CIMCycles      float64
	HostCycles     float64
	TransferCycles float64
}

// compilePlan is the staged pipeline: verify the plan, run the normal
// single-target pipeline over every CIM subgraph, charge host subgraphs with
// the host cost model, and cost every cut-edge transfer on the link tier it
// crosses.
func compilePlan(ctx context.Context, plan *partition.Plan, a *arch.Arch, opt Options, passes []Pass, trace func(TraceEvent)) (*Result, error) {
	if opt.VerifyIR {
		if vs := irverify.VerifyPartition(plan); len(vs) > 0 {
			return nil, fmt.Errorf("core: %w", &irverify.Error{Stage: "partition", Violations: vs})
		}
	}

	info := &PartitionInfo{Plan: plan}
	agg := &perfsim.Report{}
	for _, sub := range plan.Subs {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("core: %w", ctx.Err())
		default:
		}
		switch sub.Target {
		case graph.TargetCIM:
			res, err := compileSingle(ctx, sub.G, a, opt, passes, trace)
			if err != nil {
				return nil, fmt.Errorf("core: partition subgraph %d: %w", sub.Index, err)
			}
			info.Subs = append(info.Subs, SubResult{Target: graph.TargetCIM, Res: res, Cycles: res.Report.Cycles})
			info.CIMCycles += res.Report.Cycles
			agg.SegmentCycles = append(agg.SegmentCycles, res.Report.SegmentCycles...)
			agg.ReloadCycles += res.Report.ReloadCycles
			agg.Energy += res.Report.Energy
			agg.XBsUsed += res.Report.XBsUsed
			if res.Report.CoresUsed > agg.CoresUsed {
				agg.CoresUsed = res.Report.CoresUsed
			}
			if res.Report.PeakActiveXBs > agg.PeakActiveXBs {
				agg.PeakActiveXBs = res.Report.PeakActiveXBs
				agg.PeakPower = res.Report.PeakPower
			}
		case graph.TargetHost:
			ops := hostexec.Ops(sub.G)
			cycles := perfsim.HostComputeCycles(ops)
			info.Subs = append(info.Subs, SubResult{Target: graph.TargetHost, HostOps: ops, Cycles: cycles})
			info.HostCycles += cycles
		default:
			return nil, fmt.Errorf("core: partition subgraph %d has target %q", sub.Index, sub.Target)
		}
	}
	//cimlint:ignore ctxcancel -- sum over cut-edge count, trivially bounded; the subgraph loop above polls
	for _, t := range plan.Transfers {
		info.TransferCycles += perfsim.TransferCost(a, t.Link, t.Elems)
	}
	agg.Cycles = info.CIMCycles + info.HostCycles + info.TransferCycles
	return &Result{Report: agg, Partition: info}, nil
}

func joinOps(ops []graph.Op) string {
	ss := make([]string, len(ops))
	for i, o := range ops {
		ss[i] = string(o)
	}
	return strings.Join(ss, ", ")
}
