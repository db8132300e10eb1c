package cimmlc

import (
	"context"
	"fmt"

	"cimmlc/internal/flowdata"
)

// FlowReport is the static resource report of one compiled flow: MOP counts
// by class and mnemonic, transfer volume, layout and scratch footprint, and
// the liveness-derived peaks (live scratch words, live regions, live
// crossbars) plus the live-range pressure histogram. Serializes as stable
// JSON — the `cimmlc analyze` golden format.
type FlowReport = flowdata.Report

// Analyze lowers a compilation result stage by stage through Lower (so
// WithVerifyIR applies exactly as it does to Build) and runs
// the flow-IR dataflow analysis over each generated flow — once: under
// WithVerifyIR, the analysis Lower verified the flow with — returning the
// static resource report. A non-zero MaxWindowsPerOp yields a counts-only
// report (truncated flows are illustrative, not executable, so liveness
// facts would be meaningless). For a staged compilation the per-stage
// reports merge into one aggregate whose Partition section records the
// partition shape, the transfer volume and the latency decomposition. Like
// Lower, it refuses a g that res was not compiled over and reads the
// compilation's own graphs.
func (c *Compiler) Analyze(ctx context.Context, g *Graph, res *Result, opt CodegenOptions) (*FlowReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil || res == nil {
		return nil, fmt.Errorf("cimmlc: Analyze: nil graph or result")
	}
	plan, subs := stagePlan(res)
	if err := compiledOver(g, plan.Graph); err != nil {
		return nil, fmt.Errorf("cimmlc: Analyze: %w", err)
	}
	level := string(c.opt.MaxLevel)
	if level == "" {
		level = string(c.arch.Mode)
	}
	a := c.arch
	var parts []flowdata.Report
	for i, sub := range plan.Subs {
		if sub.Target != TargetCIM {
			continue
		}
		sr := subs[i].Res
		if sr == nil {
			return nil, fmt.Errorf("cimmlc: Analyze: subgraph %d: missing CIM compilation result", sub.Index)
		}
		fr, an, err := c.lower(ctx, sr, opt)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: Analyze: subgraph %d: %w", sub.Index, err)
		}
		if an == nil { // verification off: nothing analyzed the flow yet
			an = flowdata.Build(sub.G, &a, fr)
		}
		parts = append(parts, flowdata.NewReport(g.Name, c.arch.Name, level, fr, an))
	}
	info := res.Partition
	if info == nil {
		return &parts[0], nil
	}
	rep := flowdata.MergeReports(g.Name, c.arch.Name, level, parts)
	var hostOps int64
	for _, sr := range info.Subs {
		hostOps += sr.HostOps
	}
	rep.Partition = &flowdata.PartitionReport{
		Subgraphs:      len(info.Plan.Subs),
		CIMNodes:       info.Plan.NodeCount(TargetCIM),
		HostNodes:      info.Plan.NodeCount(TargetHost),
		Transfers:      len(info.Plan.Transfers),
		TransferElems:  info.Plan.TransferElems(),
		HostOps:        hostOps,
		CIMCycles:      info.CIMCycles,
		HostCycles:     info.HostCycles,
		TransferCycles: info.TransferCycles,
	}
	return &rep, nil
}
