package cimmlc

import (
	"context"
	"fmt"

	"cimmlc/internal/codegen"
	"cimmlc/internal/flowdata"
	"cimmlc/internal/flowopt"
)

// FlowReport is the static resource report of one compiled flow: MOP counts
// by class and mnemonic, transfer volume, layout and scratch footprint, and
// the liveness-derived peaks (live scratch words, live regions, live
// crossbars) plus the live-range pressure histogram. Serializes as stable
// JSON — the `cimmlc analyze` golden format.
type FlowReport = flowdata.Report

// FlowOptStats records what WithFlowOpt's rewrite changed; it is the Opt
// field of an optimized FlowResult.
type FlowOptStats = codegen.OptStats

// Analyze lowers a compilation result (honoring WithFlowOpt, like Lower)
// and runs the flow-IR dataflow analysis over the generated flow, returning
// the static resource report. A non-zero MaxWindowsPerOp yields a
// counts-only report (truncated flows are illustrative, not executable, so
// liveness facts would be meaningless). Like Lower, it works on a private
// copy of g.
func (c *Compiler) Analyze(ctx context.Context, g *Graph, res *Result, opt CodegenOptions) (*FlowReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g == nil || res == nil {
		return nil, fmt.Errorf("cimmlc: Analyze: nil graph or result")
	}
	if res.Partition != nil {
		return c.analyzePartitioned(ctx, g, res, opt)
	}
	gc, err := cloneGraph(g)
	if err != nil {
		return nil, fmt.Errorf("cimmlc: Analyze: %w", err)
	}
	a := c.arch
	fr, err := codegen.Generate(gc, &a, res.Schedule, res.Placement, res.Model, opt)
	if err != nil {
		return nil, err
	}
	if c.opt.FlowOpt {
		fr, err = flowopt.Optimize(gc, &a, res.Schedule, res.Model.FPs, fr)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: Analyze: %w", err)
		}
	}
	an := flowdata.Build(gc, &a, res.Schedule, res.Model.FPs, fr)
	level := string(c.opt.MaxLevel)
	if level == "" {
		level = string(c.arch.Mode)
	}
	rep := flowdata.NewReport(g.Name, c.arch.Name, level, fr, an)
	return &rep, nil
}

// analyzePartitioned builds the static resource report for a staged
// compilation: every CIM subgraph lowers and analyzes through the normal
// path, the per-subgraph reports merge into one aggregate, and the Partition
// section records the partition shape, the transfer volume and the latency
// decomposition (the transfer costs `cimmlc analyze` surfaces).
func (c *Compiler) analyzePartitioned(ctx context.Context, g *Graph, res *Result, opt CodegenOptions) (*FlowReport, error) {
	info := res.Partition
	level := string(c.opt.MaxLevel)
	if level == "" {
		level = string(c.arch.Mode)
	}
	var parts []flowdata.Report
	for i, sub := range info.Plan.Subs {
		if sub.Target != TargetCIM {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sr := info.Subs[i].Res
		if sr == nil {
			return nil, fmt.Errorf("cimmlc: Analyze: subgraph %d: missing CIM compilation result", sub.Index)
		}
		gc, err := cloneGraph(sub.G)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: Analyze: subgraph %d: %w", sub.Index, err)
		}
		a := c.arch
		fr, err := codegen.Generate(gc, &a, sr.Schedule, sr.Placement, sr.Model, opt)
		if err != nil {
			return nil, fmt.Errorf("cimmlc: Analyze: subgraph %d: %w", sub.Index, err)
		}
		if c.opt.FlowOpt {
			fr, err = flowopt.Optimize(gc, &a, sr.Schedule, sr.Model.FPs, fr)
			if err != nil {
				return nil, fmt.Errorf("cimmlc: Analyze: subgraph %d: %w", sub.Index, err)
			}
		}
		an := flowdata.Build(gc, &a, sr.Schedule, sr.Model.FPs, fr)
		parts = append(parts, flowdata.NewReport(g.Name, c.arch.Name, level, fr, an))
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
