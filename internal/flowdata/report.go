package flowdata

import (
	"sort"

	"cimmlc/internal/codegen"
	"cimmlc/internal/mop"
)

// Report is the static resource report of one (model, arch, level) cell:
// everything `cimmlc analyze` emits, as a stable JSON document — struct
// field order fixes the key order, op counts and pressure bins are sorted
// arrays, and every number is deterministic for a given compiler version.
//
// For truncated flows (window loops cut by MaxWindowsPerOp) only the
// operator counts and layout totals are meaningful; the liveness-derived
// fields stay zero and Truncated says why.
type Report struct {
	Model     string `json:"model"`
	Arch      string `json:"arch"`
	Level     string `json:"level"`
	Truncated bool   `json:"truncated"`
	Problems  int    `json:"problems"`

	MOPs     MOPCounts `json:"mops"`
	OpCounts []OpCount `json:"op_counts"`

	TransferWords int64 `json:"transfer_words"`
	LayoutWords   int64 `json:"layout_words"`
	ScratchWords  int64 `json:"scratch_words"`

	PeakLiveScratchWords int64 `json:"peak_live_scratch_words"`
	PeakLiveRegions      int   `json:"peak_live_regions"`
	PeakLiveCrossbars    int   `json:"peak_live_crossbars"`
	DeadMOPs             int   `json:"dead_mops"`
	RedundantTransfers   int   `json:"redundant_transfers"`

	Pressure []PressureBin `json:"live_range_pressure"`

	// Partition is set for multi-target (host fallback) compilations: the
	// partition shape, the cut-edge transfer volume and the latency
	// decomposition. Nil — and absent from the JSON, keeping monolithic
	// goldens byte-identical — for single-target compilations.
	Partition *PartitionReport `json:"partition,omitempty"`
}

// MOPCounts tallies the flow's operators by meta-operator class.
type MOPCounts struct {
	CIM      int `json:"cim"`
	DCOM     int `json:"dcom"`
	DMOV     int `json:"dmov"`
	Parallel int `json:"parallel"`
	Total    int `json:"total"`
}

// OpCount is one mnemonic's occurrence count.
type OpCount struct {
	Op    string `json:"op"`
	Count int    `json:"count"`
}

// PressureBin is one bucket of the live-range pressure histogram: how many
// instructions executed with that many regions simultaneously live.
type PressureBin struct {
	Bucket string `json:"bucket"`
	Instrs int64  `json:"instrs"`
}

// Mnemonic names an operator for the op_counts table.
func Mnemonic(op mop.Op) string {
	switch o := op.(type) {
	case mop.ReadCore:
		return "cim.readcore"
	case mop.WriteXB:
		return "cim.writexb"
	case mop.ReadXB:
		return "cim.readxb"
	case mop.WriteRow:
		return "cim.writerow"
	case mop.ReadRow:
		return "cim.readrow"
	case mop.Dcom:
		return "dcom." + string(o.Fn)
	case mop.Mov:
		return "mov"
	case mop.MovWindow:
		return "mov_window"
	case mop.Parallel:
		return "parallel"
	}
	return "unknown"
}

// NewReport assembles the cell report from the generated flow and its
// analysis. an may come from Build on the same fr; a truncated fr yields a
// counts-only report.
func NewReport(model, archName, level string, fr *codegen.Result, an *Analysis) Report {
	rep := Report{Model: model, Arch: archName, Level: level}
	if fr == nil || fr.Flow == nil || fr.Layout == nil {
		rep.Problems = 1
		return rep
	}
	rep.Truncated = fr.Truncated
	st := fr.Flow.Stats()
	rep.MOPs = MOPCounts{CIM: st.CIMOps, DCOM: st.DCOMOps, DMOV: st.DMOVOps, Parallel: st.ParallelOps, Total: st.TotalLeaf}
	counts := map[string]int{}
	var walk func(ops []mop.Op)
	walk = func(ops []mop.Op) {
		for _, op := range ops {
			counts[Mnemonic(op)]++
			if par, ok := op.(mop.Parallel); ok {
				walk(par.Body)
			}
		}
	}
	walk(fr.Flow.Init)
	walk(fr.Flow.Body)
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.OpCounts = append(rep.OpCounts, OpCount{Op: n, Count: counts[n]})
	}
	rep.LayoutWords = fr.Layout.Total
	var nodeWords int64
	for _, r := range fr.Layout.Region {
		nodeWords += r.Size
	}
	rep.ScratchWords = fr.Layout.Total - nodeWords
	if an == nil || an.Truncated {
		return rep
	}
	rep.Problems = len(an.Problems)
	rep.DeadMOPs = an.DeadCount()
	rep.RedundantTransfers = an.RedundantCount()
	if len(an.Problems) > 0 {
		return rep
	}
	rep.TransferWords = an.TransferWords
	rep.PeakLiveScratchWords = an.PeakLiveScratchWords
	rep.PeakLiveRegions = an.PeakLiveRegions
	rep.PeakLiveCrossbars = an.PeakLiveCrossbars
	for b, n := range an.Pressure {
		rep.Pressure = append(rep.Pressure, PressureBin{Bucket: PressureBuckets[b], Instrs: n})
	}
	return rep
}
