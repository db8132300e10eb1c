package perfsim

import "cimmlc/internal/arch"

// Link is the tier a staged plan's cut edges cross: the host↔accelerator
// link of mixed CPU/CIM execution, or the chip-to-chip link of a model
// pipelined across chips.
type Link string

const (
	HostLink Link = "host"
	ChipLink Link = "chip"
)

// Transfer cost model for staged execution: a fixed per-transfer setup
// latency set by the link tier, plus a bandwidth term through the producing
// chip's global buffer and core NoC that both tiers share.
const (
	// HostLinkLatencyCycles is the fixed per-transfer setup latency of the
	// host↔accelerator link (a DMA round trip), in chip cycles.
	HostLinkLatencyCycles = 200.0

	// ChipLinkLatencyCycles is the fixed per-transfer setup latency of the
	// chip-to-chip link, in chip cycles. Chips on the same board talk over
	// the top tier of the NoC hierarchy (§2's chip-level interconnect), so
	// the setup cost is a fraction of the host-link DMA round trip.
	ChipLinkLatencyCycles = 50.0

	// HostALUOpsPerCycle is the nominal host-CPU throughput, in scalar
	// float operations per chip cycle, used to charge host subgraphs in
	// the aggregate report (hostexec.Ops / HostALUOpsPerCycle).
	HostALUOpsPerCycle = 8.0

	transferBitsPerElem = 32 // host tensors are float32
	flitBits            = 64 // core NoC flit width
)

// TransferCost returns the modelled cycle cost of moving elems tensor
// elements across link on arch a: the link's fixed setup latency +
// global-buffer bandwidth + core-NoC injection.
func TransferCost(a *arch.Arch, link Link, elems int64) float64 {
	bits := float64(elems) * transferBitsPerElem
	c := HostLinkLatencyCycles
	if link == ChipLink {
		c = ChipLinkLatencyCycles
	}
	if a.Chip.L0BW > 0 {
		c += bits / a.Chip.L0BW
	}
	c += bits / flitBits * a.Chip.CoreNoCCost
	return c
}

// HostComputeCycles converts a host scalar-operation count (hostexec.Ops)
// into chip cycles for the aggregate report.
func HostComputeCycles(ops int64) float64 {
	return float64(ops) / HostALUOpsPerCycle
}
