package perfsim

import (
	"testing"

	"cimmlc/internal/arch"
)

func TestChipTransferCost(t *testing.T) {
	a, err := arch.Preset("isaac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	host := TransferCost(a, HostLink, 1024)
	chip := TransferCost(a, ChipLink, 1024)
	if chip <= 0 {
		t.Fatalf("chip-link TransferCost = %v, want > 0", chip)
	}
	// Same bandwidth terms, lower setup latency: the two tiers differ by
	// exactly the link-latency gap.
	if got, want := host-chip, HostLinkLatencyCycles-ChipLinkLatencyCycles; got != want {
		t.Errorf("host-chip cost gap = %v, want %v", got, want)
	}
	// Monotone in volume.
	if TransferCost(a, ChipLink, 2048) <= chip {
		t.Error("chip transfer cost not monotone in element count")
	}
	// Zero elements still pays the link setup.
	if got := TransferCost(a, ChipLink, 0); got != ChipLinkLatencyCycles {
		t.Errorf("zero-volume transfer = %v, want %v", got, ChipLinkLatencyCycles)
	}
}
