// Package arch implements the CIM hardware abstraction of the paper (§3.2):
// the three-tier architecture parameters, Abs-arch (Figures 5, 6 and 8), and
// the computing-mode abstraction, Abs-com (CM / XBM / WLM).
//
// An Arch value fully describes a CIM accelerator to the compiler. The
// presets in this package encode the paper's evaluated machines: the
// ISAAC-like baseline (Table 3), Jia et al. (Figure 17), PUMA (Figure 18),
// Jain et al. (Figure 19) and the didactic toy machine of Table 2.
package arch

import (
	"fmt"
	"math"
	"strings"
)

// Mode is the computing-mode abstraction (Abs-com). The mode names the
// finest scheduling granularity the accelerator's programming interface
// exposes; each mode corresponds one-to-one with an architecture tier
// (Figure 4(d)–(f)).
type Mode string

const (
	// CM (core mode): the chip exposes whole cores; one or more cores
	// execute one DNN operator. Only CG-grained optimization applies.
	CM Mode = "CM"
	// XBM (crossbar mode): cores expose individual crossbars; MVMs are
	// scheduled onto crossbars. CG- and MVM-grained optimization apply.
	XBM Mode = "XBM"
	// WLM (wordline mode): crossbars expose row (wordline) activation;
	// VVM-grained optimization applies on top of CG and MVM.
	WLM Mode = "WLM"
)

// Valid reports whether m is a known mode.
func (m Mode) Valid() bool { return m == CM || m == XBM || m == WLM }

// AtLeast reports whether m exposes at least the granularity of other
// (CM < XBM < WLM).
func (m Mode) AtLeast(other Mode) bool { return m.rank() >= other.rank() }

func (m Mode) rank() int {
	switch m {
	case CM:
		return 0
	case XBM:
		return 1
	case WLM:
		return 2
	}
	return -1
}

// NoCType names an on-chip interconnect topology.
type NoCType string

const (
	NoCMesh       NoCType = "Mesh"
	NoCHTree      NoCType = "H-tree"
	NoCSharedBus  NoCType = "SharedBus"
	NoCDisjointBS NoCType = "DisjointBufferSwitch"
	NoCIdeal      NoCType = "Ideal" // parameters "considered ideal" in the paper ("\")
)

// Valid reports whether t is a known NoC topology.
func (t NoCType) Valid() bool {
	switch t {
	case NoCMesh, NoCHTree, NoCSharedBus, NoCDisjointBS, NoCIdeal:
		return true
	}
	return false
}

// NoCTypeNames lists the known NoC topology names, for error messages.
func NoCTypeNames() []string {
	return []string{string(NoCMesh), string(NoCHTree), string(NoCSharedBus), string(NoCDisjointBS), string(NoCIdeal)}
}

// ChipTier holds the chip-tier architecture parameters (Figure 5).
type ChipTier struct {
	// CoreRows×CoreCols cores per chip (the paper's core_number, recorded
	// as "cores per row × cores per column").
	CoreRows int `json:"core_rows"`
	CoreCols int `json:"core_cols"`
	// CoreNoC is the inter-core network type; CoreNoCCost the transfer
	// cost in cycles per 64-bit flit per hop (the paper's core_noc_cost
	// matrix is derived from topology distance × this constant).
	CoreNoC     NoCType `json:"core_noc"`
	CoreNoCCost float64 `json:"core_noc_cost"`
	// L0SizeKB and L0BW describe the global buffer (size in kB, bandwidth
	// in bits per cycle). Zero means ideal/unconstrained.
	L0SizeKB float64 `json:"l0_size_kb"`
	L0BW     float64 `json:"l0_bw_bits"`
	// ALUOps is the chip-level digital compute capacity in elementwise
	// operations per cycle. Zero means ideal.
	ALUOps float64 `json:"alu_ops"`
}

// CoreCount returns the total number of cores on the chip.
func (c ChipTier) CoreCount() int { return c.CoreRows * c.CoreCols }

// CoreTier holds the core-tier architecture parameters (Figure 6).
type CoreTier struct {
	// XBRows×XBCols crossbars per core (the paper's xb_number).
	XBRows int `json:"xb_rows"`
	XBCols int `json:"xb_cols"`
	// XBNoC / XBNoCCost describe the intra-core interconnect.
	XBNoC     NoCType `json:"xb_noc"`
	XBNoCCost float64 `json:"xb_noc_cost"`
	// L1SizeKB / L1BW describe the local buffer. Zero means ideal.
	L1SizeKB float64 `json:"l1_size_kb"`
	L1BW     float64 `json:"l1_bw_bits"`
	// ALUOps is the per-core digital compute capacity (ops/cycle).
	ALUOps float64 `json:"alu_ops"`
}

// XBCount returns the number of crossbars per core.
func (c CoreTier) XBCount() int { return c.XBRows * c.XBCols }

// XBTier holds the crossbar-tier architecture parameters (Figure 8).
type XBTier struct {
	// Rows×Cols memory cells per crossbar (the paper's xb_size).
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// ParallelRow is the maximum number of wordlines that can be
	// activated simultaneously (≤ Rows).
	ParallelRow int `json:"parallel_row"`
	// DACBits / ADCBits are the converter precisions.
	DACBits int `json:"dac_bits"`
	ADCBits int `json:"adc_bits"`
	// Device is the memory cell technology and CellBits its storage
	// precision (the paper's Type and Precision).
	Device   Device `json:"device"`
	CellBits int    `json:"cell_bits"`
}

// Arch is the complete accelerator description the compiler consumes.
type Arch struct {
	Name string   `json:"name"`
	Mode Mode     `json:"mode"`
	Chip ChipTier `json:"chip"`
	Core CoreTier `json:"core"`
	XB   XBTier   `json:"xb"`
	// WeightBits / ActBits are the network quantization the machine is
	// operated at (8/8 throughout the paper's evaluation).
	WeightBits int `json:"weight_bits"`
	ActBits    int `json:"act_bits"`
}

// Validate checks the description for internal consistency.
func (a *Arch) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("arch: name must be set")
	}
	if !a.Mode.Valid() {
		return fmt.Errorf("arch %q: invalid mode %q", a.Name, a.Mode)
	}
	if a.Chip.CoreRows <= 0 || a.Chip.CoreCols <= 0 {
		return fmt.Errorf("arch %q: core grid %dx%d must be positive", a.Name, a.Chip.CoreRows, a.Chip.CoreCols)
	}
	if a.Core.XBRows <= 0 || a.Core.XBCols <= 0 {
		return fmt.Errorf("arch %q: crossbar grid %dx%d must be positive", a.Name, a.Core.XBRows, a.Core.XBCols)
	}
	if a.XB.Rows <= 0 || a.XB.Cols <= 0 {
		return fmt.Errorf("arch %q: crossbar size %dx%d must be positive", a.Name, a.XB.Rows, a.XB.Cols)
	}
	if a.XB.ParallelRow <= 0 || a.XB.ParallelRow > a.XB.Rows {
		return fmt.Errorf("arch %q: parallel_row %d must be in [1,%d]", a.Name, a.XB.ParallelRow, a.XB.Rows)
	}
	if a.XB.CellBits <= 0 {
		return fmt.Errorf("arch %q: cell precision must be positive", a.Name)
	}
	if a.XB.DACBits <= 0 || a.XB.ADCBits <= 0 {
		return fmt.Errorf("arch %q: DAC/ADC precision must be positive", a.Name)
	}
	if !a.XB.Device.Valid() {
		return fmt.Errorf("arch %q: unknown device %q (available: %s)", a.Name, a.XB.Device, strings.Join(DeviceNames(), ", "))
	}
	if !a.Chip.CoreNoC.Valid() {
		return fmt.Errorf("arch %q: unknown core NoC %q (available: %s)", a.Name, a.Chip.CoreNoC, strings.Join(NoCTypeNames(), ", "))
	}
	if !a.Core.XBNoC.Valid() {
		return fmt.Errorf("arch %q: unknown crossbar NoC %q (available: %s)", a.Name, a.Core.XBNoC, strings.Join(NoCTypeNames(), ", "))
	}
	if a.WeightBits <= 0 || a.ActBits <= 0 {
		return fmt.Errorf("arch %q: weight/activation bits must be positive", a.Name)
	}
	if a.Chip.CoreNoCCost < 0 || a.Core.XBNoCCost < 0 {
		return fmt.Errorf("arch %q: NoC costs must be non-negative", a.Name)
	}
	return a.validateSizes()
}

// validateSizes checks that the derived sizes — CoreCount, XBCount,
// TotalCrossbars and WeightCapacity — are representable, and that the chip
// holds at least one weight. Every field is positive by then, so an
// overflowing product is the only way a size can wrap to zero or a negative
// count, which the passes downstream would divide by or allocate.
func (a *Arch) validateSizes() error {
	cores, ok := product(int64(a.Chip.CoreRows), int64(a.Chip.CoreCols), math.MaxInt)
	if !ok {
		return fmt.Errorf("arch %q: core grid %dx%d overflows the core count", a.Name, a.Chip.CoreRows, a.Chip.CoreCols)
	}
	xbs, ok := product(int64(a.Core.XBRows), int64(a.Core.XBCols), math.MaxInt)
	if !ok {
		return fmt.Errorf("arch %q: crossbar grid %dx%d overflows the crossbars per core", a.Name, a.Core.XBRows, a.Core.XBCols)
	}
	total, ok := product(cores, xbs, math.MaxInt)
	if !ok {
		return fmt.Errorf("arch %q: %d cores of %d crossbars overflow the chip's crossbar count", a.Name, cores, xbs)
	}
	cells, ok := product(int64(a.XB.Rows), int64(a.XB.Cols), math.MaxInt64)
	if !ok {
		return fmt.Errorf("arch %q: crossbar size %dx%d overflows the cells per crossbar", a.Name, a.XB.Rows, a.XB.Cols)
	}
	if _, ok := product(cells, total, math.MaxInt64); !ok {
		return fmt.Errorf("arch %q: %d crossbars of %d cells overflow the weight capacity", a.Name, total, cells)
	}
	if a.WeightCapacity() < 1 {
		return fmt.Errorf("arch %q: weight_bits %d need %d cells per weight, more than the chip's %d crossbars of %d cells",
			a.Name, a.WeightBits, a.CellsPerWeight(), total, cells)
	}
	return nil
}

// product returns a·b for positive a and b, and whether it is at most limit.
func product(a, b, limit int64) (int64, bool) {
	if b > limit/a {
		return 0, false
	}
	return a * b, true
}

// CellsPerWeight returns how many cells one weight element occupies,
// ceil(WeightBits / CellBits) — the bit-slicing factor of Figure 7.
func (a *Arch) CellsPerWeight() int {
	return (a.WeightBits-1)/a.XB.CellBits + 1
}

// DACPhases returns how many bit-serial input phases one activation needs,
// ceil(ActBits / DACBits).
func (a *Arch) DACPhases() int {
	return (a.ActBits + a.XB.DACBits - 1) / a.XB.DACBits
}

// RowGroups returns how many sequential wordline activations a full-height
// MVM needs, ceil(rowsUsed / ParallelRow).
func (a *Arch) RowGroups(rowsUsed int) int {
	if rowsUsed <= 0 {
		return 0
	}
	return (rowsUsed + a.XB.ParallelRow - 1) / a.XB.ParallelRow
}

// TotalCrossbars returns the crossbar count of the whole chip.
func (a *Arch) TotalCrossbars() int {
	return a.Chip.CoreCount() * a.Core.XBCount()
}

// CellsPerCrossbar returns the storage capacity of one crossbar in cells.
func (a *Arch) CellsPerCrossbar() int64 {
	return int64(a.XB.Rows) * int64(a.XB.Cols)
}

// WeightCapacity returns how many WeightBits-precision weight elements the
// whole chip can hold.
func (a *Arch) WeightCapacity() int64 {
	return a.CellsPerCrossbar() * int64(a.TotalCrossbars()) / int64(a.CellsPerWeight())
}

// Clone returns a deep copy; sweeps mutate clones, never presets.
func (a *Arch) Clone() *Arch {
	c := *a
	return &c
}

func (a *Arch) String() string {
	return fmt.Sprintf("Arch(%s, %s, %d cores × %d xbs of %dx%d, %s %d-bit cells)",
		a.Name, a.Mode, a.Chip.CoreCount(), a.Core.XBCount(), a.XB.Rows, a.XB.Cols, a.XB.Device, a.XB.CellBits)
}
