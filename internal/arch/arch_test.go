package arch

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAllPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		a, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
}

func TestUnknownPreset(t *testing.T) {
	if _, err := Preset("nope"); err == nil {
		t.Fatal("accepted unknown preset")
	}
}

func TestISAACBaselineMatchesTable3(t *testing.T) {
	a := ISAACBaseline()
	if a.Chip.CoreCount() != 768 {
		t.Fatalf("core count = %d, want 768", a.Chip.CoreCount())
	}
	if a.Core.XBCount() != 16 {
		t.Fatalf("xb count = %d, want 16", a.Core.XBCount())
	}
	if a.XB.Rows != 128 || a.XB.Cols != 128 {
		t.Fatalf("xb size = %dx%d, want 128x128", a.XB.Rows, a.XB.Cols)
	}
	if a.XB.ParallelRow != 8 {
		t.Fatalf("parallel row = %d, want 8", a.XB.ParallelRow)
	}
	if a.XB.DACBits != 1 || a.XB.ADCBits != 8 {
		t.Fatalf("DAC/ADC = %d/%d, want 1/8", a.XB.DACBits, a.XB.ADCBits)
	}
	if a.XB.Device != ReRAM || a.XB.CellBits != 2 {
		t.Fatalf("device = %s %d-bit, want ReRAM 2-bit", a.XB.Device, a.XB.CellBits)
	}
	if a.Chip.ALUOps != 1024 || a.Core.ALUOps != 1024 {
		t.Fatal("ALU ops should be 1024 at both tiers")
	}
	if a.Chip.L0BW != 384 || a.Core.L1BW != 8192 {
		t.Fatal("buffer bandwidths disagree with Table 3")
	}
	if a.Mode != WLM {
		t.Fatal("baseline must expose WLM for the three-level study")
	}
}

func TestJiaMatchesFigure17(t *testing.T) {
	a := JiaAccelerator()
	if a.Chip.CoreCount() != 16 || a.Core.XBCount() != 1 {
		t.Fatalf("Jia: %d cores × %d xbs, want 16×1", a.Chip.CoreCount(), a.Core.XBCount())
	}
	if a.XB.Rows != 1152 || a.XB.Cols != 256 || a.XB.ParallelRow != 1152 {
		t.Fatalf("Jia crossbar = %dx%d/%d", a.XB.Rows, a.XB.Cols, a.XB.ParallelRow)
	}
	if a.Mode != CM || a.XB.Device != SRAM || a.XB.CellBits != 1 {
		t.Fatal("Jia must be CM-mode 1-bit SRAM")
	}
	if a.Chip.CoreNoC != NoCDisjointBS {
		t.Fatal("Jia uses a disjoint buffer switch NoC")
	}
}

func TestPUMAMatchesFigure18(t *testing.T) {
	a := PUMAAccelerator()
	if a.Chip.CoreCount() != 138 || a.Core.XBCount() != 2 {
		t.Fatalf("PUMA: %d cores × %d xbs, want 138×2", a.Chip.CoreCount(), a.Core.XBCount())
	}
	if a.Mode != XBM || a.XB.Device != ReRAM || a.XB.CellBits != 2 {
		t.Fatal("PUMA must be XBM-mode 2-bit ReRAM")
	}
	if a.XB.ParallelRow != 128 {
		t.Fatal("PUMA activates all 128 rows")
	}
	if a.Chip.L0SizeKB != 96 || a.Chip.L0BW != 384 || a.Core.L1SizeKB != 1 {
		t.Fatal("PUMA buffers disagree with Figure 18")
	}
}

func TestJainMatchesFigure19(t *testing.T) {
	a := JainAccelerator()
	if a.Chip.CoreCount() != 4 || a.Core.XBCount() != 2 {
		t.Fatalf("Jain: %d cores × %d xbs, want 4×2", a.Chip.CoreCount(), a.Core.XBCount())
	}
	if a.XB.Rows != 256 || a.XB.Cols != 64 || a.XB.ParallelRow != 32 {
		t.Fatalf("Jain crossbar = %dx%d/%d, want 256x64/32", a.XB.Rows, a.XB.Cols, a.XB.ParallelRow)
	}
	if a.Mode != WLM || a.XB.Device != SRAM || a.XB.ADCBits != 6 {
		t.Fatal("Jain must be WLM-mode SRAM with 6-bit ADC")
	}
}

func TestToyMatchesTable2(t *testing.T) {
	a := ToyExample()
	if a.Chip.CoreCount() != 2 || a.Core.XBCount() != 2 {
		t.Fatal("toy must be 2 cores × 2 xbs")
	}
	if a.XB.Rows != 32 || a.XB.Cols != 128 || a.XB.ParallelRow != 16 || a.XB.CellBits != 2 {
		t.Fatal("toy crossbar disagrees with Table 2")
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := []func(*Arch){
		func(a *Arch) { a.Name = "" },
		func(a *Arch) { a.Mode = "nope" },
		func(a *Arch) { a.Chip.CoreRows = 0 },
		func(a *Arch) { a.Core.XBCols = -1 },
		func(a *Arch) { a.XB.Rows = 0 },
		func(a *Arch) { a.XB.ParallelRow = 0 },
		func(a *Arch) { a.XB.ParallelRow = a.XB.Rows + 1 },
		func(a *Arch) { a.XB.CellBits = 0 },
		func(a *Arch) { a.XB.DACBits = 0 },
		func(a *Arch) { a.XB.ADCBits = 0 },
		func(a *Arch) { a.XB.Device = "bogus" },
		func(a *Arch) { a.WeightBits = 0 },
		func(a *Arch) { a.ActBits = -8 },
		func(a *Arch) { a.Chip.CoreNoCCost = -1 },
	}
	for i, mut := range mutations {
		a := ISAACBaseline()
		mut(a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

// TestValidateRejectsOverflowingSizes: a description whose every field is
// positive but whose derived sizes overflow is refused, naming the size, and
// not a size short of overflow. The first two grids used to pass Validate and
// then divide by a zero core count, or report a negative one, in Compile.
func TestValidateRejectsOverflowingSizes(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Arch)
		want   string // "" for accepted
	}{
		{func(a *Arch) { a.Chip.CoreRows, a.Chip.CoreCols = 1<<32, 1<<32 }, "overflows the core count"},
		{func(a *Arch) { a.Chip.CoreRows, a.Chip.CoreCols = 3_037_000_500, 3_037_000_500 }, "overflows the core count"},
		{func(a *Arch) { a.Core.XBRows, a.Core.XBCols = 1<<40, 1<<40 }, "overflows the crossbars per core"},
		{func(a *Arch) { a.Chip.CoreRows, a.Core.XBRows = 1<<31, 1<<31 }, "overflow the chip's crossbar count"},
		{func(a *Arch) { a.XB.Rows, a.XB.Cols = 1<<32, 1<<32 }, "overflows the cells per crossbar"},
		{func(a *Arch) { a.Chip.CoreRows, a.Chip.CoreCols = 1<<20, 1<<20 }, ""},
		{func(a *Arch) { a.Chip.CoreRows, a.Chip.CoreCols = 1<<25, 1<<25 }, "overflow the weight capacity"},
		{func(a *Arch) { a.WeightBits = math.MaxInt }, "cells per weight"},
	} {
		a := ISAACBaseline()
		tc.mutate(a)
		err := a.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want accepted", a, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one naming %q", a, err, tc.want)
		}
	}
}

func TestModeOrdering(t *testing.T) {
	if !WLM.AtLeast(XBM) || !WLM.AtLeast(CM) || !XBM.AtLeast(CM) {
		t.Fatal("mode ordering broken")
	}
	if CM.AtLeast(XBM) || XBM.AtLeast(WLM) {
		t.Fatal("mode ordering inverted")
	}
	if !CM.AtLeast(CM) {
		t.Fatal("AtLeast must be reflexive")
	}
	if Mode("zzz").Valid() {
		t.Fatal("invalid mode accepted")
	}
}

func TestDerivedQuantities(t *testing.T) {
	a := ISAACBaseline()
	if got := a.CellsPerWeight(); got != 4 { // 8-bit weights / 2-bit cells
		t.Fatalf("CellsPerWeight = %d, want 4", got)
	}
	if got := a.DACPhases(); got != 8 { // 8-bit act / 1-bit DAC
		t.Fatalf("DACPhases = %d, want 8", got)
	}
	if got := a.RowGroups(128); got != 16 { // 128 rows / 8 parallel
		t.Fatalf("RowGroups(128) = %d, want 16", got)
	}
	if got := a.RowGroups(0); got != 0 {
		t.Fatalf("RowGroups(0) = %d, want 0", got)
	}
	if got := a.TotalCrossbars(); got != 768*16 {
		t.Fatalf("TotalCrossbars = %d", got)
	}
	if got := a.CellsPerCrossbar(); got != 128*128 {
		t.Fatalf("CellsPerCrossbar = %d", got)
	}
	// Capacity: 12288 crossbars × 16384 cells / 4 cells-per-weight.
	if got := a.WeightCapacity(); got != 12288*16384/4 {
		t.Fatalf("WeightCapacity = %d", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := ISAACBaseline()
	c := a.Clone()
	c.Chip.CoreRows = 1
	c.XB.Rows = 1
	if a.Chip.CoreRows == 1 || a.XB.Rows == 1 {
		t.Fatal("Clone shares state with the original")
	}
}

func TestDeviceProfiles(t *testing.T) {
	for _, d := range []Device{SRAM, ReRAM, Flash, PCM, STTMRAM} {
		if !d.Valid() {
			t.Fatalf("%s should be valid", d)
		}
		p := d.Profile()
		if p.ReadLatency <= 0 || p.WriteLatency <= 0 {
			t.Fatalf("%s has non-positive latencies", d)
		}
	}
	// The scheduling-relevant ordering: SRAM writes cheap, ReRAM expensive,
	// Flash worst.
	if !(SRAM.Profile().WriteLatency < ReRAM.Profile().WriteLatency) {
		t.Fatal("ReRAM writes must cost more than SRAM")
	}
	if !(ReRAM.Profile().WriteLatency < Flash.Profile().WriteLatency) {
		t.Fatal("Flash writes must cost more than ReRAM")
	}
	if Device("bogus").Valid() {
		t.Fatal("bogus device accepted")
	}
}

func TestDeviceProfileUnknownFallsBack(t *testing.T) {
	// Unknown devices are rejected by Validate; Profile itself must never
	// panic and falls back to the neutral SRAM-like profile.
	p := Device("bogus").Profile()
	if p.ReadLatency != 1 || p.WriteLatency != 1 || !p.WritesAllowed {
		t.Fatalf("unknown device profile = %+v, want neutral fallback", p)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		a, _ := Preset(name)
		data, err := Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if *b != *a {
			t.Fatalf("preset %q changed in JSON round trip:\n%+v\nvs\n%+v", name, a, b)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	a := ISAACBaseline()
	a.XB.Rows = 0
	if _, err := Encode(a); err == nil {
		t.Fatal("encoded invalid arch")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("accepted incomplete arch JSON")
	}
	if _, err := Decode([]byte(`{`)); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}

// Property: RowGroups(r) × ParallelRow always covers r, and never
// over-covers by a full group.
func TestRowGroupsProperty(t *testing.T) {
	a := ISAACBaseline()
	f := func(r uint16) bool {
		rows := int(r%2048) + 1
		g := a.RowGroups(rows)
		return g*a.XB.ParallelRow >= rows && (g-1)*a.XB.ParallelRow < rows
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
