package cost

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/mapping"
	"cimmlc/internal/models"
)

// digitalOpCost is Op on a digital node and an error on any other.
func digitalOpCost(m *Model, node int) (OpCost, error) {
	if op := m.Graph.MustNode(node).Op; op.CIMSupported() || op == graph.OpInput {
		return OpCost{}, fmt.Errorf("cost: node %d (%s) is not a digital operator", node, m.Graph.MustNode(node).Op)
	}
	return m.Op(node, 1, 1)
}

func toyModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(models.ConvReLU(), arch.ToyExample())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCIMOpToyNumbers(t *testing.T) {
	m := toyModel(t)
	node := m.Graph.CIMNodeIDs()[0]
	c, err := m.CIMOp(node, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Toy: 8 DAC phases × 2 row groups (27 rows / 16 parallel) × SRAM read 1
	// + merge (1 row stripe → log2 0) + 1 ADC drain = 17 compute cycles.
	if c.Compute != 17 {
		t.Fatalf("compute = %v, want 17", c.Compute)
	}
	if c.Windows != 1024 {
		t.Fatalf("windows = %d, want 1024", c.Windows)
	}
	if c.Rounds != 1 || c.Reload != 0 {
		t.Fatalf("rounds/reload = %d/%v, want 1/0", c.Rounds, c.Reload)
	}
}

// cimFromScratch is CIMOp as it stood before the model kept a table: every
// term derived from the footprint and the architecture on each call, the
// rounds after the first written by later (laterRoundsByTile). Like CIMOp it
// prices the setting as given, with no clamp or fallback.
func cimFromScratch(m *Model, node, dup, remap, later int) OpCost {
	f, a := &m.FPs[node], m.Arch
	rounds := f.Rounds
	groups := ceilDiv(f.RowGroups, remap)
	phases := float64(a.DACPhases())
	read := a.XB.Device.Profile().ReadLatency
	merge := log2Ceil(f.TilesR*remap) + 1
	compute := phases*float64(groups)*read + float64(merge)
	inBits := int64(f.Rows) * int64(a.ActBits)
	outBits := int64(f.Cols) * int64(a.ActBits)
	io := arch.BufferCycles(inBits, a.Core.L1BW) + arch.BufferCycles(outBits, a.Core.L1BW)
	var reload float64
	if rounds > 1 {
		reload = float64(later) * a.XB.Device.Profile().WriteLatency
	}
	return OpCost{
		Windows:   ceilDiv64(f.MVMs, int64(dup)),
		PerWindow: math.Max(compute, io),
		Compute:   compute,
		IO:        io,
		Rounds:    rounds,
		Reload:    reload,
		FirstFrac: m.firstFrac(m.Graph.Nodes[node]),
	}
}

// laterRoundsByTile is what the rounds after the first of oversized node
// write, from scratch: the node placed alone in a segment, at one copy and
// remap 1, its tiles walked, and per round the most wordlines any core
// writes, summed.
func laterRoundsByTile(m *Model, node int) int {
	var segs [][]int
	for _, id := range m.Graph.CIMNodeIDs() {
		segs = append(segs, []int{id})
	}
	p, err := mapping.Place(context.Background(), m.Graph, m.Arch, m.FPs, nil, nil, segs)
	if err != nil {
		panic(err)
	}
	perCore := map[[2]int]int{}
	busiest := map[int]int{}
	for _, t := range p.TilesOf(node) {
		k := [2]int{t.Round, t.Core}
		perCore[k] += t.Rows
		busiest[t.Round] = max(busiest[t.Round], perCore[k])
	}
	sum := 0
	for r := 1; r < len(busiest); r++ {
		sum += busiest[r]
	}
	return sum
}

// TestTableMatchesPricingFromScratch holds CIMOp, which starts from the
// node's row, to pricing the node from scratch, bit for bit,
// on every zoo model and preset at several copy counts and every remap up to
// one past the row groups, settings placement refuses included (neither side
// clamps); on every other node Op answers the cost the node is priced at now.
func TestTableMatchesPricingFromScratch(t *testing.T) {
	for _, name := range models.Names() {
		for _, preset := range arch.PresetNames() {
			g, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := arch.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(g, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range g.Nodes {
				if !n.Op.CIMSupported() {
					want := OpCost{Rounds: 1}
					if n.Op != graph.OpInput {
						want = m.digitalCost(n)
					}
					if got, err := m.Op(n.ID, 3, 2); err != nil || got != want {
						t.Fatalf("%s.%s node %d: Op %+v (%v), priced now %+v", name, preset, n.ID, got, err, want)
					}
					continue
				}
				later := 0
				if m.FPs[n.ID].Rounds > 1 {
					later = laterRoundsByTile(m, n.ID)
				}
				for _, dup := range []int{1, 2, 3, 7} {
					for remap := 1; remap <= m.FPs[n.ID].RowGroups+1; remap++ {
						got, err := m.Op(n.ID, dup, remap)
						if want := cimFromScratch(m, n.ID, dup, remap, later); err != nil || got != want {
							t.Fatalf("%s.%s node %d dup %d remap %d: %+v (%v), from scratch %+v", name, preset, n.ID, dup, remap, got, err, want)
						}
					}
				}
			}
		}
	}
}

// TestRowChargesTheFootprintRule pins what each row charges the duplication
// search, on every zoo node and preset, against the footprint: one copy takes
// its CoresPerCopy, and as many copies as the chip's crossbars hold, at most
// one per window and at least one, may be tried; an oversized operator takes
// the whole chip and one copy. A digital or input node's row charges
// nothing (0 and 0), and every CIM copy holds a crossbar, so Cores > 0 is
// exactly the CIM nodes.
func TestRowChargesTheFootprintRule(t *testing.T) {
	oversized := 0
	for _, name := range models.Names() {
		for _, preset := range arch.PresetNames() {
			g, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := arch.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(g, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range g.Nodes {
				f := &m.FPs[n.ID]
				cores, maxDup := 0, 0
				switch {
				case !n.Op.CIMSupported():
				case f.Rounds > 1:
					cores, maxDup = a.Chip.CoreCount(), 1
					oversized++
				default:
					cores, maxDup = f.CoresPerCopy, 1
					for d := 2; int64(d) <= f.MVMs && d*f.XBsPerCopy <= a.TotalCrossbars(); d++ {
						maxDup = d
					}
				}
				if n.Op.CIMSupported() && (f.XBsPerCopy < 1 || cores < 1) {
					t.Fatalf("%s.%s node %d: a copy holds %d crossbars on %d cores", name, preset, n.ID, f.XBsPerCopy, cores)
				}
				if r := m.Rows[n.ID]; r.Cores != cores || r.MaxDup != maxDup {
					t.Fatalf("%s.%s node %d (%s, %d rounds): row charges %d cores, %d copies at most; want %d, %d",
						name, preset, n.ID, n.Op, f.Rounds, r.Cores, r.MaxDup, cores, maxDup)
				}
			}
		}
	}
	if oversized == 0 {
		t.Error("no zoo node is oversized: the whole-chip charge went unchecked")
	}
}

func TestCIMOpDuplicationDividesWindows(t *testing.T) {
	m := toyModel(t)
	node := m.Graph.CIMNodeIDs()[0]
	c1, _ := m.CIMOp(node, 1, 1)
	c4, _ := m.CIMOp(node, 4, 1)
	if c4.Windows != c1.Windows/4 {
		t.Fatalf("dup-4 windows = %d, want %d", c4.Windows, c1.Windows/4)
	}
	if c4.PerWindow != c1.PerWindow {
		t.Fatal("duplication must not change per-window cycles")
	}
	if c4.Run() >= c1.Run() {
		t.Fatal("duplication must reduce run time")
	}
}

func TestCIMOpRemapReducesCompute(t *testing.T) {
	m := toyModel(t)
	node := m.Graph.CIMNodeIDs()[0]
	c1, _ := m.CIMOp(node, 1, 1)
	c2, _ := m.CIMOp(node, 1, 2)
	// Remap 2 halves the row groups: 8×1×1 + merge(2 stripes→1) + 1 = 10.
	if c2.Compute >= c1.Compute {
		t.Fatalf("remap did not reduce compute: %v vs %v", c2.Compute, c1.Compute)
	}
	if c2.Compute != 10 {
		t.Fatalf("remapped compute = %v, want 10", c2.Compute)
	}
}

func TestCIMOpErrors(t *testing.T) {
	m := toyModel(t)
	node := m.Graph.CIMNodeIDs()[0]
	if _, err := m.CIMOp(2, 1, 1); err == nil { // relu
		t.Fatal("accepted non-CIM node")
	}
	if _, err := m.CIMOp(node, 0, 1); err == nil {
		t.Fatal("accepted dup 0")
	}
	if _, err := m.CIMOp(node, 1, 0); err == nil {
		t.Fatal("accepted remap 0")
	}
}

func TestDigitalOpReLU(t *testing.T) {
	m := toyModel(t)
	c, err := digitalOpCost(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	// ReLU over [32,32,32]: 1024 windows of 32 elements each; toy has ideal
	// ALU (0 → unconstrained), so only the movement floor applies.
	if c.Windows != 1024 {
		t.Fatalf("relu windows = %d, want 1024", c.Windows)
	}
	if c.PerWindow <= 0 {
		t.Fatal("relu per-window cycles must be positive")
	}
}

func TestDigitalOpALUBound(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	a.Chip.ALUOps = 8 // slow ALU
	m, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := digitalOpCost(m, 2)
	// 32 elements per window / 8 ops per cycle = 4 cycles.
	if c.PerWindow != 4 {
		t.Fatalf("ALU-bound relu per-window = %v, want 4", c.PerWindow)
	}
}

func TestDigitalOpErrors(t *testing.T) {
	m := toyModel(t)
	if _, err := digitalOpCost(m, 1); err == nil { // conv
		t.Fatal("accepted CIM node as digital")
	}
	if _, err := digitalOpCost(m, 0); err == nil { // input
		t.Fatal("accepted input node as digital")
	}
}

func TestOpDispatch(t *testing.T) {
	m := toyModel(t)
	in, _ := m.Op(0, 1, 1)
	if in.Windows != 0 {
		t.Fatal("input node should cost nothing")
	}
	conv, _ := m.Op(1, 2, 1)
	if conv.Windows != 512 {
		t.Fatalf("conv windows = %d, want 512", conv.Windows)
	}
	relu, _ := m.Op(2, 1, 1)
	if relu.Windows != 1024 {
		t.Fatalf("relu windows = %d", relu.Windows)
	}
}

func TestOversizedOpRoundsAndReload(t *testing.T) {
	b := graph.NewBuilder("big", 4096)
	b.Dense(512)
	g := b.MustFinish()
	a := arch.ToyExample() // 4 crossbars of 32×128
	m, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	node := g.CIMNodeIDs()[0]
	c, err := m.CIMOp(node, 1, 1) // the one setting placement accepts for it
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds <= 1 {
		t.Fatalf("rounds = %d, want >1", c.Rounds)
	}
	if c.Reload <= 0 {
		t.Fatal("oversized op must pay reload cycles")
	}
	if c.Windows != 1 {
		t.Fatalf("oversized dense windows = %d, want 1", c.Windows)
	}
	// Every round after the first reprograms both cores' two crossbars, 32
	// wordlines each; the first is the segment's to program.
	if want := m.Program((c.Rounds - 1) * 2 * 32); c.Reload != want {
		t.Fatalf("reload = %v over %d rounds, want %v", c.Reload, c.Rounds, want)
	}
	want := float64(c.Rounds)*float64(c.Windows)*c.PerWindow + c.Reload
	if c.Run() != want {
		t.Fatalf("Run = %v, want %v", c.Run(), want)
	}
}

func TestReloadScalesWithDeviceWriteLatency(t *testing.T) {
	b := graph.NewBuilder("big", 4096)
	b.Dense(512)
	g := b.MustFinish()
	sram := arch.ToyExample()
	reram := arch.ToyExample()
	reram.XB.Device = arch.ReRAM
	ms, _ := New(g, sram)
	mr, _ := New(g, reram)
	node := g.CIMNodeIDs()[0]
	cs, _ := ms.CIMOp(node, 1, 1)
	cr, _ := mr.CIMOp(node, 1, 1)
	if cr.Reload <= cs.Reload {
		t.Fatalf("ReRAM reload %v must exceed SRAM reload %v", cr.Reload, cs.Reload)
	}
}

func TestFirstFrac(t *testing.T) {
	g := models.ResNet18()
	a := arch.ISAACBaseline()
	m, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// Stem conv: kernel 7 over 224 input rows.
	stem := g.CIMNodeIDs()[0]
	c, _ := m.CIMOp(stem, 1, 1)
	if math.Abs(c.FirstFrac-7.0/224) > 1e-9 {
		t.Fatalf("stem first frac = %v, want 7/224", c.FirstFrac)
	}
	// The final Dense consumes a vector: frac must be 1.
	ids := g.CIMNodeIDs()
	head := ids[len(ids)-1]
	ch, _ := m.CIMOp(head, 1, 1)
	if ch.FirstFrac != 1 {
		t.Fatalf("head first frac = %v, want 1", ch.FirstFrac)
	}
	// Elementwise ReLU can start almost immediately.
	for _, n := range g.Nodes {
		if n.Op == graph.OpReLU {
			cr, _ := digitalOpCost(m, n.ID)
			if cr.FirstFrac > 0.05 {
				t.Fatalf("relu first frac = %v, want ≈0", cr.FirstFrac)
			}
			break
		}
	}
}

func TestViTMatMulCost(t *testing.T) {
	g := models.ViTTiny()
	a := arch.ISAACBaseline()
	m, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Op == graph.OpMatMul {
			c, err := digitalOpCost(m, n.ID)
			if err != nil {
				t.Fatal(err)
			}
			if c.Windows != int64(n.OutShape[0]) {
				t.Fatalf("matmul windows = %d, want %d", c.Windows, n.OutShape[0])
			}
			if c.PerWindow <= 0 {
				t.Fatal("matmul per-window must be positive")
			}
			return
		}
	}
	t.Fatal("no matmul found in ViT")
}

func TestPowerDecompositionMatchesPaperSplit(t *testing.T) {
	a := arch.PUMAAccelerator()
	p := PeakPower(a, 100)
	total := p.Total()
	xbShare := p.XB / total
	adcShare := p.ADCDAC / total
	moveShare := p.Move / total
	// §4.2: ADC/DAC 10%, crossbar 83%, movement 7%.
	if math.Abs(xbShare-0.83) > 0.01 {
		t.Fatalf("XB share = %.3f, want ≈0.83", xbShare)
	}
	if math.Abs(adcShare-0.10) > 0.01 {
		t.Fatalf("ADC/DAC share = %.3f, want ≈0.10", adcShare)
	}
	if math.Abs(moveShare-0.07) > 0.01 {
		t.Fatalf("movement share = %.3f, want ≈0.07", moveShare)
	}
}

func TestADCDACPowerScalesWithPrecision(t *testing.T) {
	hi := arch.ISAACBaseline()   // 8-bit ADC
	lo := arch.JainAccelerator() // 6-bit ADC
	if !(ADCDACPower(lo) < ADCDACPower(hi)) {
		t.Fatal("lower-precision ADC should draw less power")
	}
}

func TestReadEnergyPositive(t *testing.T) {
	for _, name := range arch.PresetNames() {
		a, _ := arch.Preset(name)
		if ReadEnergyPerXBWindow(a) <= 0 {
			t.Fatalf("%s: non-positive read energy", name)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Fatalf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
