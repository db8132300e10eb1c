// custom_accelerator demonstrates the generality claim of the paper: a
// brand-new WLM-mode STT-MRAM accelerator is described from scratch with the
// Abs-arch parameters, serialized to the JSON config format, and a LeNet-5
// is compiled onto it with full verification — no compiler changes needed
// for a device/organization no preset covers.
package main

import (
	"context"
	"fmt"
	"log"

	"cimmlc"
	"cimmlc/internal/arch"
)

func main() {
	// An accelerator nobody shipped: 12 cores of 8 small 64×64 STT-MRAM
	// crossbars (1-bit cells), a quarter of the wordlines active at once,
	// modest buffers, an H-tree between cores.
	custom := &cimmlc.Arch{
		Name: "sttmram-htree",
		Mode: cimmlc.WLM,
		Chip: arch.ChipTier{
			CoreRows: 3, CoreCols: 4,
			CoreNoC: arch.NoCHTree, CoreNoCCost: 2,
			L0BW:   256,
			ALUOps: 512,
		},
		Core: arch.CoreTier{
			XBRows: 2, XBCols: 4,
			XBNoC:  arch.NoCIdeal,
			L1BW:   2048,
			ALUOps: 256,
		},
		XB: arch.XBTier{
			Rows: 64, Cols: 64,
			ParallelRow: 16,
			DACBits:     1, ADCBits: 6,
			Device: arch.STTMRAM, CellBits: 1,
		},
		WeightBits: 8, ActBits: 8,
	}
	if err := custom.Validate(); err != nil {
		log.Fatal(err)
	}

	// Round-trip through the on-disk config format.
	data, err := cimmlc.EncodeArch(custom)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("architecture config (%d bytes of JSON):\n%s\n\n", len(data), data)
	custom, err = cimmlc.DecodeArch(data)
	if err != nil {
		log.Fatal(err)
	}

	g, err := cimmlc.Model("lenet5")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	c, err := cimmlc.New(custom)
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Compile(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	r := res.Report
	fmt.Printf("compiled %s: levels %v, %d segments, %.0f cycles, peak power %.1f\n",
		g.Name, res.Schedule.Levels, len(res.Schedule.Segments), r.Cycles, r.PeakPower.Total())

	// Build the executable program — generate the flow, calibrate, program
	// the weights — and execute it, verifying numerics end to end.
	weights := cimmlc.RandomWeights(g, 99)
	in := cimmlc.NewTensor(1, 28, 28)
	in.Rand(100, 1)
	inputs := map[int]*cimmlc.Tensor{0: in}
	p, err := c.Build(ctx, g, weights, cimmlc.CodegenOptions{}, cimmlc.WithCalibration(inputs))
	if err != nil {
		log.Fatal(err)
	}
	st := p.Flow().Flow.Stats()
	fmt.Printf("flow: %d CIM ops, %d DCOM ops, %d DMOV ops\n", st.CIMOps, st.DCOMOps, st.DMOVOps)

	if err := p.Verify(ctx, inputs, 0.15); err != nil {
		log.Fatal(err)
	}
	fmt.Println("flow verified bit-exactly against the quantized reference")

	outs, err := p.Run(ctx, inputs)
	if err != nil {
		log.Fatal(err)
	}
	logits := outs[g.Outputs()[0]]
	fmt.Printf("logits: %v\n", logits.Data())
}
