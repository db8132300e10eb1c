// Quickstart: the §3.4 walkthrough of the paper. Compiles the Conv-ReLU
// micro-network onto the Table-2 toy machine under all three computing
// modes using the Compiler API, prints the head of each generated
// meta-operator flow (Figure 16 c/d/e), executes the complete flow on the
// functional simulator and verifies it bit-exactly against the quantized
// reference. Build compiles through the compiler's artifact cache, so it is
// served the result of the Compile before it, and a trace hook shows which
// pipeline passes ran.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"cimmlc"
)

func main() {
	ctx := context.Background()
	g, err := cimmlc.Model("conv-relu")
	if err != nil {
		log.Fatal(err)
	}
	weights := cimmlc.RandomWeights(g, 42)
	in := cimmlc.NewTensor(3, 32, 32)
	in.Rand(7, 1)

	for _, mode := range []cimmlc.Mode{cimmlc.CM, cimmlc.XBM, cimmlc.WLM} {
		a, err := cimmlc.Preset("toy-table2")
		if err != nil {
			log.Fatal(err)
		}
		a.Mode = mode

		var ran []string
		c, err := cimmlc.New(a, cimmlc.WithTrace(func(ev cimmlc.TraceEvent) {
			if !ev.Skipped {
				ran = append(ran, ev.Pass)
			}
		}))
		if err != nil {
			log.Fatal(err)
		}

		res, err := c.Compile(ctx, g)
		if err != nil {
			log.Fatal(err)
		}
		inputs := map[int]*cimmlc.Tensor{0: in}
		p, err := c.Build(ctx, g, weights, cimmlc.CodegenOptions{}, cimmlc.WithCalibration(inputs))
		if err != nil {
			log.Fatal(err)
		}
		flow := p.Flow()

		fmt.Printf("===== %s mode =====\n", mode)
		fmt.Printf("levels %v, latency %.0f cycles, %d crossbars programmed\n",
			res.Schedule.Levels, res.Report.Cycles, res.Report.XBsUsed)
		fmt.Printf("passes: %s\n", strings.Join(ran, " → "))
		fmt.Println(head(flow.Flow.Print(), 14))

		// Bit-exact against the quantized reference, within 5% of float.
		if err := p.Verify(ctx, inputs, 0.05); err != nil {
			log.Fatalf("%s flow failed verification: %v", mode, err)
		}
		fmt.Println("flow verified: bit-exact vs quantized reference")

		// Repeated traffic for the same model is memoized: Build's
		// compilation was a cache hit.
		st := c.Stats()
		fmt.Printf("cache: %d hit, %d miss, %d entries\n\n", st.Hits, st.Misses, st.Entries)
	}
}

func head(text string, lines int) string {
	parts := strings.SplitN(text, "\n", lines+1)
	if len(parts) > lines {
		parts[lines] = "  ... (truncated for display; the in-memory flow is complete)"
	}
	return strings.Join(parts, "\n")
}
