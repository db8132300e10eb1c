// Serving: the compile-once / run-many execution model. A Program is built
// once — full compilation, codegen and crossbar weight programming — and
// then serves a stream of inference requests from many goroutines, the way
// a CIM accelerator with stationary weights serves traffic. The example
// verifies the program against the quantized reference, serves a batch
// through the bounded worker pool, demonstrates single-request calls from
// concurrent clients, and compares the per-request cost against building a
// program for every call.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"cimmlc"
)

const requests = 64

func main() {
	ctx := context.Background()
	g, err := cimmlc.Model("conv-relu")
	if err != nil {
		log.Fatal(err)
	}
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		log.Fatal(err)
	}
	c, err := cimmlc.New(a)
	if err != nil {
		log.Fatal(err)
	}
	weights := cimmlc.RandomWeights(g, 42)

	// A stream of requests, plus a calibration set drawn from the same
	// distribution (here: the first request).
	reqs := make([]map[int]*cimmlc.Tensor, requests)
	for i := range reqs {
		in := cimmlc.NewTensor(3, 32, 32)
		in.Rand(uint64(100+i), 1)
		reqs[i] = map[int]*cimmlc.Tensor{0: in}
	}

	// Compile + lower + program weights, exactly once.
	buildStart := time.Now()
	p, err := c.Build(ctx, g, weights, cimmlc.CodegenOptions{},
		cimmlc.WithCalibration(reqs[0]), cimmlc.WithWorkers(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built program for %s on %s in %v\n", g.Name, a.Name, time.Since(buildStart).Round(time.Microsecond))
	fmt.Printf("device estimate: %.0f cycles/inference\n", p.Result().Report.Cycles)

	if err := p.Verify(ctx, reqs[0], 0.05); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified bit-exactly against the quantized reference")

	// Serve the whole batch across the worker pool.
	batchStart := time.Now()
	outs, err := p.RunBatch(ctx, reqs)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(batchStart)
	outID := g.Outputs()[0]
	fmt.Printf("served %d requests in %v (%.0f ns/request); first output has %d elements\n",
		requests, wall.Round(time.Microsecond), float64(wall.Nanoseconds())/requests, outs[0][outID].Len())

	// Individual Run calls are safe from any number of goroutines — each
	// draws its own execution state from the program's pool.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Run(ctx, reqs[i]); err != nil {
				log.Fatal(err)
			}
		}(i)
	}
	wg.Wait()
	st := p.Stats()
	fmt.Printf("program stats: %d requests served, state pool %d hits / %d misses\n",
		st.Requests, st.PoolHits, st.PoolMisses)

	// What the Program amortizes: a Build per request pays lowering,
	// calibration and weight programming on every call (the compilation
	// itself is served from the compiler's cache).
	oldStart := time.Now()
	one, err := c.Build(ctx, g, weights, cimmlc.CodegenOptions{}, cimmlc.WithCalibration(reqs[0]))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := one.Run(ctx, reqs[0]); err != nil {
		log.Fatal(err)
	}
	oldPer := time.Since(oldStart)
	newPer := wall / requests
	fmt.Printf("per-request: Program.Run %v vs Build+Run %v (%.1fx)\n",
		newPer.Round(time.Microsecond), oldPer.Round(time.Microsecond),
		float64(oldPer)/float64(newPer))
}
