// Gateway: embedding the serving subsystem. The serving package turns
// compiled Programs into a multi-model, multi-architecture service: a
// Registry lazily builds and caches one Program per (model, arch) key, a
// Batcher in front of each Program converts request streams into
// micro-batches, and Server exposes the whole thing over HTTP — the same
// gateway cmd/cimserve runs as a standalone process.
//
// This example embeds the gateway in-process: it registers a custom
// architecture, serves requests for two models on two architectures
// through one Server, demonstrates the micro-batcher under concurrent
// clients, and drains gracefully.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

func main() {
	ctx := context.Background()

	// The registry maps (model, arch) keys to lazily-built Programs. The
	// default model source draws from the built-in zoo with deterministic
	// weights; production code supplies its own source via
	// serving.WithModelSource.
	reg := serving.NewRegistry(serving.WithWeightSeed(7))

	// User architectures register next to the presets — and malformed
	// descriptions fail here with a validation error instead of crashing
	// the process later.
	custom, err := cimmlc.Preset("toy-table2")
	if err != nil {
		log.Fatal(err)
	}
	custom.Name = "my-lab-chip"
	custom.Core.XBRows = 4 // twice the crossbars per core
	if err := reg.RegisterArch(custom); err != nil {
		log.Fatal(err)
	}

	// The server fronts every Program with a dynamic micro-batching queue:
	// a request runs at once when the executor is idle, and the requests
	// that queue while it is busy — at most MaxBatch of them — run together
	// as the next batch through RunBatch.
	gw := serving.NewServer(reg, serving.ServerConfig{
		Batch: serving.BatcherConfig{MaxBatch: 8},
	})
	defer gw.Close()

	// Embed the handler in any HTTP stack; here a test listener.
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	// Two models × two architectures resident at once, served through one
	// endpoint. The first request per key pays the build; the rest reuse
	// the cached Program.
	for _, key := range []serving.Key{
		{Model: "conv-relu", Arch: "toy-table2"},
		{Model: "conv-relu", Arch: "my-lab-chip"},
		{Model: "mlp", Arch: "my-lab-chip"},
	} {
		start := time.Now()
		body, _ := json.Marshal(serving.RunRequest{Model: key.Model, Arch: key.Arch, Seed: 1})
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var rr serving.RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s on %s: HTTP %d", key.Model, key.Arch, resp.StatusCode)
		}
		fmt.Printf("%-10s on %-12s -> %d output tensor(s) in %v (build on first use)\n",
			key.Model, key.Arch, len(rr.Outputs), time.Since(start).Round(time.Millisecond))
	}

	// Concurrent clients drive the micro-batcher: a backlog of MaxBatch
	// leaves as a size flush, a shorter one as an idle flush, and outputs
	// stay bit-identical to per-request runs.
	b, err := gw.Batcher(ctx, "conv-relu", "toy-table2")
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := cimmlc.NewTensor(3, 32, 32)
			in.Rand(uint64(100+i), 1)
			if _, err := b.Do(ctx, map[int]*cimmlc.Tensor{0: in}); err != nil {
				log.Fatal(err)
			}
		}(i)
	}
	wg.Wait()
	st := b.Stats()
	fmt.Printf("batcher: %d requests in %d batches (%.1f mean), %d size / %d idle flushes\n",
		st.Requests, st.Batches, float64(st.Requests)/float64(st.Batches),
		st.SizeFlushes, st.IdleFlushes)

	for _, info := range reg.Loaded() {
		fmt.Printf("resident: %s on %s — %d requests served\n",
			info.Key.Model, info.Key.Arch, info.Stats.Requests)
	}
	fmt.Println("draining gateway")
}
