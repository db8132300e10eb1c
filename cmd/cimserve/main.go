// Command cimserve is the CIM-MLC serving gateway: an HTTP server that
// routes inference requests to compiled Programs, one per (model, arch)
// pair, each fronted by a dynamic micro-batching queue: a request runs at once
// when its executor is idle, and the requests that queue while it is busy form
// the next batch of at most -max-batch.
//
// Usage:
//
//	cimserve                                     # serve on :8080
//	cimserve -addr :9000 -max-batch 16           # tune the batcher
//	cimserve -arch-file my-accelerator.json      # register a user arch
//	cimserve -preload conv-relu:toy-table2       # build before first request
//	cimserve -replicas 2 -max-replicas 8         # fleet: 2 chips/model, autoscaling to 8
//
// With -replicas N (N ≥ 1) each (model, arch) pair is served by a fleet of
// N replicas behind a least-loaded router; -max-replicas M (M > N)
// additionally lets queue depth autoscale the fleet up to M replicas. The
// compiler decides how many chips a replica occupies: a model whose weights
// fit one chip is served from one, a larger one is cut across as many chips
// as it needs and its requests pipelined over them (GET /v1/fleet reports
// mode "pipeline" and the chips per replica as "stages"). Without -replicas
// such a model is served from one chip, reloading weights as it goes.
//
// Routes:
//
//	GET  /healthz    liveness (503 while draining)
//	GET  /v1/models  servable models, archs and resident programs
//	GET  /v1/fleet   per-(model, arch) fleet state (empty without -replicas)
//	POST /v1/archs   register a user architecture (body: arch JSON)
//	POST /v1/run     run one inference (body: serving.RunRequest JSON)
//
// Example:
//
//	curl -s localhost:8080/v1/run \
//	  -d '{"model":"conv-relu","arch":"toy-table2","seed":1}'
//
// SIGINT/SIGTERM trigger a graceful drain: queued requests finish, new
// ones are rejected, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cimmlc/serving"
	"cimmlc/serving/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxBatch := flag.Int("max-batch", 8, "most requests one micro-batch carries")
	queue := flag.Int("queue", 0, "submit queue capacity (0 = 4×max-batch)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout, queueing included")
	seed := flag.Uint64("weight-seed", 42, "seed for the zoo models' deterministic weights")
	hostFallback := flag.Bool("host-fallback", true, "partition models with host-only operators onto the host CPU")
	replicas := flag.Int("replicas", 0, "chip replicas per (model, arch); 0 serves one batcher per pair with no fleet")
	maxReplicas := flag.Int("max-replicas", 0, "autoscaling ceiling for -replicas fleets (0 = fixed at -replicas)")
	var archFiles, preloads stringList
	flag.Var(&archFiles, "arch-file", "architecture JSON file to register (repeatable)")
	flag.Var(&preloads, "preload", "model:arch pair to build at startup (repeatable)")
	flag.Parse()

	if err := run(*addr, *maxBatch, *queue, *timeout, *seed, *hostFallback, *replicas, *maxReplicas, archFiles, preloads); err != nil {
		fmt.Fprintf(os.Stderr, "cimserve: %v\n", err)
		os.Exit(1)
	}
}

// newGateway assembles the gateway the flags describe: the registry with the
// user architectures registered, the batching and fleet configuration, and
// every -preload pair built.
func newGateway(maxBatch, queue int, timeout time.Duration, seed uint64, hostFallback bool, replicas, maxReplicas int, archFiles, preloads []string) (*serving.Server, error) {
	if replicas < 0 || maxReplicas < 0 {
		return nil, fmt.Errorf("-replicas and -max-replicas must be non-negative")
	}
	if maxReplicas > 0 && replicas == 0 {
		return nil, fmt.Errorf("-max-replicas requires -replicas")
	}
	if maxReplicas > 0 && maxReplicas < replicas {
		return nil, fmt.Errorf("-max-replicas %d < -replicas %d", maxReplicas, replicas)
	}
	regOpts := []serving.RegistryOption{serving.WithWeightSeed(seed)}
	if hostFallback {
		regOpts = append(regOpts, serving.WithHostFallback())
	}
	reg := serving.NewRegistry(regOpts...)
	for _, f := range archFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		name, err := reg.RegisterArchJSON(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		fmt.Printf("registered architecture %q from %s\n", name, f)
	}
	batch := serving.BatcherConfig{MaxBatch: maxBatch, Queue: queue}
	cfg := serving.ServerConfig{Batch: batch, RequestTimeout: timeout}
	if replicas > 0 {
		cfg.Runner = fleet.Factory(fleet.Config{
			Replicas:    replicas,
			MinReplicas: replicas,
			MaxReplicas: maxReplicas, // 0 defaults to Replicas (fixed size)
			Batcher:     batch,
		})
	}
	gw := serving.NewServer(reg, cfg)
	for _, p := range preloads {
		model, arch, ok := strings.Cut(p, ":")
		if !ok {
			gw.Close()
			return nil, fmt.Errorf("-preload %q: want model:arch", p)
		}
		start := time.Now()
		// Through the gateway, not the registry: what must be warm is the
		// runner requests reach (with -replicas, the fleet's own replicas).
		if _, err := gw.Runner(context.Background(), model, arch); err != nil {
			gw.Close()
			return nil, fmt.Errorf("-preload %s: %w", p, err)
		}
		fmt.Printf("preloaded %s on %s in %v\n", model, arch, time.Since(start).Round(time.Millisecond))
	}
	return gw, nil
}

func run(addr string, maxBatch, queue int, timeout time.Duration, seed uint64, hostFallback bool, replicas, maxReplicas int, archFiles, preloads []string) error {
	gw, err := newGateway(maxBatch, queue, timeout, seed, hostFallback, replicas, maxReplicas, archFiles, preloads)
	if err != nil {
		return err
	}

	srv := &http.Server{Addr: addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if replicas > 0 {
		ceiling := maxReplicas
		if ceiling == 0 {
			ceiling = replicas
		}
		fmt.Printf("cimserve listening on %s (batch %d, fleet %d-%d replicas)\n", addr, maxBatch, replicas, ceiling)
	} else {
		fmt.Printf("cimserve listening on %s (batch %d)\n", addr, maxBatch)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("received %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Stop accepting connections first, then drain the batchers so queued
	// requests still get answers.
	err = srv.Shutdown(ctx)
	gw.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("drained cleanly")
	return nil
}

// stringList is a repeatable flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
