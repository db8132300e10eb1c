package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"cimmlc"
)

// weightSeed is cimserve's default -weight-seed; every workload uses it so
// the programs measured are the ones a default gateway serves.
const weightSeed = 42

// looseFloatTol is the float-reference tolerance for executables that have no
// single quantized reference (host-partitioned programs, cross-chip
// pipelines). Measured on the seeded inputs, their quantization error reaches
// 0.5-1.0 of the output's largest magnitude (random weights, 10 near-zero
// logits), so this catches a zeroed or garbage output and nothing subtler;
// bit-identity with the verified output is what the timed phase enforces.
const looseFloatTol = 1.0

// jiaSmallName is the serve-fleet architecture: jia-isscc21 with a 2x4 core
// grid, small enough that mlp exceeds one chip under stationary weights and
// the fleet serves it as a two-stage pipeline.
const jiaSmallName = "jia-small"

// cell is one (model, architecture) pair.
type cell struct{ Model, Arch string }

func (c cell) String() string { return c.Model + "." + c.Arch }

func (c cell) arch() (*cimmlc.Arch, error) {
	if c.Arch != jiaSmallName {
		return cimmlc.Preset(c.Arch)
	}
	a, err := cimmlc.Preset("jia-isscc21")
	if err != nil {
		return nil, err
	}
	a.Name = jiaSmallName
	a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
	return a, nil
}

// newRand derives a generator from the run's seed and a per-use stream.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// seededInputs makes n distinct requests for an input schema (node ID ->
// shape), values uniform in [-1, 1), the range the default calibration
// assumes.
func seededInputs(schema map[int][]int, rng *rand.Rand, n int) []map[int]*cimmlc.Tensor {
	ids := make([]int, 0, len(schema))
	for id := range schema {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	reqs := make([]map[int]*cimmlc.Tensor, n)
	for i := range reqs {
		in := make(map[int]*cimmlc.Tensor, len(ids))
		for _, id := range ids {
			t := cimmlc.NewTensor(schema[id]...)
			t.Rand(rng.Uint64()|1, 1)
			in[id] = t
		}
		reqs[i] = in
	}
	return reqs
}

// graphSchema is a zoo graph's input schema before any Program exists.
func graphSchema(g *cimmlc.Graph) (map[int][]int, error) {
	g = g.Clone()
	if err := g.InferShapes(); err != nil {
		return nil, err
	}
	schema := map[int][]int{}
	for _, id := range g.InputIDs() {
		schema[id] = g.MustNode(id).OutShape
	}
	return schema, nil
}

// hashTensors folds node IDs, shapes and float bits into one FNV-1a hash:
// two outputs hash alike only when they are bit-identical.
func hashTensors(out map[int]*cimmlc.Tensor) uint64 {
	ids := make([]int, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := fnv.New64a()
	var buf [4096]byte
	word := func(n int, v uint32) int {
		buf[n], buf[n+1], buf[n+2], buf[n+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return n + 4
	}
	for _, id := range ids {
		n := word(0, uint32(id))
		for _, d := range out[id].Shape() {
			n = word(n, uint32(d))
		}
		h.Write(buf[:n])
		n = 0
		for _, v := range out[id].Data() {
			if n = word(n, math.Float32bits(v)); n == len(buf) {
				h.Write(buf[:n])
				n = 0
			}
		}
		h.Write(buf[:n])
	}
	return h.Sum64()
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// setSim compiles every cell with the production-default options and stores
// the geometric means of the simulated cycles, energy and peak power as the
// sim_* metrics: simulated time of the modelled chip, not host time.
func setSim(r *WorkloadResult, cells []cell) error {
	var cycles, energy, power []float64
	for _, c := range cells {
		a, err := c.arch()
		if err != nil {
			return err
		}
		comp, err := cimmlc.New(a, cimmlc.WithCache(0), cimmlc.WithHostFallback(), cimmlc.WithoutVerifyIR())
		if err != nil {
			return err
		}
		g, err := cimmlc.Model(c.Model)
		if err != nil {
			return err
		}
		res, err := comp.Compile(context.Background(), g)
		if err != nil {
			return fmt.Errorf("sim %s: %w", c, err)
		}
		cycles = append(cycles, res.Report.Cycles)
		energy = append(energy, res.Report.Energy)
		power = append(power, res.Report.PeakPower.Total())
	}
	setSimFrom(r, cycles, energy, power)
	return nil
}

func setSimFrom(r *WorkloadResult, cycles, energy, power []float64) {
	r.set("sim_cycles_gm", geomean(cycles), len(cycles))
	r.set("sim_energy_gm", geomean(energy), len(energy))
	r.set("sim_peak_power_gm", geomean(power), len(power))
}
