package conformance

import (
	"slices"
	"time"

	"cimmlc"
)

// allLevels orders the computing modes coarse to fine, as the
// level-monotonicity invariant requires.
func allLevels() []cimmlc.Mode { return []cimmlc.Mode{cimmlc.CM, cimmlc.XBM, cimmlc.WLM} }

// execModels are the models cheap enough to push through the full
// bit-identity battery (functional simulation across every serving path) on every
// run. Larger models are covered by the compile-level digests.
func execModels() []string { return []string{"conv-relu", "mlp", "lenet5"} }

// tuneBudget bounds the autotune property family's search: small enough to
// keep the matrix fast, large enough to find real improvements (see
// checkTuneImprovement).
func tuneBudget() cimmlc.Budget {
	return cimmlc.Budget{MaxCandidates: 32, Beam: 2, MaxRounds: 6}
}

// ShortConfig is the always-on matrix: five models spanning conv nets,
// perceptrons and a transformer, on three presets spanning the paper's
// machine classes, at all three scheduling levels — with the three cheap
// models executed through every serving path and every cell autotuned.
func ShortConfig() Config {
	return Config{
		Models:         []string{"conv-relu", "mlp", "lenet5", "vgg7", "vit-tiny"},
		Archs:          []string{"isaac-baseline", "puma", "toy-table2"},
		Levels:         allLevels(),
		ExecModels:     execModels(),
		Requests:       3,
		Seed:           1,
		ScaleCheck:     true,
		ScaleModels:    []string{"conv-relu", "mlp", "lenet5", "vgg7", "vit-tiny"},
		TuneCheck:      true,
		TuneBudget:     tuneBudget(),
		PartitionCheck: true,
	}
}

// RaceConfig shrinks the sweep for race-instrumented runs, which cost
// roughly an order of magnitude per cell: only the executed models (where
// the concurrency coverage lives — concurrent RunBatch, the Batcher and the
// HTTP gateway), no scale recompiles.
func RaceConfig() Config {
	return Config{
		Models:     execModels(),
		Archs:      []string{"isaac-baseline", "puma", "toy-table2"},
		Levels:     allLevels(),
		ExecModels: execModels(),
		Requests:   3,
		Seed:       1,
	}
}

// FullConfig sweeps the entire model zoo across every preset and level.
// Execution stays on the cheap models (now on all five presets); the
// determinism recompile is skipped for cells whose first compilation
// exceeded two seconds (in practice only resnet152 on isaac-baseline);
// scale checks skip the two deepest ResNets for the same reason.
func FullConfig() Config {
	return Config{
		Models:            modelsExcept(),
		Archs:             cimmlc.Presets(),
		Levels:            allLevels(),
		ExecModels:        execModels(),
		Requests:          3,
		Seed:              1,
		ScaleCheck:        true,
		ScaleModels:       modelsExcept("resnet101", "resnet152"),
		DeterminismBudget: 2 * time.Second,
		// The autotune family stays on the short-zoo models: each check
		// costs two tuned compilations per cell, which the deep ResNets
		// cannot afford in CI.
		TuneCheck:      true,
		TuneModels:     []string{"conv-relu", "mlp", "lenet5", "vgg7", "vit-tiny"},
		TuneBudget:     tuneBudget(),
		PartitionCheck: true,
	}
}

// modelsExcept returns the pure-CIM zoo minus any additional skips. Mixed
// models (host-only operators) are always excluded: they cannot compile
// without host fallback, and RunMixed sweeps them separately.
func modelsExcept(skip ...string) []string {
	var out []string
	for _, m := range cimmlc.ModelNames() {
		if cimmlc.ModelMixed(m) || slices.Contains(skip, m) {
			continue
		}
		out = append(out, m)
	}
	return out
}
