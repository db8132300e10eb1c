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
// run: three pure-CIM models and every mixed one (host-only operators, which
// the compiler offloads to the host). Larger models are covered by the
// compile-level digests.
func execModels() []string {
	return append([]string{"conv-relu", "mlp", "lenet5"}, cimmlc.MixedModelNames()...)
}

// shortZoo is the short matrix's models: the executed ones plus a deeper
// conv net and a transformer.
func shortZoo() []string { return append(execModels(), "vgg7", "vit-tiny") }

// tuneBudget bounds the autotune property family's search: small enough to
// keep the matrix fast, large enough to find real improvements (see
// checkTuneImprovement).
func tuneBudget() cimmlc.Budget {
	return cimmlc.Budget{MaxCandidates: 32, Beam: 2, MaxRounds: 6}
}

// ShortConfig is the always-on matrix: the short zoo, spanning conv nets,
// perceptrons, a transformer and mixed host/CIM graphs, on three presets
// spanning the paper's machine classes, at all three scheduling levels —
// with the cheap models executed through every serving path and every cell
// autotuned.
func ShortConfig() Config {
	return Config{
		Models:         shortZoo(),
		Archs:          []string{"isaac-baseline", "puma", "toy-table2"},
		Levels:         allLevels(),
		ExecModels:     execModels(),
		Requests:       3,
		Seed:           1,
		ScaleCheck:     true,
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
		TuneModels:     shortZoo(),
		TuneBudget:     tuneBudget(),
		PartitionCheck: true,
	}
}

// modelsExcept returns the zoo minus the given models.
func modelsExcept(skip ...string) []string {
	var out []string
	for _, m := range cimmlc.ModelNames() {
		if slices.Contains(skip, m) {
			continue
		}
		out = append(out, m)
	}
	return out
}
