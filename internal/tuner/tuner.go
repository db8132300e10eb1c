// Package tuner is the schedule autotuner: a deterministic, parallel,
// cost-model-guided local search over the §3.3 scheduling knob space
// (per-node duplication, WLM remapping, inter-operator pipelining, staggered
// activation, graph segmentation).
//
// The multi-level optimizers fill those knobs with one-shot analytic
// heuristics; the paper itself notes the space is architecture-dependent,
// and related compilers treat the equivalent choice as a per-layer search
// problem. The tuner starts from the heuristic schedule, repeatedly
// enumerates the bounded neighbor moves of Neighbors, scores candidates with
// the performance simulator over a bounded worker pool, and advances a beam
// of the best states. The incumbent starts as the heuristic schedule and is
// only replaced by a strictly cheaper candidate, so the result is never
// worse than the heuristic by construction.
//
// Determinism: candidates are generated in node-ID order, deduplicated by
// canonical schedule fingerprint, scored into an index-addressed slice, and
// selected with (cycles, generation index) ordering — so the result is
// bit-identical regardless of worker count or goroutine interleaving.
package tuner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cimmlc/internal/cost"
	"cimmlc/internal/perfsim"
	"cimmlc/internal/sched"
)

// Default search bounds (see Budget).
const (
	DefaultMaxCandidates = 96
	DefaultBeam          = 3
	DefaultMaxRounds     = 12
)

// Budget bounds the search. The zero value selects the defaults; Workers
// never affects the tuned schedule, only how fast it is found.
type Budget struct {
	// MaxCandidates caps the total number of candidate schedules scored by
	// the performance simulator. The search stops exactly at the cap.
	MaxCandidates int `json:"max_candidates"`
	// Beam is the number of best states kept between rounds; 1 is greedy
	// hill-climbing, larger beams can cross one-move plateaus (e.g. lower a
	// cold operator's duplication to free cores for the bottleneck).
	Beam int `json:"beam"`
	// MaxRounds caps the search depth (moves composed from the heuristic).
	MaxRounds int `json:"max_rounds"`
	// Workers bounds the concurrent candidate scorers; <=0 uses GOMAXPROCS.
	// It deliberately does not change the result, only the wall time.
	Workers int `json:"workers,omitempty"`
}

// Normalized returns b with defaults filled in for non-positive fields
// (Workers stays as given: it is resolved at run time and is excluded from
// artifact-cache fingerprints because it cannot change the result).
func (b Budget) Normalized() Budget {
	if b.MaxCandidates <= 0 {
		b.MaxCandidates = DefaultMaxCandidates
	}
	if b.Beam <= 0 {
		b.Beam = DefaultBeam
	}
	if b.MaxRounds <= 0 {
		b.MaxRounds = DefaultMaxRounds
	}
	return b
}

// Stats records what one tuning run did, for reports and serving telemetry.
type Stats struct {
	// HeuristicCycles is the latency of the seed schedule the level
	// optimizers produced; TunedCycles the latency of the returned schedule.
	HeuristicCycles float64 `json:"heuristic_cycles"`
	TunedCycles     float64 `json:"tuned_cycles"`
	// Improved is true when TunedCycles < HeuristicCycles.
	Improved bool `json:"improved"`
	// Evaluated counts candidate schedules scored (≤ Budget.MaxCandidates);
	// Rounds counts search rounds run.
	Evaluated int `json:"evaluated"`
	Rounds    int `json:"rounds"`
	// Moves is the accepted move chain from the heuristic schedule to the
	// returned one (empty when the heuristic was already best).
	Moves []string `json:"moves,omitempty"`
	// ScheduleFingerprint is the canonical fingerprint of the returned
	// schedule (sched.Fingerprint), for determinism checks.
	ScheduleFingerprint string `json:"schedule_fp"`
}

// Speedup returns HeuristicCycles / TunedCycles (1 when nothing improved).
func (s *Stats) Speedup() float64 {
	if s.TunedCycles <= 0 {
		return 1
	}
	return s.HeuristicCycles / s.TunedCycles
}

// entry is one search state: a schedule, its simulated latency, and the
// move chain that produced it.
type entry struct {
	s      *sched.Schedule
	cycles float64
	moves  []string
}

// Tune searches the knob space around seed and returns the best schedule
// found together with the run's statistics. k selects the knob families the
// search may move — typically KnobsFor(level) minus the techniques the user
// disabled, so the tuner never re-enables what was explicitly turned off.
// The returned schedule is a fresh clone — seed is never mutated — with
// "TUNE" appended to its Levels trail, and its simulated cycles are never
// above seed's.
func Tune(ctx context.Context, seed *sched.Schedule, m *cost.Model, k Knobs, b Budget) (*sched.Schedule, *Stats, error) {
	if seed == nil || m == nil {
		return nil, nil, fmt.Errorf("tuner: nil schedule or cost model")
	}
	if err := seed.Validate(); err != nil {
		return nil, nil, fmt.Errorf("tuner: seed schedule: %w", err)
	}
	b = b.Normalized()

	baseRep, err := perfsim.SimulateWithModel(ctx, seed, m, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("tuner: seed schedule does not simulate: %w", err)
	}

	best := entry{s: seed, cycles: baseRep.Cycles}
	frontier := []entry{best}
	seen := map[string]bool{seed.Fingerprint(): true}
	st := &Stats{HeuristicCycles: baseRep.Cycles}

	for round := 0; round < b.MaxRounds && st.Evaluated < b.MaxCandidates && len(frontier) > 0; round++ {
		// Expand the frontier in order; deduplicate by canonical fingerprint
		// so revisited states never burn budget twice.
		var cands []entry
		for _, e := range frontier {
			for _, c := range Neighbors(e.s, m, k) {
				fp := c.Schedule.Fingerprint()
				if seen[fp] {
					continue
				}
				seen[fp] = true
				moves := make([]string, 0, len(e.moves)+1)
				moves = append(append(moves, e.moves...), c.Move)
				cands = append(cands, entry{s: c.Schedule, moves: moves})
			}
		}
		if len(cands) == 0 {
			break
		}
		// Budget exhaustion stops the loop exactly at the cap: only the
		// first remaining-budget candidates (in generation order) are scored.
		if rem := b.MaxCandidates - st.Evaluated; len(cands) > rem {
			cands = cands[:rem]
		}
		if err := scoreAll(ctx, cands, m, b.Workers); err != nil {
			return nil, nil, err
		}
		st.Evaluated += len(cands)
		st.Rounds++

		// Deterministic selection: stable sort by cycles keeps generation
		// (node-ID) order among ties, independent of worker interleaving.
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].cycles < cands[j].cycles })
		frontier = frontier[:0]
		for _, c := range cands {
			if math.IsInf(c.cycles, 1) {
				break // infeasible candidates sort last
			}
			frontier = append(frontier, c)
			if len(frontier) == b.Beam {
				break
			}
		}
		if len(frontier) > 0 && frontier[0].cycles < best.cycles {
			best = frontier[0]
		}
	}

	tuned := best.s.Clone()
	tuned.Levels = append(tuned.Levels, "TUNE")
	st.TunedCycles = best.cycles
	st.Improved = best.cycles < st.HeuristicCycles
	st.Moves = best.moves
	st.ScheduleFingerprint = tuned.Fingerprint()
	return tuned, st, nil
}

// scoreAll simulates every candidate over a bounded worker pool, writing
// each latency into its entry (infeasible schedules score +Inf). Only a
// context cancellation aborts the batch.
func scoreAll(ctx context.Context, cands []entry, m *cost.Model, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) || ctx.Err() != nil {
					return
				}
				rep, err := perfsim.SimulateWithModel(ctx, cands[i].s, m, nil)
				if err != nil {
					// Placement or capacity rejection: the candidate is
					// infeasible on this machine, not a tuner failure.
					cands[i].cycles = math.Inf(1)
					continue
				}
				cands[i].cycles = rep.Cycles
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
