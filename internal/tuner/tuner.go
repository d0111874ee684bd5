// Package tuner implements the tuning pipelines of the paper's evaluation:
// the HSTuner-style genetic-algorithm pipeline (DEAP composition with
// elitism and tournament selection, §III-A) with pluggable early-stopping
// policies and configuration-subset pickers. TunIO is this pipeline with
// the RL stopper and RL subset picker from internal/core attached; the
// baselines are the same pipeline with heuristic or no stopping and
// all-parameter tuning.
//
// Evaluation runs through the batch engine: each generation is handed to a
// BatchEvaluator as one batch, which may fan it out across a worker pool
// (Pool) and memoize repeated genomes (Memo) while the pipeline commits
// results in population order — so tuning curves are bit-identical for any
// worker count. RunKernel wires the full engine — trace replay with a
// direct-simulation fallback, pool and memo — around a workload or C
// kernel; RunBatch runs the pipeline over any BatchEvaluator.
package tuner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"tunio/internal/ga"
	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/replay"
)

// Evaluator measures a configuration's objective. Implementations charge
// the tuning investment: costMinutes is the (simulated) time the
// evaluation consumed, which accumulates into the tuning curve.
type Evaluator interface {
	Evaluate(a *params.Assignment, iteration int) (perfMBs, costMinutes float64, err error)
}

// Stopper decides whether to stop the pipeline after an iteration — the
// Table I `stop(current_iteration, best_perf)` interface.
type Stopper interface {
	// Stop is called once per completed iteration with the best perf so far.
	Stop(iteration int, bestPerf float64) bool
	// Reset clears state between tuning episodes.
	Reset()
}

// SubsetPicker selects the parameter subset to tune next — the Table I
// `subset_picker(perf, current_parameter_set)` interface. The returned
// mask has one entry per parameter in the space.
type SubsetPicker interface {
	NextSubset(perf float64, current []bool) []bool
	Reset()
}

// Config configures a pipeline run.
type Config struct {
	Space         []params.Parameter
	PopSize       int     // default 16
	MaxIterations int     // default 50
	Seed          int64   // RNG seed for the GA and agents
	Overhead      float64 // per-evaluation pipeline overhead in minutes (job launch etc.)
	Selection     ga.Selection

	Stopper Stopper      // nil = never stop early
	Picker  SubsetPicker // nil = tune all parameters every iteration (HSTuner)

	// Progress, when non-nil, is invoked after every completed iteration
	// (including the iteration-0 baseline) with the curve point just
	// recorded. It runs on the pipeline goroutine: long callbacks stall
	// tuning.
	Progress func(metrics.Point)

	// StartFrom seeds the pipeline at a known configuration instead of the
	// library defaults: iteration 0 evaluates it (defining the RoTI
	// baseline) and the population initializes around it. Interactive
	// refinement sessions pass the previous round's best.
	StartFrom *params.Assignment
}

func (c *Config) fillDefaults() {
	if c.PopSize == 0 {
		c.PopSize = 16
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 50
	}
	if c.Overhead == 0 {
		c.Overhead = 0.05 // ~3s job-step launch per evaluation
	}
}

// Result summarizes a pipeline run.
type Result struct {
	Curve        metrics.Curve
	Best         *params.Assignment
	BestPerf     float64
	StoppedEarly bool
	StoppedAt    int // iteration index after which the pipeline stopped
	Evaluations  int
	// CacheHits and CacheMisses report memoization traffic when the
	// evaluator memoizes (both zero otherwise): hits are evaluations
	// served from the cache instead of the simulated stack; misses were
	// actually simulated. Hits + misses = Evaluations for a memoizing
	// evaluator.
	CacheHits   int
	CacheMisses int
	// SubsetTrace records the active mask per iteration (nil entries when
	// no picker is attached).
	SubsetTrace [][]bool
	// EngineInfo describes how the evaluation engine actually scored the
	// run — in particular whether staged trace replay was active and, if
	// not, why. RunKernel fills it in after the pipeline returns; RunBatch
	// callers that assemble their own evaluators leave it zero.
	EngineInfo EngineInfo
}

// EngineInfo reports the evaluation-engine facts a caller cannot infer
// from the curve: whether trace replay recorded successfully (a run that
// silently reverted to direct simulation is correct but ~10x slower),
// the kernel's content-addressed identity, and the cache traffic behind
// the measurements.
type EngineInfo struct {
	// TraceReady reports that the kernel's trace recorded (or was served
	// by a kernel store) and staged replay scored the run.
	TraceReady bool `json:"trace_ready"`
	// PrepareErr is the trace-recording or signature-validation error
	// that forced direct simulation ("" when none). Historically
	// tunio.Tune discarded this error; it is now surfaced here.
	PrepareErr string `json:"prepare_err,omitempty"`
	// KernelHash is the kernel's content-addressed identity ("sig:…"
	// from an exact static I/O signature, "trace:…" otherwise; "" when
	// no trace was recorded).
	KernelHash string `json:"kernel_hash,omitempty"`
	// KernelStoreHit reports that the trace came out of a shared
	// KernelStore instead of being recorded by this run.
	KernelStoreHit bool `json:"kernel_store_hit"`
	// FellBack reports that the trace recorded but a mid-run replay
	// error reverted the run to direct simulation (see
	// FallbackEvaluator); FallbackErr records the triggering error.
	FellBack    bool   `json:"fell_back"`
	FallbackErr string `json:"fallback_err,omitempty"`
	// MemoHits/MemoMisses mirror Result.CacheHits/CacheMisses: genome
	// memoization traffic.
	MemoHits   int `json:"memo_hits"`
	MemoMisses int `json:"memo_misses"`
	// StageStats is this run's stage-cache traffic — the run's own view
	// when the cache is shared across sessions, so the hit rates measure
	// what sharing bought this session.
	StageStats replay.StageStats `json:"stage_stats"`
}

// RunBatch executes the pipeline until the stopper fires or MaxIterations
// is reached, handing each generation's population to eval as one batch.
// Results are committed in population order, so the tuning curve depends
// only on (cfg, eval determinism), not on how the batch evaluator
// schedules the work. Canceling ctx aborts the run between (or, for
// cancellation-aware evaluators, within) evaluations; the returned error
// then wraps ctx.Err().
func RunBatch(ctx context.Context, cfg Config, eval BatchEvaluator) (*Result, error) {
	if len(cfg.Space) == 0 {
		return nil, fmt.Errorf("tuner: empty parameter space")
	}
	if eval == nil {
		return nil, fmt.Errorf("tuner: nil evaluator")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The population is seeded around the starting configuration (the
	// library defaults unless the caller resumes from a known one):
	// tuning starts there — which also defines the RoTI baseline — and
	// drifts away generation by generation, giving the gradual
	// logarithmic convergence real tuners exhibit (Figure 2).
	start := cfg.StartFrom
	if start == nil {
		start = params.DefaultAssignment(cfg.Space)
	}
	defGenome := ga.Genome(start.Genome())
	engine, err := ga.New(ga.Config{
		GenomeLen:  len(cfg.Space),
		Arity:      func(g int) int { return len(cfg.Space[g].Values) },
		PopSize:    cfg.PopSize,
		Selection:  cfg.Selection,
		InitGenome: defGenome,
	}, rng)
	if err != nil {
		return nil, err
	}
	if err := engine.SetGenome(0, defGenome); err != nil {
		return nil, err
	}

	if cfg.Stopper != nil {
		cfg.Stopper.Reset()
	}
	if cfg.Picker != nil {
		cfg.Picker.Reset()
	}

	res := &Result{}
	var cumMinutes float64
	mask := make([]bool, len(cfg.Space))
	for i := range mask {
		mask[i] = true
	}

	record := func(p metrics.Point) {
		res.Curve = append(res.Curve, p)
		if cfg.Progress != nil {
			cfg.Progress(p)
		}
	}

	// Iteration 0 measures the default configuration: perf_achieved(0) in
	// the paper's RoTI definition is the untuned performance, and its
	// evaluation time is part of the tuning investment.
	base, err := eval.EvaluateBatch(ctx, []*params.Assignment{start}, 0)
	if err != nil {
		var be *BatchError
		if errors.As(err, &be) {
			err = be.Err
		}
		return nil, fmt.Errorf("tuner: baseline evaluation: %w", err)
	}
	res.Evaluations++
	cumMinutes += base[0].CostMinutes + cfg.Overhead
	bestPerf := base[0].Perf
	bestGenome := defGenome.Clone()
	record(metrics.Point{
		Iteration: 0, TimeMinutes: cumMinutes, IterPerf: base[0].Perf, BestPerf: base[0].Perf,
	})
	res.SubsetTrace = append(res.SubsetTrace, nil)

	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tuner: iteration %d: %w", iter, err)
		}
		if cfg.Picker != nil {
			next := cfg.Picker.NextSubset(bestPerf, mask)
			if len(next) != len(mask) {
				return nil, fmt.Errorf("tuner: iteration %d: picker returned a mask of length %d for a %d-parameter space (NextSubset must return one entry per parameter)",
					iter, len(next), len(mask))
			}
			mask = next
			pin := bestGenome
			if pin == nil {
				pin = defGenome // before any evaluation, pin to defaults
			}
			if err := engine.SetActiveGenes(mask, pin); err != nil {
				return nil, fmt.Errorf("tuner: iteration %d: %w", iter, err)
			}
			res.SubsetTrace = append(res.SubsetTrace, append([]bool(nil), mask...))
		} else {
			res.SubsetTrace = append(res.SubsetTrace, nil)
		}

		pop := engine.Population()
		batch := make([]*params.Assignment, len(pop))
		for i := range pop {
			a, err := params.FromGenome(cfg.Space, pop[i].Genome)
			if err != nil {
				return nil, err
			}
			batch[i] = a
		}
		results, err := eval.EvaluateBatch(ctx, batch, iter)
		if err != nil {
			var be *BatchError
			if errors.As(err, &be) {
				return nil, fmt.Errorf("tuner: iteration %d eval %d: %w", iter, be.Index, be.Err)
			}
			return nil, fmt.Errorf("tuner: iteration %d: %w", iter, err)
		}

		// Commit in population order: fitness, time accounting, and
		// best-so-far tie-breaking replicate the serial pipeline exactly.
		iterBest := 0.0
		for i, r := range results {
			res.Evaluations++
			cumMinutes += r.CostMinutes + cfg.Overhead
			engine.SetFitness(i, r.Perf)
			if r.Perf > iterBest {
				iterBest = r.Perf
			}
			if r.Perf > bestPerf {
				bestPerf = r.Perf
				bestGenome = ga.Genome(pop[i].Genome).Clone()
			}
		}

		record(metrics.Point{
			Iteration:   iter,
			TimeMinutes: cumMinutes,
			IterPerf:    iterBest,
			BestPerf:    bestPerf,
		})

		if cfg.Stopper != nil && cfg.Stopper.Stop(iter, bestPerf) {
			res.StoppedEarly = iter < cfg.MaxIterations
			res.StoppedAt = iter
			break
		}
		res.StoppedAt = iter
		if iter < cfg.MaxIterations {
			if err := engine.NextGeneration(); err != nil {
				return nil, err
			}
		}
	}

	if cs, ok := eval.(cacheStatser); ok {
		res.CacheHits, res.CacheMisses = cs.CacheStats()
	}
	best, err := params.FromGenome(cfg.Space, bestGenome)
	if err != nil {
		return nil, err
	}
	res.Best = best
	res.BestPerf = bestPerf
	return res, nil
}
