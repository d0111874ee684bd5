package tuner

import (
	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// SeededWorkloadEvaluator measures configurations by executing a workload
// on fresh simulated stacks, averaging Reps runs per configuration (3 in
// the paper, to mitigate platform volatility); the time of all runs
// counts toward the tuning investment. Per-evaluation seeds derive from
// (iteration, genome) via SeedFor, so the same configuration measured at
// the same iteration yields the same result no matter which worker runs
// it or in what order. It is RunKernel's direct-simulation fallback.
type SeededWorkloadEvaluator struct {
	Workload workload.Workload
	Cluster  *cluster.Cluster
	Reps     int   // default 3
	Seed     int64 // base seed; evaluation seeds derive from it
}

// Evaluate implements Evaluator. It is safe for concurrent use: each call
// builds fresh simulated stacks and touches no shared state.
func (e *SeededWorkloadEvaluator) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	reps := e.Reps
	if reps == 0 {
		reps = 3
	}
	seed := SeedFor(e.Seed, iteration, a)
	res, err := workload.ExecuteAveraged(e.Workload, e.Cluster, a.Settings(), seed, reps)
	if err != nil {
		return 0, 0, err
	}
	return res.Perf, res.Runtime / 60, nil
}

// FuncEvaluator adapts a plain function (used by tests and the synthetic
// log-curve training environments).
type FuncEvaluator func(a *params.Assignment, iteration int) (float64, float64, error)

// Evaluate implements Evaluator.
func (f FuncEvaluator) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	return f(a, iteration)
}
