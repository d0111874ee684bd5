package tuner

import (
	"sync"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// SeededCSourceEvaluator measures configurations by interpreting a C
// program (a full application or a discovered I/O kernel) SPMD on fresh
// simulated stacks — the evaluation the paper's Configuration Evaluation
// step runs once Application I/O Discovery has produced a kernel. Seeds
// derive from (iteration, genome) via SeedFor, and the program is run
// through the interpreter's reaching-definitions constant-folding pass
// once, before the first evaluation, so each of the thousands of
// evaluations in a tuning run interprets a cheaper program. It is
// RunKernel's direct-simulation fallback for C kernels.
type SeededCSourceEvaluator struct {
	Prog    *csrc.File
	Cluster *cluster.Cluster
	Reps    int   // default 3
	Seed    int64 // base seed

	foldOnce sync.Once
}

// Evaluate implements Evaluator. Safe for concurrent use once the first
// call has completed the (synchronized) fold pre-pass.
func (e *SeededCSourceEvaluator) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	e.foldOnce.Do(func() { cinterp.Fold(e.Prog) })
	reps := e.Reps
	if reps == 0 {
		reps = 3
	}
	base := SeedFor(e.Seed, iteration, a)
	var perfSum, minutes float64
	for r := 0; r < reps; r++ {
		st, err := workload.BuildStack(e.Cluster, a.Settings(), base+int64(r)*7919)
		if err != nil {
			return 0, 0, err
		}
		if _, err := cinterp.Run(e.Prog, st.Lib); err != nil {
			return 0, 0, err
		}
		perf, _ := workload.Perf(st.Sim.Report)
		perfSum += perf
		minutes += st.Sim.Now() / 60
	}
	return perfSum / float64(reps), minutes, nil
}
