package tuner

import (
	"sync"

	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// TraceEvaluator scores configurations by staged trace replay: the kernel
// (a workload model or an interpreted C program) runs exactly once, under
// the untuned default configuration, to record its HDF5-level trace; every
// genome is then scored by replaying the trace through the staged engine
// (internal/replay), whose per-stage artifacts are cached by parameter
// projection. Replay charges the same layer code paths in the same order
// as a live run, so scores are bit-identical to the live evaluators' — the
// interpreter and workload logic just leave the inner loop.
//
// Safe for concurrent use: workers share the stage cache and recycle
// stacks and runtimes through pools.
type TraceEvaluator struct {
	// Kernel is the kernel to score and its shared state (Stages, Store,
	// StoreKey; see Kernel.Trace). Reps defaults to 3; Gate and Workers
	// are the pool's business and unused here.
	Kernel Kernel

	once     sync.Once
	recErr   error
	view     *replay.CacheView
	stacks   *workload.StackPool
	rts      sync.Pool // *replay.Runtime
	kernKey  string    // signature- or trace-derived kernel content hash
	storeHit bool      // trace served from Kernel.Store instead of recorded
}

// record gets the kernel's trace (Kernel.Trace). Any failure (interpreter
// error, unsupported construct, signature mismatch) is sticky: every
// Evaluate call reports it, so a FallbackEvaluator wrapping this one
// reverts permanently.
func (e *TraceEvaluator) record(space []params.Parameter) {
	kt, err := e.Kernel.Trace(space)
	if err != nil {
		e.recErr = err
		return
	}
	e.view, e.kernKey, e.storeHit = kt.View, kt.Hash, kt.StoreHit
	e.stacks = workload.NewStackPool(e.Kernel.Cluster)
}

// Prepare records the trace eagerly (Evaluate does it lazily on first
// call) and reports any recording or signature-validation error.
func (e *TraceEvaluator) Prepare(space []params.Parameter) error {
	e.once.Do(func() { e.record(space) })
	return e.recErr
}

// KernelHash returns the kernel content hash ("sig:…" when derived from
// an exact I/O signature, "trace:…" otherwise; "" before recording).
func (e *TraceEvaluator) KernelHash() string { return e.kernKey }

// StoreHit reports whether the trace was served from the injected
// Kernel.Store instead of being recorded by this evaluator.
func (e *TraceEvaluator) StoreHit() bool { return e.storeHit }

// Stats returns the evaluator's stage-cache counters — its own hit rate
// against the (possibly shared) artifacts, not cache-wide traffic. Zero
// before the first evaluation or after a recording failure.
func (e *TraceEvaluator) Stats() replay.StageStats {
	if e.view == nil {
		return replay.StageStats{}
	}
	return e.view.Stats()
}

// Evaluate implements Evaluator.
func (e *TraceEvaluator) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	e.once.Do(func() { e.record(a.Space()) })
	if e.recErr != nil {
		return 0, 0, e.recErr
	}
	k := &e.Kernel
	reps := k.Reps
	if reps == 0 {
		reps = 3
	}
	base := SeedFor(k.Seed, iteration, a)
	s := a.Settings()
	wp, err := e.view.WireFor(a, s, k.Cluster.ProcsPerNode)
	if err != nil {
		return 0, 0, err
	}
	rt, _ := e.rts.Get().(*replay.Runtime)
	if rt == nil {
		rt = &replay.Runtime{}
	}
	defer e.rts.Put(rt)

	// Average the way the matching direct evaluator does, so scores stay
	// bit-identical: a C kernel as SeededCSourceEvaluator (perf summed
	// then divided, minutes per rep), a workload as ExecuteAveraged.
	var perfSum, minutes, runtime float64
	for r := 0; r < reps; r++ {
		st, err := e.stacks.Get(s, base+int64(r)*7919)
		if err != nil {
			return 0, 0, err
		}
		if err := rt.Exec(wp, st); err != nil {
			return 0, 0, err
		}
		perf, _ := workload.Perf(st.Sim.Report)
		if k.Prog != nil {
			perfSum += perf
			minutes += st.Sim.Now() / 60
		} else {
			perfSum += perf / float64(reps)
			runtime += st.Sim.Now()
		}
		e.stacks.Put(st)
	}
	if k.Prog != nil {
		return perfSum / float64(reps), minutes, nil
	}
	return perfSum, runtime / 60, nil
}
