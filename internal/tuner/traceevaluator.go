package tuner

import (
	"fmt"
	"sync"

	"tunio/internal/analysis"
	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
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
	// Workload or Prog selects the kernel; exactly one must be set.
	Workload workload.Workload
	Prog     *csrc.File

	Cluster *cluster.Cluster
	Reps    int   // default 3
	Seed    int64 // base seed

	// Shared, when non-nil, is a (typically process-global) multi-kernel
	// stage cache shared with other evaluators: stage artifacts are read
	// and written under this kernel's content hash, so sessions tuning
	// the same kernel hit each other's plans. When nil the evaluator owns
	// a fresh cache. Either way Stats() reports this evaluator's private
	// view, not cache-wide traffic. Artifacts are pure functions of
	// (trace, projected parameters), so sharing never changes scores.
	Shared *replay.StageCache
	// Store, when non-nil, is a content-addressed kernel store consulted
	// under StoreKey before recording: on a hit the stored trace (and its
	// kernel hash) is adopted and the kernel never runs; after a
	// recording the trace is published for later sessions. StoreKey must
	// identify the kernel's content — a workload name + process count, or
	// a hash of the submitted source — never anything seed-dependent.
	Store    *replay.KernelStore
	StoreKey string

	once     sync.Once
	recErr   error
	view     *replay.CacheView
	stacks   *workload.StackPool
	rts      sync.Pool // *replay.Runtime
	kernKey  string    // signature- or trace-derived kernel content hash
	storeHit bool      // trace served from Store instead of recorded
}

// record runs the kernel once under the default configuration and builds
// the stage cache. Any failure (interpreter error, unsupported construct)
// is sticky: every Evaluate call reports it, so a FallbackEvaluator
// wrapping this one reverts permanently.
func (e *TraceEvaluator) record(space []params.Parameter) {
	if e.Store != nil && e.StoreKey != "" {
		if ent, ok := e.Store.Get(e.StoreKey); ok {
			e.kernKey = ent.KernelHash
			e.storeHit = true
			e.installCache(ent.Trace)
			return
		}
	}
	defaults := params.DefaultAssignment(space).Settings()
	st, err := workload.BuildStack(e.Cluster, defaults, e.Seed)
	if err != nil {
		e.recErr = err
		return
	}
	var t *replay.Trace
	switch {
	case e.Prog != nil:
		t, err = replay.RecordFunc(st, func(st *workload.Stack) error {
			_, err := cinterp.Run(e.Prog, st.Lib)
			return err
		})
	case e.Workload != nil:
		t, err = replay.Record(e.Workload, st)
	default:
		err = fmt.Errorf("tuner: TraceEvaluator needs a Workload or a Prog")
	}
	if err != nil {
		e.recErr = fmt.Errorf("tuner: trace recording: %w", err)
		return
	}
	e.kernKey = replay.TraceKey(t)
	if e.Prog != nil {
		// Cross-validate the recorded trace against the kernel's static I/O
		// signature. An exact signature that disagrees with the trace means
		// the tracer, the interpreter, or the signature walker is wrong —
		// refuse to tune on top of the inconsistency.
		sig := analysis.ComputeSignature(e.Prog, analysis.SignatureOptions{})
		if sig.Exact {
			cs, cerr := sig.Concrete(map[string]int64{"nprocs": int64(t.Nprocs)})
			if cerr == nil {
				if verr := replay.CrossValidate(t, cs); verr != nil {
					e.recErr = fmt.Errorf("tuner: signature/trace mismatch: %w", verr)
					return
				}
			}
			e.kernKey = "sig:" + sig.Hash()
		}
	}
	if e.Store != nil && e.StoreKey != "" {
		e.Store.Put(e.StoreKey, replay.KernelEntry{Trace: t, KernelHash: e.kernKey})
	}
	e.installCache(t)
}

// installCache binds the evaluator to a view on its stage cache: the
// injected shared cache, otherwise a private one.
func (e *TraceEvaluator) installCache(t *replay.Trace) {
	c := e.Shared
	if c == nil {
		c = replay.NewSharedStageCache()
	}
	c.Register(e.kernKey, t)
	e.view = c.View(e.kernKey)
	e.stacks = workload.NewStackPool(e.Cluster)
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
// KernelStore instead of being recorded by this evaluator.
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
	reps := e.Reps
	if reps == 0 {
		reps = 3
	}
	base := SeedFor(e.Seed, iteration, a)
	s := a.Settings()
	wp, err := e.view.WireFor(a, s, e.Cluster.ProcsPerNode)
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
		if e.Prog != nil {
			perfSum += perf
			minutes += st.Sim.Now() / 60
		} else {
			perfSum += perf / float64(reps)
			runtime += st.Sim.Now()
		}
		e.stacks.Put(st)
	}
	if e.Prog != nil {
		return perfSum / float64(reps), minutes, nil
	}
	return perfSum, runtime / 60, nil
}
