package tuner

import (
	"context"
	"fmt"

	"tunio/internal/analysis"
	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// Kernel is what a tuning run evaluates and on what machine: exactly one
// of a workload model and a (typically discovered) C program, plus the
// evaluation budget and the shared state the run may draw on.
type Kernel struct {
	// Workload or Prog selects the kernel; exactly one must be set.
	Workload workload.Workload
	Prog     *csrc.File

	Cluster *cluster.Cluster
	Reps    int   // runs averaged per evaluation; default 3 (1 in RunDrift)
	Seed    int64 // base seed of every evaluation (see SeedFor)

	// Stages, when non-nil, is a (typically process-global) multi-kernel
	// stage cache shared with other runs: stage artifacts are read and
	// written under this kernel's content hash, so runs on the same
	// kernel hit each other's plans. Nil gives the run a private cache.
	// Artifacts are pure functions of (trace, projected parameters), so
	// sharing never changes scores.
	Stages *replay.StageCache
	// Store, when non-nil, is a content-addressed kernel store consulted
	// under StoreKey before recording: on a hit the stored trace (and its
	// kernel hash) is adopted and the kernel never runs; after a
	// recording the trace is published for later runs. StoreKey must
	// identify the kernel's content — a workload name + process count, or
	// a hash of the submitted source — never anything seed-dependent.
	Store    *replay.KernelStore
	StoreKey string

	// Gate bounds evaluations in flight across every run sharing it;
	// Workers is this run's pool size (0 = GOMAXPROCS). Neither changes
	// the curve.
	Gate    *Gate
	Workers int
}

// RunKernel tunes k with the genetic pipeline on the batch engine — the
// one evaluation path every tuning run takes. Each configuration is
// scored by staged trace replay of the kernel (recorded once, eagerly, so
// the kernel hash keys the genome memo from the first generation on);
// if recording or a replay fails the run reverts permanently to direct
// simulation with the same SeedFor seeds. Evaluations fan out on a Pool
// and repeated genomes are served from a Memo, so the curve depends only
// on (cfg, k.Seed) and the kernel. The result's EngineInfo reports how
// the run was scored.
func RunKernel(ctx context.Context, cfg Config, k Kernel) (*Result, error) {
	var direct Evaluator
	switch {
	case (k.Workload == nil) == (k.Prog == nil):
		return nil, fmt.Errorf("tuner: kernel needs exactly one of Workload and Prog")
	case k.Prog != nil:
		direct = &SeededCSourceEvaluator{Prog: k.Prog, Cluster: k.Cluster, Reps: k.Reps, Seed: k.Seed}
	default:
		direct = &SeededWorkloadEvaluator{Workload: k.Workload, Cluster: k.Cluster, Reps: k.Reps, Seed: k.Seed}
	}
	trace := &TraceEvaluator{Kernel: k}
	fb := &FallbackEvaluator{Primary: trace, Fallback: direct}
	memo := NewMemo(&Pool{Eval: fb, Workers: k.Workers, Gate: k.Gate})
	prepErr := trace.Prepare(cfg.Space)
	if prepErr == nil {
		memo.SetKernelKey(trace.KernelHash())
	}
	res, err := RunBatch(ctx, cfg, memo)
	if res != nil {
		res.EngineInfo = engineInfo(res, trace, fb, prepErr)
	}
	return res, err
}

// KernelTrace is a kernel's recorded I/O trace as the replay engine
// consumes it: registered on a stage cache under the kernel's content
// hash.
type KernelTrace struct {
	// Hash is the kernel content hash: "sig:…" when derived from an exact
	// I/O signature, "trace:…" otherwise.
	Hash string
	// StoreHit reports whether the trace was served from Kernel.Store
	// instead of being recorded.
	StoreHit bool
	// View serves the trace's stage artifacts from Kernel.Stages (or the
	// private cache that stands in for it).
	View *replay.CacheView
}

// Trace gets the kernel's trace — the one way every evaluation loop
// (RunKernel, RunDrift, the training sweep) obtains one. A trace stored
// under StoreKey is adopted as is; otherwise the kernel runs once under
// the space's default configuration with Seed, a C kernel's recording is
// cross-validated against its static I/O signature (and then keyed by
// it), and the trace is published to Store. Either way it is registered
// on Stages under its kernel hash.
func (k Kernel) Trace(space []params.Parameter) (*KernelTrace, error) {
	useStore := k.Store != nil && k.StoreKey != ""
	if useStore {
		if ent, ok := k.Store.Get(k.StoreKey); ok {
			return k.install(ent.Trace, ent.KernelHash, true), nil
		}
	}
	defaults := params.DefaultAssignment(space).Settings()
	st, err := workload.BuildStack(k.Cluster, defaults, k.Seed)
	if err != nil {
		return nil, err
	}
	var t *replay.Trace
	switch {
	case k.Prog != nil:
		t, err = replay.RecordFunc(st, func(st *workload.Stack) error {
			_, err := cinterp.Run(k.Prog, st.Lib)
			return err
		})
	case k.Workload != nil:
		t, err = replay.Record(k.Workload, st)
	default:
		err = fmt.Errorf("tuner: kernel needs a Workload or a Prog")
	}
	if err != nil {
		return nil, fmt.Errorf("tuner: trace recording: %w", err)
	}
	hash := replay.TraceKey(t)
	if k.Prog != nil {
		// Cross-validate the recorded trace against the kernel's static I/O
		// signature. An exact signature that disagrees with the trace means
		// the tracer, the interpreter, or the signature walker is wrong —
		// refuse to tune on top of the inconsistency.
		sig := analysis.ComputeSignature(k.Prog, analysis.SignatureOptions{})
		if sig.Exact {
			cs, cerr := sig.Concrete(map[string]int64{"nprocs": int64(t.Nprocs)})
			if cerr == nil {
				if verr := replay.CrossValidate(t, cs); verr != nil {
					return nil, fmt.Errorf("tuner: signature/trace mismatch: %w", verr)
				}
			}
			hash = "sig:" + sig.Hash()
		}
	}
	if useStore {
		k.Store.Put(k.StoreKey, replay.KernelEntry{Trace: t, KernelHash: hash})
	}
	return k.install(t, hash, false), nil
}

// install registers t under hash on the kernel's stage cache — the
// injected shared one, otherwise a private one — and binds a view to it.
func (k Kernel) install(t *replay.Trace, hash string, storeHit bool) *KernelTrace {
	c := k.Stages
	if c == nil {
		c = replay.NewSharedStageCache()
	}
	c.Register(hash, t)
	return &KernelTrace{Hash: hash, StoreHit: storeHit, View: c.View(hash)}
}

// engineInfo reports how a finished run was scored, read once its
// evaluations have quiesced.
func engineInfo(res *Result, trace *TraceEvaluator, fb *FallbackEvaluator, prepErr error) EngineInfo {
	info := EngineInfo{
		MemoHits:       res.CacheHits,
		MemoMisses:     res.CacheMisses,
		TraceReady:     prepErr == nil && !fb.FellBack,
		KernelHash:     trace.KernelHash(),
		KernelStoreHit: trace.StoreHit(),
		StageStats:     trace.Stats(),
		FellBack:       fb.FellBack,
	}
	if prepErr != nil {
		info.PrepareErr = prepErr.Error()
	}
	if fb.FellBack && fb.KernelErr != nil {
		info.FallbackErr = fb.KernelErr.Error()
	}
	return info
}
