package tuner

import (
	"context"
	"fmt"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
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
	Reps    int   // runs averaged per evaluation; default 3
	Seed    int64 // base seed of every evaluation (see SeedFor)

	// Stages, Store and StoreKey share stage artifacts and recorded
	// traces across runs (see TraceEvaluator.Shared/Store/StoreKey); nil
	// gives the run private ones.
	Stages   *replay.StageCache
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
	trace := &TraceEvaluator{
		Workload: k.Workload, Prog: k.Prog,
		Cluster: k.Cluster, Reps: k.Reps, Seed: k.Seed,
		Shared: k.Stages, Store: k.Store, StoreKey: k.StoreKey,
	}
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
