package train

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"tunio/internal/core"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// kernelStoreKey identifies a sweep kernel in the KernelStore before it
// has been recorded. Sweep kernels are custom-sized (DefaultSweepKernels
// shrinks the apps), so the key fingerprints the workload's full
// configuration rather than just its name — a sweep VPIC must never adopt
// the trace of a same-named, differently-sized serving VPIC.
func kernelStoreKey(w workload.Workload, procs int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%T %#v", w, w)))
	return fmt.Sprintf("sweep:%s/%d/%s", w.Name(), procs, hex.EncodeToString(sum[:8]))
}

// replaySweep scores core.SweepPlan's run list through the staged replay
// engine: each kernel's trace comes from tuner.Kernel.Trace (recorded once
// under defaults, or served whole from the kernel store), and every
// planned configuration is scored by replaying cached stage artifacts
// against pooled stacks, fanned out by tuner.ForEach.
//
// Per-run results are bit-identical to core.Sweep's direct execution —
// pooled stacks reset to fresh-build state and Runtime.Exec charges the
// same layer code paths in the same order as a live run — and per-run
// seeds come from the plan, so the outcome is independent of Workers.
// The first failing run's error wins, as in tuner.Pool.
func replaySweep(ctx context.Context, cfg *Config) (*core.SweepResult, []string, error) {
	if len(cfg.Kernels) == 0 {
		return nil, nil, fmt.Errorf("train: sweep needs at least one kernel")
	}
	runs, err := core.SweepPlan(len(cfg.Kernels), cfg.Space, cfg.Seed+1, cfg.ExtraRandomRuns)
	if err != nil {
		return nil, nil, err
	}

	// Each kernel gets a private stage cache: the sweep's kernels are
	// custom-sized, so no other run shares their artifacts.
	views := make([]*replay.CacheView, len(cfg.Kernels))
	kernKeys := make([]string, len(cfg.Kernels))
	for i, w := range cfg.Kernels {
		kt, err := tuner.Kernel{
			Workload: w, Cluster: cfg.Cluster, Seed: cfg.Seed,
			Store: cfg.Store, StoreKey: kernelStoreKey(w, cfg.Cluster.Procs()),
		}.Trace(cfg.Space)
		if err != nil {
			return nil, nil, fmt.Errorf("train: recording %s: %w", w.Name(), err)
		}
		views[i], kernKeys[i] = kt.View, kt.Hash
	}

	out := &core.SweepResult{
		Space:    cfg.Space,
		Features: make([][]float64, len(runs)),
		Perfs:    make([]float64, len(runs)),
	}
	for i, r := range runs {
		out.Features[i] = r.Assignment.Features()
	}

	stacks := workload.NewStackPool(cfg.Cluster)
	var rts sync.Pool // *replay.Runtime
	err = tuner.ForEach(ctx, len(runs), cfg.Workers, nil, func(i int) error {
		rt, _ := rts.Get().(*replay.Runtime)
		if rt == nil {
			rt = &replay.Runtime{}
		}
		defer rts.Put(rt)
		return scoreRun(rt, stacks, views, cfg, runs[i], out.Perfs, i)
	})
	var be *tuner.BatchError
	if errors.As(err, &be) {
		return nil, nil, fmt.Errorf("train: sweep run %d (%s): %w", be.Index, cfg.Kernels[runs[be.Index].Kernel].Name(), be.Err)
	}
	if err != nil {
		return nil, nil, err
	}
	return out, kernKeys, nil
}

// scoreRun replays one planned configuration: wire plan from the kernel's
// cache view, pooled stack seeded with the run's plan seed, one Exec.
func scoreRun(rt *replay.Runtime, stacks *workload.StackPool, views []*replay.CacheView, cfg *Config, r core.SweepRun, perfs []float64, i int) error {
	s := r.Assignment.Settings()
	wp, err := views[r.Kernel].WireFor(r.Assignment, s, cfg.Cluster.ProcsPerNode)
	if err != nil {
		return err
	}
	st, err := stacks.Get(s, r.Seed)
	if err != nil {
		return err
	}
	defer stacks.Put(st)
	if err := rt.Exec(wp, st); err != nil {
		return err
	}
	perf, _ := workload.Perf(st.Sim.Report)
	perfs[i] = perf
	return nil
}
