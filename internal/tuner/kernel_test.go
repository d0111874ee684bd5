package tuner

import (
	"context"
	"errors"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

func TestRunKernelValidation(t *testing.T) {
	c := cluster.CoriHaswell(1, 2)
	prog, err := csrc.Parse(`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Space: params.Space(), PopSize: 2, MaxIterations: 1}
	for name, k := range map[string]Kernel{
		"neither": {Cluster: c},
		"both":    {Workload: workload.NewMACSio(c.Procs()), Prog: prog, Cluster: c},
	} {
		if _, err := RunKernel(context.Background(), cfg, k); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// TestEngineInfoMidRunFallback: a run whose kernel recorded and prepared
// cleanly but whose replay later failed was scored by direct simulation,
// so EngineInfo must not report it as trace-scored, and must carry the
// replay error that forced the switch.
func TestEngineInfoMidRunFallback(t *testing.T) {
	res := &Result{Evaluations: 5, CacheHits: 2, CacheMisses: 3}
	fb := &FallbackEvaluator{FellBack: true, KernelErr: errors.New("replay exploded")}
	info := engineInfo(res, &TraceEvaluator{}, fb, nil)
	if info.TraceReady || !info.FellBack || info.FallbackErr != "replay exploded" || info.PrepareErr != "" {
		t.Fatalf("mid-run fallback misreported: %+v", info)
	}
	if info.MemoHits != 2 || info.MemoMisses != 3 {
		t.Fatalf("memo stats not mirrored: %+v", info)
	}
	if info := engineInfo(res, &TraceEvaluator{}, &FallbackEvaluator{}, nil); !info.TraceReady || info.FellBack {
		t.Fatalf("clean run misreported: %+v", info)
	}
}

// TestRunKernelWorkerIndependence: the curve depends on neither the pool
// size nor a shared gate, and a run adopting another run's trace and
// stage artifacts matches one that recorded its own.
func TestRunKernelWorkerIndependence(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	w := workload.NewFLASH(c.Procs())
	shrinkWorkload(w)
	prog, err := csrc.Parse(w.CSource())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{Space: params.Space(), PopSize: 6, MaxIterations: 4, Seed: 5}
	for name, base := range map[string]Kernel{
		"workload": {Workload: w, Cluster: c, Reps: 1, Seed: 5},
		"source":   {Prog: prog, Cluster: c, Reps: 1, Seed: 5},
	} {
		solo, err := RunKernel(ctx, cfg, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		store, stages, gate := replay.NewKernelStore(), replay.NewSharedStageCache(), NewGate(2)
		for _, workers := range []int{1, 2, 4} {
			k := base
			k.Workers, k.Gate = workers, gate
			k.Store, k.Stages, k.StoreKey = store, stages, name
			got, err := RunKernel(ctx, cfg, k)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !curvesEqual(solo, got) {
				t.Fatalf("%s workers=%d: curve diverged from the solo run", name, workers)
			}
			if hit := got.EngineInfo.KernelStoreHit; hit != (workers > 1) {
				t.Fatalf("%s workers=%d: KernelStoreHit = %v", name, workers, hit)
			}
			if got.EngineInfo.KernelHash != solo.EngineInfo.KernelHash {
				t.Fatalf("%s: kernel hash %q, solo %q", name, got.EngineInfo.KernelHash, solo.EngineInfo.KernelHash)
			}
		}
	}
}
