package tuner

import (
	"context"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/workload"
)

func shrinkWorkload(w workload.Workload) {
	switch x := w.(type) {
	case *workload.VPIC:
		x.ParticlesPerRank = 16 << 10
		x.ComputeFlops = 1e9
	case *workload.HACC:
		x.ParticlesPerRank = 16 << 10
	case *workload.FLASH:
		x.BlocksPerRank = 8
		x.Unknowns = 3
	case *workload.BDCATS:
		x.ParticlesPerRank = 16 << 10
	case *workload.MACSio:
		x.PartsPerRank = 2
		x.PartBytes = 256 << 10
		x.Dumps = 3
	}
}

// TestTraceEvaluatorMatchesCSourceCurves proves the equivalence the staged
// engine promises: a full RunKernel tuning run, scored by trace replay of
// the kernel, produces a bit-identical curve to one that simulates it
// directly for every evaluation — on all five workloads and on BD-CATS
// with the compute phase Fig 11's full application carries, in both the
// Go workload form and the interpreted C form.
func TestTraceEvaluatorMatchesCSourceCurves(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	ctx := context.Background()
	compute := workload.NewBDCATS(c.Procs())
	compute.ParticlesPerRank = 16 << 10
	compute.ComputeFlops = 4e10
	kernels := map[string]workload.Workload{"bdcats+compute": compute}
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			t.Fatal(err)
		}
		shrinkWorkload(w)
		kernels[name] = w
	}
	cfg := Config{Space: params.Space(), PopSize: 4, MaxIterations: 3, Seed: 11}
	for name, w := range kernels {
		src := w.(workload.HasCSource).CSource()
		// Each engine parses its own AST: the direct evaluator folds its
		// program in place.
		directProg, err := csrc.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tracedProg, err := csrc.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, form := range []struct {
			name   string
			direct Evaluator
			kernel Kernel
		}{
			{"workload",
				&SeededWorkloadEvaluator{Workload: w, Cluster: c, Reps: 2, Seed: 11},
				Kernel{Workload: w, Cluster: c, Reps: 2, Seed: 11}},
			{"C source",
				&SeededCSourceEvaluator{Prog: directProg, Cluster: c, Reps: 2, Seed: 11},
				Kernel{Prog: tracedProg, Cluster: c, Reps: 2, Seed: 11}},
		} {
			direct, err := RunBatch(ctx, cfg, NewMemo(&Pool{Eval: form.direct, Workers: 1}))
			if err != nil {
				t.Fatalf("%s %s direct: %v", name, form.name, err)
			}
			traced, err := RunKernel(ctx, cfg, form.kernel)
			if err != nil {
				t.Fatalf("%s %s traced: %v", name, form.name, err)
			}
			if info := traced.EngineInfo; !info.TraceReady || info.FellBack || info.KernelHash == "" {
				t.Fatalf("%s %s: replay did not score the run: %+v", name, form.name, info)
			}
			if !curvesEqual(direct, traced) {
				t.Errorf("%s %s: curves differ:\n direct %+v\n traced %+v",
					name, form.name, direct.Curve, traced.Curve)
			}
		}
	}
}

// TestTraceEvaluatorMatchesSeededWorkloadEvaluator pins the default batch
// engine swap: for the Go workload forms, trace replay returns bit-equal
// (perf, cost) to direct simulation under SeedFor-derived seeds.
func TestTraceEvaluatorMatchesSeededWorkloadEvaluator(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			t.Fatal(err)
		}
		shrinkWorkload(w)
		direct := &SeededWorkloadEvaluator{Workload: w, Cluster: c, Reps: 3, Seed: 5}
		traced := &TraceEvaluator{Kernel: Kernel{Workload: w, Cluster: c, Reps: 3, Seed: 5}}

		assignments := []*params.Assignment{params.DefaultAssignment(params.Space())}
		for i, pairs := range []map[string]int{
			{params.CollectiveWrite: 1, params.CBNodes: 4},
			{params.Alignment: 4, params.StripingFactor: 7},
			{params.ChunkCache: 2, params.MDCConfig: 0, params.CollMetadataWrite: 1},
		} {
			a := params.DefaultAssignment(params.Space())
			for n, idx := range pairs {
				if err := a.SetIndex(n, idx); err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
			}
			assignments = append(assignments, a)
		}
		for i, a := range assignments {
			for _, iter := range []int{0, 3} {
				p1, c1, err := direct.Evaluate(a, iter)
				if err != nil {
					t.Fatalf("%s direct: %v", name, err)
				}
				p2, c2, err := traced.Evaluate(a, iter)
				if err != nil {
					t.Fatalf("%s traced: %v", name, err)
				}
				if p1 != p2 || c1 != c2 {
					t.Errorf("%s case %d iter %d: direct (%v, %v) != traced (%v, %v)",
						name, i, iter, p1, c1, p2, c2)
				}
			}
		}
		stats := traced.Stats()
		if stats.WireMisses == 0 || stats.PlanMisses == 0 {
			t.Errorf("%s: stage cache never exercised: %+v", name, stats)
		}
	}
}

// TestTraceEvaluatorRecordingFailureFallsBack proves the §III-B recovery
// path: a kernel that fails to record reverts permanently to the fallback.
func TestTraceEvaluatorRecordingFailureFallsBack(t *testing.T) {
	c := cluster.CoriHaswell(1, 2)
	prog, err := csrc.Parse(`int main() { frobnicate(); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	fb := &FallbackEvaluator{
		Primary: &TraceEvaluator{Kernel: Kernel{Prog: prog, Cluster: c, Reps: 1, Seed: 1}},
		Fallback: FuncEvaluator(func(a *params.Assignment, _ int) (float64, float64, error) {
			calls++
			return 42, 1, nil
		}),
	}
	a := params.DefaultAssignment(params.Space())
	perf, _, err := fb.Evaluate(a, 0)
	if err != nil || perf != 42 {
		t.Fatalf("fallback did not engage: perf %v err %v", perf, err)
	}
	if !fb.FellBack || fb.KernelErr == nil {
		t.Fatalf("FellBack %v KernelErr %v", fb.FellBack, fb.KernelErr)
	}
	if _, _, err := fb.Evaluate(a, 1); err != nil || calls != 2 {
		t.Fatalf("second call did not stay on fallback: calls %d err %v", calls, err)
	}
}
