package tuner

import (
	"context"
	"strings"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/workload"
)

func TestCSourceEvaluator(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	c.Noise = 0
	w := workload.NewMACSio(c.Procs())
	w.Dumps = 2
	w.PartBytes = 256 << 10
	prog, err := csrc.Parse(w.CSource())
	if err != nil {
		t.Fatal(err)
	}
	eval := &SeededCSourceEvaluator{Prog: prog, Cluster: c, Reps: 2, Seed: 3}
	a := params.DefaultAssignment(params.Space())
	perf, cost, err := eval.Evaluate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if perf <= 0 || cost <= 0 {
		t.Fatalf("perf %v cost %v", perf, cost)
	}
	// 2 reps accumulate cost: a 1-rep evaluation must be cheaper
	one := &SeededCSourceEvaluator{Prog: prog, Cluster: c, Reps: 1, Seed: 3}
	_, cost1, err := one.Evaluate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost1 >= cost {
		t.Fatalf("1-rep cost %v not below 2-rep cost %v", cost1, cost)
	}
}

func TestCSourceEvaluatorPropagatesErrors(t *testing.T) {
	c := cluster.CoriHaswell(1, 2)
	c.Noise = 0
	prog, err := csrc.Parse(`int main() { frobnicate(); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	eval := &SeededCSourceEvaluator{Prog: prog, Cluster: c, Reps: 1, Seed: 1}
	if _, _, err := eval.Evaluate(params.DefaultAssignment(params.Space()), 0); err == nil {
		t.Fatal("broken program: want error")
	}
}

func TestRunWithCSourceEvaluatorPipeline(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	c.Noise = 0
	w := workload.NewVPIC(c.Procs())
	w.ParticlesPerRank = 16 << 10
	w.Steps = 1
	prog, err := csrc.Parse(w.CSource())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunKernel(context.Background(), Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 3, Seed: 4,
	}, Kernel{Prog: prog, Cluster: c, Reps: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPerf <= 0 {
		t.Fatal("no perf measured through the interpreter")
	}
	if info := res.EngineInfo; !info.TraceReady || !strings.HasPrefix(info.KernelHash, "sig:") {
		t.Fatalf("C kernel not scored by signature-keyed replay: %+v", info)
	}
}

func TestRunStartFrom(t *testing.T) {
	space := params.Space()
	warm := params.DefaultAssignment(space)
	warm.SetIndex(params.StripingFactor, 9)
	warm.SetIndex(params.CollectiveWrite, 1)

	sawWarmFirst := false
	first := true
	eval := FuncEvaluator(func(a *params.Assignment, iter int) (float64, float64, error) {
		if first {
			first = false
			sawWarmFirst = a.Value(params.StripingFactor) == 64 && a.Value(params.CollectiveWrite) == 1
		}
		return 100 + float64(a.Genome()[0]), 1, nil
	})
	res, err := runSerial(Config{
		Space: space, PopSize: 4, MaxIterations: 3, Seed: 5, StartFrom: warm,
	}, eval)
	if err != nil {
		t.Fatal(err)
	}
	if !sawWarmFirst {
		t.Fatal("iteration 0 did not evaluate the StartFrom configuration")
	}
	if res.Curve.Baseline() <= 0 {
		t.Fatal("baseline missing")
	}
}

func TestRunStopsImmediatelyWithAggressiveStopper(t *testing.T) {
	// A stopper that fires on the first opportunity: the pipeline must
	// stop after iteration 1 with a valid result.
	res, err := runSerial(Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 20, Seed: 6,
		Stopper: &BudgetStopper{MaxIterations: 1},
	}, FuncEvaluator(func(a *params.Assignment, _ int) (float64, float64, error) {
		return 1, 1, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedAt != 1 || !res.StoppedEarly {
		t.Fatalf("stopped at %d early=%v", res.StoppedAt, res.StoppedEarly)
	}
}

func TestRunEvaluatorErrorSurfacesWithContext(t *testing.T) {
	calls := 0
	eval := FuncEvaluator(func(a *params.Assignment, _ int) (float64, float64, error) {
		calls++
		if calls > 3 {
			return 0, 0, errBoom
		}
		return 1, 1, nil
	})
	if _, err := runSerial(Config{Space: params.Space(), PopSize: 4, MaxIterations: 5, Seed: 7}, eval); err == nil {
		t.Fatal("want error")
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }
