package core

import (
	"context"
	"math/rand"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

func TestExpectedRunsBiasesStopping(t *testing.T) {
	// The same frozen agent on the same flat curve must stop later when
	// the user expects many production runs and sooner when few.
	rng := rand.New(rand.NewSource(61))
	base, err := TrainEarlyStopper(StopperConfig{Seed: 61, Horizon: 35}, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	stopAt := func(expectedRuns float64) int {
		s := base
		s.SetLearning(false)
		s.SetEpsilon(0)
		s.SetExpectedRuns(expectedRuns)
		s.Reset()
		// grow then flatten
		for i := 0; i <= 35; i++ {
			perf := 1000.0 + 100*float64(min(i, 8))
			if s.Stop(i, perf) {
				return i
			}
		}
		return 36
	}
	few := stopAt(10)       // amortized over almost nothing: cut losses fast
	many := stopAt(1000000) // a production campaign: keep tuning
	base.SetExpectedRuns(0)
	if few > many {
		t.Fatalf("few-runs stop at %d later than many-runs stop at %d", few, many)
	}
	if few == many {
		t.Logf("bias did not separate this curve (few=%d many=%d); acceptable but weak", few, many)
	}
	if many < 8 {
		t.Fatalf("million-run user stopped at %d, before gains were even exhausted", many)
	}
}

func TestStopBias(t *testing.T) {
	if (StopperConfig{}).stopBias() != 0 {
		t.Fatal("no expected runs should mean no bias")
	}
	up := StopperConfig{ExpectedRuns: 1e6}.stopBias()
	down := StopperConfig{ExpectedRuns: 10}.stopBias()
	if up <= 0 || down >= 0 {
		t.Fatalf("bias signs wrong: up=%v down=%v", up, down)
	}
}

// failingEvaluator errors on every call (a broken kernel).
type failingEvaluator struct{ calls int }

func (f *failingEvaluator) Evaluate(*params.Assignment, int) (float64, float64, error) {
	f.calls++
	return 0, 0, errKernel
}

var errKernel = &kernelError{}

type kernelError struct{}

func (*kernelError) Error() string { return "kernel exploded" }

func TestFallbackEvaluatorRevertsToFullApp(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	c.Noise = 0
	w := workload.NewMACSio(c.Procs())
	w.Dumps = 2
	primary := &failingEvaluator{}
	fb := &tuner.FallbackEvaluator{
		Primary:  primary,
		Fallback: &tuner.SeededWorkloadEvaluator{Workload: w, Cluster: c, Reps: 1, Seed: 5},
	}
	a := params.DefaultAssignment(params.Space())
	perf, cost, err := fb.Evaluate(a, 0)
	if err != nil {
		t.Fatalf("fallback did not rescue the evaluation: %v", err)
	}
	if perf <= 0 || cost <= 0 {
		t.Fatal("fallback produced no measurement")
	}
	if !fb.FellBack || fb.KernelErr == nil {
		t.Fatal("fallback not recorded")
	}
	// subsequent evaluations go straight to the fallback
	fb.Evaluate(a, 1)
	if primary.calls != 1 {
		t.Fatalf("primary called %d times after falling back, want 1", primary.calls)
	}
	// a full pipeline over a broken kernel completes via the fallback
	res, err := tuner.RunBatch(context.Background(), tuner.Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 3, Seed: 6,
	}, tuner.AdaptEvaluator(&tuner.FallbackEvaluator{
		Primary:  &failingEvaluator{},
		Fallback: &tuner.SeededWorkloadEvaluator{Workload: w, Cluster: c, Reps: 1, Seed: 6},
	}))
	if err != nil || res.BestPerf <= 0 {
		t.Fatalf("pipeline over broken kernel: %v, %v", res, err)
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, params.Space()); err == nil {
		t.Fatal("nil agent: want error")
	}
	if _, err := NewSession(&TunIO{}, params.Space()); err == nil {
		t.Fatal("incomplete agent: want error")
	}
}

func TestSessionRefinesAcrossRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	space := params.Space()
	sweep := syntheticSweep(space, rng, 300)
	picker, err := TrainSmartPicker(PickerConfig{Seed: 71}, sweep, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	stopper, err := TrainEarlyStopper(StopperConfig{Seed: 72, Horizon: 12}, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(&TunIO{Stopper: stopper, Picker: picker}, space)
	if err != nil {
		t.Fatal(err)
	}

	c := cluster.CoriHaswell(2, 8)
	w := workload.NewMACSio(c.Procs())
	w.Dumps = 3
	kernel := func(seed int64) tuner.Kernel {
		return tuner.Kernel{Workload: w, Cluster: c, Reps: 1, Seed: seed}
	}

	r1, err := sess.Refine(context.Background(), kernel(1), 6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Rounds() != 1 || sess.Best == nil {
		t.Fatal("round not recorded")
	}
	firstBest := sess.BestPerf

	r2, err := sess.Refine(context.Background(), kernel(2), 6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = r1
	// Round 2 starts from round 1's best: its baseline must be near (or
	// above) round 1's best, not back at the defaults.
	if r2.Curve.Baseline() < 0.5*firstBest {
		t.Fatalf("round 2 baseline %.0f regressed to defaults (round 1 best %.0f)",
			r2.Curve.Baseline(), firstBest)
	}
	if sess.BestPerf < firstBest {
		t.Fatal("session best regressed")
	}
	// history accumulates with monotone time and session-level best
	if err := sess.History.Validate(); err != nil {
		t.Fatal(err)
	}
	if sess.History.TotalMinutes() <= r2.Curve.TotalMinutes() {
		t.Fatal("history did not accumulate time across rounds")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
