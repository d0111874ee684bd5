package tuner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tunio/internal/metrics"
	"tunio/internal/params"
)

// seededSynthetic mimics a deterministic concurrency-safe evaluator: the
// objective depends only on (assignment, iteration) through SeedFor, like
// the seeded workload evaluators.
type seededSynthetic struct {
	calls int64 // atomic: number of real evaluations performed
}

func (s *seededSynthetic) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	atomic.AddInt64(&s.calls, 1)
	seed := SeedFor(42, iteration, a)
	perf := float64(seed%100000) / 10
	return perf, 0.5, nil
}

func runPipeline(t *testing.T, eval BatchEvaluator) *Result {
	t.Helper()
	res, err := RunBatch(context.Background(), Config{
		Space: params.Space(), PopSize: 8, MaxIterations: 10, Seed: 7,
	}, eval)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func curvesEqual(a, b *Result) bool {
	if len(a.Curve) != len(b.Curve) {
		return false
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			return false
		}
	}
	return a.BestPerf == b.BestPerf && a.Best.String() == b.Best.String()
}

func TestPoolMatchesSerialBitForBit(t *testing.T) {
	serial := runPipeline(t, AdaptEvaluator(&seededSynthetic{}))
	for _, workers := range []int{1, 2, 4, 16} {
		par := runPipeline(t, &Pool{Eval: &seededSynthetic{}, Workers: workers})
		if !curvesEqual(serial, par) {
			t.Fatalf("workers=%d: curve diverged from serial", workers)
		}
	}
}

func TestMemoDeterministicAndCountsHits(t *testing.T) {
	// Memoization intentionally reuses a genome's first measurement
	// (re-measuring would only re-sample noise), so the reference is the
	// memoized serial run: every worker count must reproduce it exactly.
	serial := runPipeline(t, NewMemo(AdaptEvaluator(&seededSynthetic{})))

	inner := &seededSynthetic{}
	memo := NewMemo(&Pool{Eval: inner, Workers: 4})
	res := runPipeline(t, memo)
	if !curvesEqual(serial, res) {
		t.Fatal("memoized parallel curve diverged from memoized serial")
	}
	if res.CacheHits == 0 {
		t.Fatal("GA with elitism should repeat genomes, but no cache hits recorded")
	}
	if res.CacheHits+res.CacheMisses != res.Evaluations {
		t.Fatalf("hits(%d) + misses(%d) != evaluations(%d)",
			res.CacheHits, res.CacheMisses, res.Evaluations)
	}
	if got := int(atomic.LoadInt64(&inner.calls)); got != res.CacheMisses {
		t.Fatalf("inner evaluator ran %d times, want %d (one per miss)", got, res.CacheMisses)
	}
	if serial.Evaluations != res.Evaluations {
		t.Fatalf("evaluation accounting changed: %d vs %d", serial.Evaluations, res.Evaluations)
	}
}

func TestMemoDeduplicatesWithinBatch(t *testing.T) {
	inner := &seededSynthetic{}
	memo := NewMemo(AdaptEvaluator(inner))
	def := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{def, def, def}
	out, err := memo.EvaluateBatch(context.Background(), batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&inner.calls); got != 1 {
		t.Fatalf("duplicate genomes in one batch evaluated %d times, want 1", got)
	}
	if out[0] != out[1] || out[1] != out[2] {
		t.Fatal("duplicate genomes got different results")
	}
	hits, misses := memo.CacheStats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

func TestSeedForOrderIndependent(t *testing.T) {
	space := params.Space()
	a := params.DefaultAssignment(space)
	b, err := params.FromGenome(space, func() []int {
		g := a.Genome()
		g[0] = (g[0] + 1) % len(space[0].Values)
		return g
	}())
	if err != nil {
		t.Fatal(err)
	}
	if SeedFor(1, 3, a) != SeedFor(1, 3, a) {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor(1, 3, a) == SeedFor(1, 3, b) {
		t.Fatal("different genomes produced the same seed")
	}
	if SeedFor(1, 3, a) == SeedFor(1, 4, a) {
		t.Fatal("different iterations produced the same seed")
	}
	if SeedFor(1, 3, a) == SeedFor(2, 3, a) {
		t.Fatal("different base seeds produced the same seed")
	}
}

func TestPoolErrorSmallestIndexWins(t *testing.T) {
	// Distinct assignments let the evaluator fail by batch position: the
	// pool must report the smallest failing index — where a serial pass
	// would have stopped — no matter which worker hit its error first.
	space := params.Space()
	batch := make([]*params.Assignment, 4)
	for i := range batch {
		g := params.DefaultAssignment(space).Genome()
		g[0] = i % len(space[0].Values)
		g[1] = i / len(space[0].Values)
		a, err := params.FromGenome(space, g)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = a
	}
	failing := map[string]int{batch[1].String(): 1, batch[3].String(): 3}
	eval := FuncEvaluator(func(a *params.Assignment, _ int) (float64, float64, error) {
		if i, ok := failing[a.String()]; ok {
			return 0, 0, fmt.Errorf("boom %d", i)
		}
		return 1, 1, nil
	})
	_, err := (&Pool{Eval: eval, Workers: 4}).EvaluateBatch(context.Background(), batch, 1)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if be.Index != 1 {
		t.Fatalf("error index = %d, want 1 (smallest failing position)", be.Index)
	}
}

// TestPoolPanicBecomesError pins the pool's panic boundary: an evaluator
// that panics on one genome fails that batch index with an error naming
// the panic, under the smallest-index rule, at every worker count.
func TestPoolPanicBecomesError(t *testing.T) {
	space := params.Space()
	batch := make([]*params.Assignment, 6)
	for i := range batch {
		g := params.DefaultAssignment(space).Genome()
		g[0] = i
		a, err := params.FromGenome(space, g)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = a
	}
	const k = 2
	eval := FuncEvaluator(func(a *params.Assignment, _ int) (float64, float64, error) {
		switch a.Genome()[0] {
		case k:
			panic("lustre: invalid extent")
		case 4:
			return 0, 0, fmt.Errorf("later failure")
		}
		return 1, 1, nil
	})
	for _, workers := range []int{1, 3} {
		_, err := (&Pool{Eval: eval, Workers: workers}).EvaluateBatch(context.Background(), batch, 1)
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: want *BatchError, got %v", workers, err)
		}
		if be.Index != k || !strings.Contains(be.Err.Error(), "panicked: lustre: invalid extent") {
			t.Fatalf("workers=%d: got index %d error %q, want index %d with the panic", workers, be.Index, be.Err, k)
		}
	}
}

func TestPoolHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	def := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{def, def, def, def}
	_, err := (&Pool{Eval: &seededSynthetic{}, Workers: 2}).EvaluateBatch(ctx, batch, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunBatchCancellationFromProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []metrics.Point
	res, err := RunBatch(ctx, Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 50, Seed: 9,
		Progress: func(p metrics.Point) {
			seen = append(seen, p)
			if p.Iteration >= 3 {
				cancel()
			}
		},
	}, AdaptEvaluator(&seededSynthetic{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
	if len(seen) != 4 { // iterations 0..3 completed before the cancel took effect
		t.Fatalf("progress saw %d points, want 4", len(seen))
	}
}

func TestRunBatchPickerMaskMismatch(t *testing.T) {
	_, err := RunBatch(context.Background(), Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 3, Seed: 5,
		Picker: badPicker{},
	}, AdaptEvaluator(&seededSynthetic{}))
	if err == nil {
		t.Fatal("short picker mask silently accepted")
	}
	want := "picker returned a mask of length 2"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q does not mention the mask mismatch (%q)", got, want)
	}
}

type badPicker struct{}

func (badPicker) NextSubset(float64, []bool) []bool { return []bool{true, false} }
func (badPicker) Reset()                            {}
