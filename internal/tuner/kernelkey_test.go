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

// TestTraceEvaluatorKernelHash checks that eager preparation derives a
// signature-based kernel hash for an interpreted kernel and installs it
// on the stage cache.
func TestTraceEvaluatorKernelHash(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	w, err := workload.ByName("vpic", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	shrinkWorkload(w)
	prog, err := csrc.Parse(w.(workload.HasCSource).CSource())
	if err != nil {
		t.Fatal(err)
	}
	e := &TraceEvaluator{Kernel: Kernel{Prog: prog, Cluster: c, Reps: 1, Seed: 3}}
	if e.KernelHash() != "" {
		t.Errorf("kernel hash %q before recording, want empty", e.KernelHash())
	}
	if err := e.Prepare(params.Space()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	h := e.KernelHash()
	if !strings.HasPrefix(h, "sig:") {
		t.Errorf("kernel hash = %q, want a signature-derived sig: prefix", h)
	}
	if got := e.view.KernelKey(); got != h {
		t.Errorf("stage-cache kernel key = %q, want %q", got, h)
	}
	// Prepare is idempotent and the hash is stable.
	if err := e.Prepare(params.Space()); err != nil || e.KernelHash() != h {
		t.Errorf("second Prepare changed state: err=%v hash=%q", err, e.KernelHash())
	}
}

// TestTraceEvaluatorWorkloadKernelHash checks the trace-hash fallback for
// kernels without a program (no signature to derive).
func TestTraceEvaluatorWorkloadKernelHash(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	w, err := workload.ByName("flash", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	shrinkWorkload(w)
	e := &TraceEvaluator{Kernel: Kernel{Workload: w, Cluster: c, Reps: 1, Seed: 3}}
	if err := e.Prepare(params.Space()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if h := e.KernelHash(); !strings.HasPrefix(h, "trace:") {
		t.Errorf("kernel hash = %q, want a trace: prefix", h)
	}
}

// countingBatch counts how many positions reach the inner evaluator.
type countingBatch struct{ calls int }

func (c *countingBatch) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error) {
	c.calls += len(batch)
	out := make([]EvalResult, len(batch))
	for i := range out {
		out[i] = EvalResult{Perf: 1, CostMinutes: 1}
	}
	return out, nil
}

// TestMemoKernelKeyPartitionsCache checks that the kernel key is a real
// component of the memo key: the same genome under a different kernel
// key re-evaluates, and returning to the first key hits the old entry.
func TestMemoKernelKeyPartitionsCache(t *testing.T) {
	inner := &countingBatch{}
	m := NewMemo(inner)
	a := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{a}
	ctx := context.Background()

	m.SetKernelKey("sig:aaaa")
	if _, err := m.EvaluateBatch(ctx, batch, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateBatch(ctx, batch, 1); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d after same-key repeat, want 1", inner.calls)
	}
	m.SetKernelKey("sig:bbbb")
	if _, err := m.EvaluateBatch(ctx, batch, 2); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls = %d after key change, want 2", inner.calls)
	}
	m.SetKernelKey("sig:aaaa")
	if _, err := m.EvaluateBatch(ctx, batch, 3); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls = %d after returning to the first key, want 2 (cache hit)", inner.calls)
	}
}
