package tuner

import (
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// benchProg parses the C source of a shrunk VPIC so both evaluator
// benchmarks score the same kernel.
func benchProg(b *testing.B, c *cluster.Cluster) *csrc.File {
	b.Helper()
	w, err := workload.ByName("vpic", c.Procs())
	if err != nil {
		b.Fatal(err)
	}
	shrinkWorkload(w)
	prog, err := csrc.Parse(w.(workload.HasCSource).CSource())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkEvalDirectInterp is the direct cost of scoring one genome: a
// full SPMD interpretation of the (constant-folded) kernel per rep.
func BenchmarkEvalDirectInterp(b *testing.B) {
	c := cluster.CoriHaswell(2, 8)
	e := &SeededCSourceEvaluator{Prog: benchProg(b, c), Cluster: c, Reps: 1, Seed: 3}
	a := params.DefaultAssignment(params.Space())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Evaluate(a, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalTraceReplay is the staged engine scoring the same genome:
// one warm-up call records the trace, then every iteration is a cached
// wire-plan replay on a pooled stack.
func BenchmarkEvalTraceReplay(b *testing.B) {
	c := cluster.CoriHaswell(2, 8)
	e := &TraceEvaluator{Prog: benchProg(b, c), Cluster: c, Reps: 1, Seed: 3}
	a := params.DefaultAssignment(params.Space())
	if _, _, err := e.Evaluate(a, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Evaluate(a, i); err != nil {
			b.Fatal(err)
		}
	}
}
