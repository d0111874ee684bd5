package replay

import (
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// benchPlan records a small VPIC trace and lowers it for the default
// configuration, returning everything a replay loop needs.
func benchPlan(b testing.TB) (*cluster.Cluster, params.StackSettings, *WirePlan) {
	b.Helper()
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName("vpic", c.Procs())
	if err != nil {
		b.Fatal(err)
	}
	v := w.(*workload.VPIC)
	v.ParticlesPerRank = 16 << 10
	v.ComputeFlops = 1e9
	s := params.DefaultAssignment(params.Space()).Settings()
	st, err := workload.BuildStack(c, s, 1)
	if err != nil {
		b.Fatal(err)
	}
	trace, err := Record(w, st)
	if err != nil {
		b.Fatal(err)
	}
	wp, err := Lower(trace, s, c.ProcsPerNode)
	if err != nil {
		b.Fatal(err)
	}
	return c, s, wp
}

// BenchmarkStagedExecPooled is the inner loop of a TraceEvaluator rep:
// pooled stack reset plus wire-plan execution. B/op is the allocation
// discipline figure the staged engine is tuned for.
func BenchmarkStagedExecPooled(b *testing.B) {
	c, s, wp := benchPlan(b)
	pool := workload.NewStackPool(c)
	var rt Runtime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := pool.Get(s, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			b.Fatal(err)
		}
		pool.Put(st)
	}
}

// BenchmarkStagedExecFreshStack is the same replay without stack pooling —
// the allocation contrast that motivates it.
func BenchmarkStagedExecFreshStack(b *testing.B) {
	c, s, wp := benchPlan(b)
	var rt Runtime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := workload.BuildStack(c, s, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecReps is one configuration's scoring loop: three seeds
// replayed on one Runtime over pooled stacks, as TraceEvaluator does per
// evaluation. Each op starts from an emptied layout memo, as a pooled
// Runtime does when the next evaluation brings another plan: the first rep
// computes the plan's lustre layouts, the other two serve them.
func BenchmarkExecReps(b *testing.B) {
	c, s, wp := benchPlan(b)
	pool := workload.NewStackPool(c)
	var rt Runtime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.layouts.key = layoutKey{} // the next bind empties the memo
		for r := int64(0); r < 3; r++ {
			st, err := pool.Get(s, int64(i)+r*7919)
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Exec(wp, st); err != nil {
				b.Fatal(err)
			}
			pool.Put(st)
		}
	}
}
