package tunio

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tunio/internal/cluster"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// sharedSpec is a session shape small enough to run in tests but large
// enough that the GA revisits parameter projections, so cache sharing has
// something to share.
func sharedSpec(seed int64) JobSpec {
	return JobSpec{
		Workload: "macsio",
		Nodes:    2, ProcsPerNode: 8,
		PopSize: 16, MaxIterations: 12, Reps: 1,
		Seed:        seed,
		Parallelism: 2,
	}
}

// The acceptance test for cross-session sharing: two sequential sessions
// tuning the same workload with different seeds. The second must adopt
// the first's recorded trace from the kernel store, beat 50% stage-cache
// hit rate (and the first session's rate), and still produce a curve
// bit-identical to a solo Tune with the same seed — sharing must be pure
// speedup, never a behavior change. Then six sessions run at once on the
// same engine — two workloads and a C-source kernel, warm and cold, two
// tenants — and each must match a solo Tune on a fresh engine.
func TestEngineCrossSessionSharing(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 4})

	run1, err := eng.Tune(context.Background(), sharedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := run1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res1.EngineInfo.KernelStoreHit {
		t.Fatal("first session cannot hit an empty kernel store")
	}
	if !res1.EngineInfo.TraceReady {
		t.Fatalf("first session: trace not ready: %s", res1.EngineInfo.PrepareErr)
	}

	run2, err := eng.Tune(context.Background(), sharedSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := run2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.EngineInfo.KernelStoreHit {
		t.Fatal("second session did not reuse the stored kernel trace")
	}
	if res2.EngineInfo.KernelHash != res1.EngineInfo.KernelHash {
		t.Fatalf("kernel hash diverged: %q vs %q", res2.EngineInfo.KernelHash, res1.EngineInfo.KernelHash)
	}
	rate1, rate2 := res1.EngineInfo.StageStats.HitRate(), res2.EngineInfo.StageStats.HitRate()
	if rate2 <= 0.5 {
		t.Fatalf("second session stage-cache hit rate = %.2f, want > 0.5 (stats %+v)", rate2, res2.EngineInfo.StageStats)
	}
	if rate2 <= rate1 {
		t.Fatalf("sharing did not help: session hit rates %.2f -> %.2f", rate1, rate2)
	}

	solo, err := Tune(TuneOptions{
		Workload: "macsio",
		Nodes:    2, ProcsPerNode: 8,
		PopSize: 16, MaxIterations: 12, Reps: 1,
		Seed:        9,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Curve, solo.Curve) {
		t.Fatal("served curve differs from a solo Tune with the same seed")
	}
	if !reflect.DeepEqual(res2.Best.Genome(), solo.Best.Genome()) {
		t.Fatal("served best configuration differs from a solo Tune with the same seed")
	}

	st := eng.Stats()
	if st.SessionsDone != 2 || st.SessionsActive != 0 {
		t.Fatalf("engine stats = %+v, want 2 done / 0 active", st)
	}
	if st.Kernels.Kernels != 1 || st.Kernels.Hits != 1 {
		t.Fatalf("kernel store stats = %+v, want 1 kernel / 1 hit", st.Kernels)
	}

	t.Run("concurrent_sessions_match_solo", func(t *testing.T) {
		src := workload.NewMACSio(16)
		src.Dumps = 1
		src.PartBytes = 64 << 10
		var specs []JobSpec
		for i, k := range []JobSpec{{Workload: "macsio"}, {Workload: "vpic"}, {Source: src.CSource()}} {
			for j, tenant := range []string{"tenant-a", "tenant-b"} {
				spec := k
				spec.Tenant = tenant
				spec.Nodes, spec.ProcsPerNode = 2, 8
				spec.PopSize, spec.MaxIterations, spec.Reps = 8, 6, 1
				spec.Seed = int64(31 + 2*i + j)
				spec.Parallelism = 2
				specs = append(specs, spec)
			}
		}
		runs := make([]*Run, len(specs))
		for i, spec := range specs {
			var err error
			if runs[i], err = eng.Tune(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}
		for i, run := range runs {
			served, err := run.Wait()
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if !served.EngineInfo.TraceReady {
				t.Fatalf("session %d: trace not ready: %s", i, served.EngineInfo.PrepareErr)
			}
			soloRun, err := NewEngine(EngineOptions{}).Tune(context.Background(), specs[i])
			if err != nil {
				t.Fatal(err)
			}
			solo, err := soloRun.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(served.Curve, solo.Curve) {
				t.Fatalf("session %d: concurrently served curve differs from a solo Tune", i)
			}
			if !reflect.DeepEqual(served.Best.Genome(), solo.Best.Genome()) || served.BestPerf != solo.BestPerf {
				t.Fatalf("session %d: best %v (%v), solo best %v (%v)", i, served.Best.Genome(), served.BestPerf, solo.Best.Genome(), solo.BestPerf)
			}
		}
		if st := eng.Stats(); st.SessionsDone != 2+int64(len(specs)) || st.Kernels.Kernels != 3 {
			t.Fatalf("engine stats = %+v, want %d done / 3 kernels", st, 2+len(specs))
		}
	})
}

// Ordered progress: a subscriber that arrives after the session finished
// still replays every curve point in order.
func TestRunEventsReplayOrdered(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	spec := sharedSpec(5)
	spec.PopSize, spec.MaxIterations = 6, 4
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var got Curve
	for p := range run.Events(context.Background()) {
		got = append(got, p)
	}
	if !reflect.DeepEqual(got, res.Curve) {
		t.Fatalf("streamed %d points, result curve has %d; sequences differ", len(got), len(res.Curve))
	}
	if pts := run.Points(0); !reflect.DeepEqual(Curve(pts), res.Curve) {
		t.Fatal("Points(0) does not reproduce the curve")
	}
	if pts := run.Points(len(res.Curve) + 5); pts != nil {
		t.Fatal("Points past the end must return nil")
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	spec := sharedSpec(7)
	spec.MaxIterations = 200
	spec.Reps = 3
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least the baseline land so cancellation happens mid-run.
	deadline := time.After(10 * time.Second)
	for len(run.Points(0)) == 0 {
		select {
		case <-deadline:
			t.Fatal("no progress within 10s")
		case <-time.After(time.Millisecond):
		}
	}
	run.Cancel()
	res, err := run.Wait()
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: res=%v err=%v, want nil + context.Canceled", res, err)
	}
	st := eng.Stats()
	if st.SessionsCanceled != 1 {
		t.Fatalf("engine stats = %+v, want 1 canceled", st)
	}
}

func TestEngineTenantQuota(t *testing.T) {
	eng := NewEngine(EngineOptions{TenantQuota: 1})
	long := sharedSpec(11)
	long.MaxIterations = 500
	long.Reps = 3
	long.Tenant = "acme"
	run1, err := eng.Tune(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Tune(context.Background(), long); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second session for the tenant: err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant is unaffected by acme's quota.
	other := sharedSpec(12)
	other.PopSize, other.MaxIterations = 4, 2
	other.Tenant = "beta"
	run2, err := eng.Tune(context.Background(), other)
	if err != nil {
		t.Fatalf("other tenant blocked: %v", err)
	}
	if _, err := run2.Wait(); err != nil {
		t.Fatal(err)
	}
	run1.Cancel()
	if _, err := run1.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The slot frees on completion.
	retry := sharedSpec(13)
	retry.PopSize, retry.MaxIterations = 4, 2
	retry.Tenant = "acme"
	run3, err := eng.Tune(context.Background(), retry)
	if err != nil {
		t.Fatalf("slot not released after cancellation: %v", err)
	}
	if _, err := run3.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown workload", JobSpec{Workload: "nope"}, "unknown workload"},
		{"no kernel", JobSpec{}, "needs a Workload name or C Source"},
		{"both kernels", JobSpec{Workload: "vpic", Source: "int main() { return 0; }"}, "mutually exclusive"},
		{"agent+heuristic", JobSpec{Workload: "vpic", Agent: &TunIO{}, Heuristic: true}, "mutually exclusive"},
		{"bad source", JobSpec{Source: "int main( {"}, "parsing source"},
		{"unknown fix", JobSpec{Workload: "vpic", Fix: map[string]int64{"warp_drive": 1}}, "unknown parameter"},
		{"bad fix value", JobSpec{Workload: "vpic", Fix: map[string]int64{"striping_factor": -5}}, "not in the parameter's list"},
	}
	for _, tc := range cases {
		_, err := eng.Tune(ctx, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if st := eng.Stats(); st.SessionsStarted != 0 {
		t.Fatalf("rejected jobs must not count as started: %+v", st)
	}
}

func TestEngineFixOverrides(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	spec := sharedSpec(17)
	spec.PopSize, spec.MaxIterations = 6, 4
	spec.Fix = map[string]int64{"striping_factor": 96, "romio_cb_write": 0}
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Best.Value("striping_factor"); got != 96 {
		t.Fatalf("striping_factor = %d, want pinned 96", got)
	}
	if got := res.Best.Value("romio_cb_write"); got != 0 {
		t.Fatalf("romio_cb_write = %d, want pinned 0", got)
	}
}

// A C-source job runs end to end through the engine, and a second engine
// session with the same source adopts its stored trace.
func TestEngineSourceJob(t *testing.T) {
	w := workload.NewMACSio(16)
	w.Dumps = 1
	w.PartBytes = 64 << 10
	src := w.CSource()

	eng := NewEngine(EngineOptions{})
	spec := JobSpec{
		Source: src,
		Nodes:  2, ProcsPerNode: 8,
		PopSize: 4, MaxIterations: 3, Reps: 1,
		Seed:        21,
		Parallelism: 2,
	}
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.EngineInfo.TraceReady {
		t.Fatalf("source job: trace not ready: %s", res.EngineInfo.PrepareErr)
	}
	if h := res.EngineInfo.KernelHash; !strings.HasPrefix(h, "sig:") && !strings.HasPrefix(h, "trace:") {
		t.Fatalf("kernel hash = %q, want sig:/trace: prefix", h)
	}
	if res.BestPerf <= 0 {
		t.Fatal("no perf measured")
	}

	spec.Seed = 22
	run2, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := run2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.EngineInfo.KernelStoreHit {
		t.Fatal("second source session did not reuse the stored trace")
	}
}

// flakyRecord is a workload whose first run — the engine's trace
// recording — fails, while every later (direct) run succeeds.
type flakyRecord struct {
	workload.Workload
	ran atomic.Bool
}

func (f *flakyRecord) Run(st *workload.Stack) error {
	if f.ran.CompareAndSwap(false, true) {
		return errors.New("recorder exploded")
	}
	return f.Workload.Run(st)
}

// The bug Tune used to have: the error from TraceEvaluator.Prepare was
// discarded, so a run silently reverting to direct simulation was
// indistinguishable from a replay run. RunKernel must surface it, and the
// fallback it forced, on EngineInfo.
func TestApplyEngineInfoSurfacesPrepareErr(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	w := workload.NewMACSio(c.Procs())
	w.Dumps = 1
	res, err := tuner.RunKernel(context.Background(), tuner.Config{
		Space: ParameterSpace(), PopSize: 4, MaxIterations: 2, Seed: 3,
	}, tuner.Kernel{Workload: &flakyRecord{Workload: w}, Cluster: c, Reps: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	info := res.EngineInfo
	if info.TraceReady {
		t.Fatal("TraceReady must be false after a prepare failure")
	}
	if !strings.Contains(info.PrepareErr, "recorder exploded") {
		t.Fatalf("PrepareErr = %q, want the recording error surfaced", info.PrepareErr)
	}
	if !info.FellBack || !strings.Contains(info.FallbackErr, "recorder exploded") {
		t.Fatalf("fallback not surfaced: %+v", info)
	}
	if info.KernelHash != "" {
		t.Fatalf("KernelHash = %q for a kernel that never recorded", info.KernelHash)
	}
	if info.MemoHits != res.CacheHits || info.MemoMisses != res.CacheMisses ||
		info.MemoHits+info.MemoMisses != res.Evaluations {
		t.Fatalf("memo stats not mirrored: %+v vs %d/%d of %d",
			info, res.CacheHits, res.CacheMisses, res.Evaluations)
	}
}

// Negative sizes used to pass validation: Reps: -1 ran the rep loop zero
// times and finished "successfully" with an all-zero curve. Every count
// must be rejected at submission, before a session starts.
func TestEngineRejectsNegativeCounts(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	for _, tc := range []struct {
		field string
		set   func(*JobSpec)
	}{
		{"Reps", func(s *JobSpec) { s.Reps = -1 }},
		{"Parallelism", func(s *JobSpec) { s.Parallelism = -2 }},
		{"PopSize", func(s *JobSpec) { s.PopSize = -4 }},
		{"MaxIterations", func(s *JobSpec) { s.MaxIterations = -1 }},
		{"Nodes", func(s *JobSpec) { s.Nodes = -1 }},
		{"ProcsPerNode", func(s *JobSpec) { s.ProcsPerNode = -8 }},
	} {
		spec := sharedSpec(23)
		tc.set(&spec)
		if _, err := eng.Tune(context.Background(), spec); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s < 0: err = %v, want a submit error naming the field", tc.field, err)
		}
	}
	if st := eng.Stats(); st.SessionsStarted != 0 {
		t.Fatalf("rejected jobs must not count as started: %+v", st)
	}
}
