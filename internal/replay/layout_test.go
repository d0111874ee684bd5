package replay

import (
	"errors"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// lustrePhases counts the lustre data phases a full replay of wp serves:
// one per independent transfer and one per collective round. The workloads
// below keep every file on lustre.
func lustrePhases(wp *WirePlan) int {
	n := 0
	for i := range wp.ops {
		switch op := &wp.ops[i]; op.kind {
		case wIndep:
			n++
		case wColl:
			n += len(op.coll.Rounds)
		}
	}
	return n
}

// TestLayoutReuseMatchesLiveRun proves the Runtime's layout memo changes no
// bit of any replay. One Runtime replays several seeds per wire plan, so
// the first rep computes each data phase's layout and later reps reuse it;
// every rep must equal a fresh Runtime's replay and the live workload run
// field by field. The machine drifts with degraded OSTs and a contention
// regime, so serving must map slots to the right absolute OSTs; the
// minimal metadata cache makes metadata-touch reads (and with them which
// phase creates a file, so its first OST) seed-dependent. Rep 1 of each
// plan is aborted half-way by ExecWhile, and the Runtime then alternates
// between two wire plans and two stripings of one plan.
func TestLayoutReuseMatchesLiveRun(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	c.Drift = &cluster.Drift{Seed: 11, Regimes: []cluster.Regime{
		{Start: 0, OSTLoad: 0.2, SlowOSTs: 60, Contention: 4},
		{Start: 0.3, NICLoad: 0.25, SlowOSTs: 120, SlowFactor: 0.1},
	}}
	// coll and restripe share a wire plan (striping is a stage-3
	// parameter) but not a striping; minimal has its own wire plan.
	configs := []struct {
		name string
		a    *params.Assignment
	}{
		{"minimal", mutate(t, map[string]int{params.MDCConfig: 0, params.StripingFactor: 5, params.StripingUnit: 2})},
		{"coll", mutate(t, map[string]int{params.MDCConfig: 0, params.CollectiveWrite: 1, params.CBNodes: 2,
			params.CBBufferSize: 0, params.StripingFactor: 4, params.StripingUnit: 1})},
		{"restripe", mutate(t, map[string]int{params.MDCConfig: 0, params.CollectiveWrite: 1, params.CBNodes: 2,
			params.CBBufferSize: 0, params.StripingFactor: 9, params.StripingUnit: 6})},
	}

	for _, name := range []string{"vpic", "flash", "bdcats"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSharedStageCache()
		cache.Register(name, recordTrace(t, name, 1))
		view := cache.View(name)
		wps := make([]*WirePlan, len(configs))
		for i, cfg := range configs {
			if wps[i], err = view.WireFor(cfg.a, cfg.a.Settings(), c.ProcsPerNode); err != nil {
				t.Fatal(err)
			}
		}
		if wps[1] != wps[2] {
			t.Fatalf("%s: coll and restripe should share a wire plan", name)
		}

		pool := workload.NewStackPool(c)
		shared := &Runtime{}
		// check replays one rep on the shared Runtime and compares it with
		// a fresh Runtime and with the live run.
		check := func(label string, i int, seed int64) {
			t.Helper()
			s := configs[i].a.Settings()
			st, err := pool.Get(s, seed)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Put(st)
			if err := shared.Exec(wps[i], st); err != nil {
				t.Fatalf("%s: Exec: %v", label, err)
			}
			ref, err := workload.BuildStack(c, s, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := (&Runtime{}).Exec(wps[i], ref); err != nil {
				t.Fatalf("%s: fresh Exec: %v", label, err)
			}
			live, err := workload.Execute(w, c, s, seed)
			if err != nil {
				t.Fatalf("%s: live Execute: %v", label, err)
			}
			if st.Sim.Now() != ref.Sim.Now() || st.Sim.Now() != live.Runtime {
				t.Errorf("%s: clock %v, fresh runtime %v, live %v", label, st.Sim.Now(), ref.Sim.Now(), live.Runtime)
			}
			reportsEqual(t, label+" vs fresh runtime", ref.Sim.Report, st.Sim.Report)
			reportsEqual(t, label+" vs live", live.Report, st.Sim.Report)
		}

		for i, cfg := range configs {
			label := name + "/" + cfg.name
			s := cfg.a.Settings()
			phases := lustrePhases(wps[i])

			// Rep 1 aborts half-way: the memo holds only the layouts of
			// the phases it reached, and the partial run matches a fresh
			// Runtime's aborted replay.
			full, err := workload.BuildStack(c, s, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := (&Runtime{}).Exec(wps[i], full); err != nil {
				t.Fatal(err)
			}
			half := full.Sim.Now() / 2
			abort := func(rt *Runtime) *workload.Stack {
				st, err := workload.BuildStack(c, s, 1)
				if err != nil {
					t.Fatal(err)
				}
				keep := func() bool { return st.Sim.Now() <= half }
				if err := rt.ExecWhile(wps[i], st, keep); !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("%s: half-way ExecWhile = %v, want ErrBudgetExceeded", label, err)
				}
				return st
			}
			partial, ref := abort(shared), abort(&Runtime{})
			if partial.Sim.Now() != ref.Sim.Now() {
				t.Errorf("%s: aborted clock %v, fresh runtime %v", label, partial.Sim.Now(), ref.Sim.Now())
			}
			reportsEqual(t, label+" aborted", ref.Sim.Report, partial.Sim.Report)
			if got := len(shared.layouts.cells); got == 0 || got >= phases {
				t.Errorf("%s: aborted rep filled %d of %d layouts, want some but not all", label, got, phases)
			}

			// Full reps complete the memo, then reuse it.
			for _, seed := range []int64{2, 3, 4} {
				check(label, i, seed)
				if got := len(shared.layouts.cells); got != phases {
					t.Errorf("%s seed %d: memo holds %d layouts, want %d", label, seed, got, phases)
				}
			}
		}

		// Alternate plans and stripings: every switch empties the memo.
		for _, seed := range []int64{5, 6} {
			for _, i := range []int{1, 2, 0, 2, 1} {
				check(name+"/alternate/"+configs[i].name, i, seed)
			}
		}
	}
}

// TestExecWarmMemoAllocs pins the allocation discipline of a warm replay:
// with the layout memo full, resetting a stack and replaying the plan
// allocates at most once per rep.
func TestExecWarmMemoAllocs(t *testing.T) {
	c, s, wp := benchPlan(t)
	st, err := workload.BuildStack(c, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rt Runtime
	if err := rt.Exec(wp, st); err != nil {
		t.Fatal(err)
	}
	seed := int64(1)
	if got := testing.AllocsPerRun(50, func() {
		seed++
		if err := st.Reset(s, seed); err != nil {
			t.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("warm replay allocated %v times per rep, want at most 1", got)
	}
}
