package replay

import (
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// mutate returns the default assignment with the named parameters moved to
// the given value indices.
func mutate(t *testing.T, pairs map[string]int) *params.Assignment {
	t.Helper()
	a := params.DefaultAssignment(params.Space())
	for name, idx := range pairs {
		if err := a.SetIndex(name, idx); err != nil {
			t.Fatalf("SetIndex(%s, %d): %v", name, idx, err)
		}
	}
	return a
}

func reportsEqual(t *testing.T, label string, live, staged *darshan.Report) {
	t.Helper()
	layers := live.Layers()
	if got := staged.Layers(); len(got) != len(layers) {
		t.Fatalf("%s: layer sets differ: live %v, staged %v", label, layers, got)
	}
	for _, name := range layers {
		a, b := *live.Layer(name), *staged.Layer(name)
		if a != b {
			t.Errorf("%s: layer %s differs:\n live   %+v\n staged %+v", label, name, a, b)
		}
	}
}

func hasCompute(t *Trace) bool {
	for _, ev := range t.Events {
		if ev.Kind == EvCompute {
			return true
		}
	}
	return false
}

// TestStagedExecMatchesLiveRun proves the staged pipeline is bit-identical
// to running the recorded workload live: same clock, same counters, for
// every workload and a spread of configurations exercising each stage's
// footprint.
func TestStagedExecMatchesLiveRun(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	configs := map[string]*params.Assignment{
		"default": params.DefaultAssignment(params.Space()),
		"plan":    mutate(t, map[string]int{params.Alignment: 5, params.SieveBufSize: 6, params.ChunkCache: 1}),
		"agg": mutate(t, map[string]int{params.CollectiveWrite: 1, params.CBNodes: 3,
			params.CBBufferSize: 1, params.CollMetadataOps: 1, params.CollMetadataWrite: 1, params.MetaBlockSize: 7}),
		"service": mutate(t, map[string]int{params.StripingFactor: 6, params.StripingUnit: 0, params.MDCConfig: 0}),
		"mixed": mutate(t, map[string]int{params.CollectiveWrite: 1, params.Alignment: 3,
			params.StripingFactor: 3, params.MDCConfig: 3, params.ChunkCache: 0}),
	}

	type kernel struct {
		name string
		w    workload.Workload
	}
	var kernels []kernel
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio", "ior"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		kernels = append(kernels, kernel{name, w})
	}
	// Fig 11's full-application BD-CATS: clustering compute between the
	// read and write phases, recorded as compute events.
	compute := workload.NewBDCATS(c.Procs())
	compute.ComputeFlops = 4e10
	kernels = append(kernels, kernel{"bdcats+compute", compute})

	for _, k := range kernels {
		name, w := k.name, k.w
		recStack, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 1)
		if err != nil {
			t.Fatalf("BuildStack: %v", err)
		}
		trace, err := Record(w, recStack)
		if err != nil {
			t.Fatalf("Record(%s): %v", name, err)
		}
		if w == compute && !hasCompute(trace) {
			t.Fatalf("%s: no compute event recorded", name)
		}
		cache := NewSharedStageCache()
		cache.Register(name, trace)
		view := cache.View(name)
		var rt Runtime

		for cfgName, a := range configs {
			for _, seed := range []int64{1, 42} {
				label := name + "/" + cfgName
				s := a.Settings()

				live, err := workload.Execute(w, c, s, seed)
				if err != nil {
					t.Fatalf("%s: live Execute: %v", label, err)
				}

				wp, err := view.WireFor(a, s, c.ProcsPerNode)
				if err != nil {
					t.Fatalf("%s: WireFor: %v", label, err)
				}
				st, err := workload.BuildStack(c, s, seed)
				if err != nil {
					t.Fatalf("%s: BuildStack: %v", label, err)
				}
				if err := rt.Exec(wp, st); err != nil {
					t.Fatalf("%s: Exec: %v", label, err)
				}

				if got, want := st.Sim.Now(), live.Runtime; got != want {
					t.Errorf("%s seed %d: runtime %v, live %v", label, seed, got, want)
				}
				reportsEqual(t, label, live.Report, st.Sim.Report)
			}
		}
	}
}

// TestStageCacheHitMatchesMiss proves a cached wire plan scores a genome
// byte-identically to a freshly recomputed one.
func TestStageCacheHitMatchesMiss(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName("flash", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	recStack, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Record(w, recStack)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSharedStageCache()
	cache.Register("flash", trace)
	view := cache.View("flash")
	a := mutate(t, map[string]int{params.CollectiveWrite: 1, params.StripingFactor: 5})
	s := a.Settings()

	// Prime the cache, then fetch again (hit) and recompute uncached.
	if _, err := view.WireFor(a, s, c.ProcsPerNode); err != nil {
		t.Fatal(err)
	}
	hit, err := view.WireFor(a, s, c.ProcsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := Lower(trace, s, c.ProcsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.WireHits != 1 || stats.WireMisses != 1 {
		t.Fatalf("stats = %+v, want 1 wire hit / 1 miss", stats)
	}

	var rtHit, rtMiss Runtime
	run := func(rt *Runtime, wp *WirePlan) *workload.Stack {
		st, err := workload.BuildStack(c, s, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	stHit, stMiss := run(&rtHit, hit), run(&rtMiss, miss)
	if stHit.Sim.Now() != stMiss.Sim.Now() {
		t.Errorf("cache hit runtime %v != miss %v", stHit.Sim.Now(), stMiss.Sim.Now())
	}
	reportsEqual(t, "hit-vs-miss", stHit.Sim.Report, stMiss.Sim.Report)
}

// TestPooledStackMatchesFresh proves a Reset pooled stack is run-for-run
// indistinguishable from a freshly built one.
func TestPooledStackMatchesFresh(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName("vpic", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	a := mutate(t, map[string]int{params.CollectiveWrite: 1, params.Alignment: 2})
	s := a.Settings()

	pool := workload.NewStackPool(c)
	// Dirty a stack with a different config/seed, return it, and reuse it.
	dirty, err := pool.Get(params.DefaultAssignment(params.Space()).Settings(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(dirty); err != nil {
		t.Fatal(err)
	}
	pool.Put(dirty)

	pooled, err := pool.Get(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(pooled); err != nil {
		t.Fatal(err)
	}

	fresh, err := workload.Execute(w, c, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Sim.Now() != fresh.Runtime {
		t.Errorf("pooled runtime %v != fresh %v", pooled.Sim.Now(), fresh.Runtime)
	}
	reportsEqual(t, "pooled-vs-fresh", fresh.Report, pooled.Sim.Report)
}
