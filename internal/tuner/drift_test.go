package tuner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// driftConfig returns a ready controller config and its kernel: flash on
// a noiseless 2-node machine carrying the given drift schedule, on one
// worker. The kernel's store records flash once for every run sharing
// it. WindowGap spaces windows out so short replays still sweep the
// schedule.
func driftConfig(t *testing.T, drift *cluster.Drift) (DriftConfig, Kernel) {
	t.Helper()
	c := cluster.CoriHaswell(2, 8)
	c.Noise = 0
	c.Drift = drift
	w, err := workload.ByName("flash", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	k := Kernel{
		Workload: w, Cluster: c, Seed: 42, Workers: 1,
		Store: replay.NewKernelStore(), StoreKey: "flash",
	}
	return DriftConfig{
		Space:      params.Space(),
		Windows:    14,
		WindowGap:  10,
		Neighbors:  6,
		Rounds:     2,
		InitRounds: 3,
	}, k
}

// degradedSchedule turns the machine hostile at t=25: half OST
// bandwidth, tripled contention sensitivity, a slow OST.
func degradedSchedule() *cluster.Drift {
	return &cluster.Drift{Seed: 9, Regimes: []cluster.Regime{
		{Start: 25, OSTLoad: 0.5, NICLoad: 0.3, Contention: 3, SlowOSTs: 2, SlowFactor: 0.3},
	}}
}

func runDrift(t *testing.T, cfg DriftConfig, k Kernel) *DriftResult {
	t.Helper()
	res, err := RunDrift(context.Background(), cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDriftStationaryNoRetune pins that a stationary noiseless machine
// never triggers a re-tune: the incumbent's profile is flat.
func TestDriftStationaryNoRetune(t *testing.T) {
	cfg, k := driftConfig(t, nil)
	cfg.Windows = 6
	res := runDrift(t, cfg, k)
	if len(res.Retunes) != 0 {
		t.Fatalf("stationary run re-tuned: %+v", res.Retunes)
	}
	for _, w := range res.Windows[1:] {
		if w.Deviation != 0 {
			t.Fatalf("window %d deviation %v on a stationary machine", w.Window, w.Deviation)
		}
	}
}

// TestDriftWorkerCountIndependence pins the determinism contract: the
// window curve and final incumbent are bit-identical at any worker
// count.
func TestDriftWorkerCountIndependence(t *testing.T) {
	cfg, k1 := driftConfig(t, degradedSchedule())
	cfg.Prune = true
	k4 := k1
	k4.Workers = 4
	r1 := runDrift(t, cfg, k1)
	r4 := runDrift(t, cfg, k4)
	if !reflect.DeepEqual(r1.Windows, r4.Windows) {
		t.Fatalf("window curves differ across worker counts:\n1: %+v\n4: %+v", r1.Windows, r4.Windows)
	}
	if !reflect.DeepEqual(r1.FinalGenome, r4.FinalGenome) {
		t.Fatalf("final genome differs: %v vs %v", r1.FinalGenome, r4.FinalGenome)
	}
}

// TestDriftPruningBitIdentical pins the SHAMan-pruning guarantee:
// pruned and unpruned controllers choose identical incumbents and emit
// bit-identical curves, while pruning strictly reduces evaluated
// simulated stage time.
func TestDriftPruningBitIdentical(t *testing.T) {
	plain, k := driftConfig(t, degradedSchedule())
	pruned := plain
	pruned.Prune = true
	rp := runDrift(t, plain, k)
	rq := runDrift(t, pruned, k)
	if !reflect.DeepEqual(rp.Windows, rq.Windows) {
		t.Fatal("pruning changed the window curve")
	}
	if !reflect.DeepEqual(rp.FinalGenome, rq.FinalGenome) {
		t.Fatalf("pruning changed the final incumbent: %v vs %v", rp.FinalGenome, rq.FinalGenome)
	}
	if rq.PrunedEvals == 0 {
		t.Fatal("pruned run aborted no candidates")
	}
	if rq.EvalSimSeconds >= rp.EvalSimSeconds {
		t.Fatalf("pruning saved no stage time: %v >= %v", rq.EvalSimSeconds, rp.EvalSimSeconds)
	}
	if rp.PrunedEvals != 0 {
		t.Fatalf("unpruned run reported %d pruned evals", rp.PrunedEvals)
	}
}

// TestDriftDetectsAndRecovers drives the incumbent through a heavy
// degradation regime and checks the controller notices, announces the
// re-tune with a reason, and tracks the oracle afterwards.
func TestDriftDetectsAndRecovers(t *testing.T) {
	cfg, k := driftConfig(t, degradedSchedule())
	cfg.Prune = true
	cfg.Oracle = true
	var events []RetuneEvent
	cfg.OnRetune = func(ev RetuneEvent) { events = append(events, ev) }
	res := runDrift(t, cfg, k)

	if len(res.Retunes) == 0 {
		t.Fatal("controller never re-tuned through a 2x degradation")
	}
	if !reflect.DeepEqual(events, res.Retunes) {
		t.Fatal("OnRetune events diverge from result log")
	}
	ev := res.Retunes[0]
	if ev.Mode != "local" || ev.Evaluations == 0 || ev.EvalSimSeconds <= 0 {
		t.Fatalf("malformed re-tune event: %+v", ev)
	}
	if !strings.Contains(ev.Reason, "below expected") {
		t.Fatalf("reason %q does not name the degradation", ev.Reason)
	}

	// The window right after the re-tune must be flagged, and from there
	// on the controller should hold near the oracle's bandwidth.
	first := -1
	for _, w := range res.Windows {
		if w.Window > ev.Window && w.Retuned {
			first = w.Window
			break
		}
	}
	if first < 0 {
		t.Fatal("no window flagged Retuned after the re-tune event")
	}
	var got, oracle float64
	for _, w := range res.Windows[first:] {
		got += w.PerfMBs
		oracle += w.OraclePerfMBs
	}
	if oracle <= 0 {
		t.Fatal("oracle bandwidth missing from post-retune windows")
	}
	if got < 0.8*oracle {
		t.Fatalf("post-retune bandwidth %0.f recovered only %.0f%% of oracle %0.f",
			got, 100*got/oracle, oracle)
	}
}

// TestDriftGAModeRuns smoke-tests the warm-started GA re-tune path on
// two workers.
func TestDriftGAModeRuns(t *testing.T) {
	cfg, k := driftConfig(t, degradedSchedule())
	cfg.Windows = 8
	cfg.GA = &GARetune{PopSize: 6, Iterations: 2}
	k.Workers = 2 // GA generations replay concurrently
	res := runDrift(t, cfg, k)
	if res.Final == nil || len(res.FinalGenome) == 0 {
		t.Fatal("GA-mode run produced no final incumbent")
	}
	for _, ev := range res.Retunes {
		if ev.Mode != "ga" {
			t.Fatalf("GA-mode re-tune reported mode %q", ev.Mode)
		}
	}
}
