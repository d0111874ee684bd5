package tunio

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// onlineSpec is a small online flash session on a machine that turns
// hostile at t=25 (half OST bandwidth, tripled contention).
func onlineSpec(seed int64) JobSpec {
	return JobSpec{
		Workload: "flash",
		Nodes:    2, ProcsPerNode: 8,
		Reps: 1, Seed: seed, Parallelism: 2,
		Drift: &Drift{Seed: 9, Regimes: []Regime{
			{Start: 25, OSTLoad: 0.5, NICLoad: 0.3, Contention: 3},
		}},
		Online: &OnlineSpec{
			Windows: 12, WindowGap: 10,
			Neighbors: 4, Rounds: 2, InitRounds: 3,
			Prune: true,
		},
	}
}

// An online session runs its windows, re-tunes through the regime
// change, streams every event, and reproduces bit for bit across
// sessions (the second adopting the first's trace from the store).
func TestEngineOnlineSession(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e := NewEngine(EngineOptions{})

	run, err := e.Tune(ctx, onlineSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	dres, ok := run.Drift()
	if !ok {
		t.Fatal("online run has no DriftResult")
	}
	if len(dres.Windows) != 12 {
		t.Fatalf("ran %d windows, want 12", len(dres.Windows))
	}
	if len(dres.Retunes) == 0 {
		t.Fatal("controller never re-tuned through the regime change")
	}
	if dres.PrunedEvals == 0 {
		t.Fatal("pruning enabled but no evaluation was pruned")
	}
	if res.Best == nil || res.BestPerf != dres.MeanPerf {
		t.Fatalf("synthesized result %+v diverges from drift result", res)
	}
	if got := len(run.Points(0)); got != 12 {
		t.Fatalf("synthesized %d curve points, want 12", got)
	}

	// The event stream replays the full history: one window event per
	// window, one retune event per logged re-tune, in order.
	var wins, rets int
	for ev := range run.OnlineEvents(ctx) {
		switch {
		case ev.Window != nil:
			if ev.Window.Window != wins {
				t.Fatalf("window events out of order: got %d at position %d", ev.Window.Window, wins)
			}
			wins++
		case ev.Retune != nil:
			if !reflect.DeepEqual(*ev.Retune, dres.Retunes[rets]) {
				t.Fatalf("streamed retune %d = %+v, logged %+v", rets, *ev.Retune, dres.Retunes[rets])
			}
			rets++
		default:
			t.Fatal("empty online event")
		}
	}
	if wins != 12 || rets != len(dres.Retunes) {
		t.Fatalf("streamed %d windows / %d retunes, want 12 / %d", wins, rets, len(dres.Retunes))
	}

	// Same spec on the same engine: the kernel store serves the trace and
	// the window series reproduces bit for bit.
	run2, err := e.Tune(ctx, onlineSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run2.Wait(); err != nil {
		t.Fatal(err)
	}
	dres2, _ := run2.Drift()
	if !reflect.DeepEqual(dres.Windows, dres2.Windows) {
		t.Fatal("repeat online session diverged")
	}
	if e.Stats().Kernels.Hits == 0 {
		t.Fatal("second session did not hit the kernel store")
	}
}

// Submission-time validation of the online surface.
func TestEngineOnlineValidation(t *testing.T) {
	e := NewEngine(EngineOptions{})

	bad := onlineSpec(1)
	bad.Drift = &Drift{Regimes: []Regime{{Start: -1}}}
	if _, err := e.Tune(context.Background(), bad); err == nil {
		t.Fatal("invalid drift schedule accepted")
	}
}

// A one-shot (non-online) session accepts a drift schedule too: it
// tunes the machine as of epoch 0 and must stay bit-identical to a
// drift-free run when the schedule only bites later.
func TestEngineOneShotWithLateDrift(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := sharedSpec(3)
	plain, err := NewEngine(EngineOptions{}).Tune(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Drift = &Drift{Regimes: []Regime{{Start: 1e12, OSTLoad: 0.5}}}
	drifted, err := NewEngine(EngineOptions{}).Tune(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := drifted.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp.Curve, rd.Curve) {
		t.Fatal("a schedule starting beyond the horizon changed the curve")
	}
}
