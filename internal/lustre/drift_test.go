package lustre

import (
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
)

// driftSim builds a noiseless sim whose machine halves OST bandwidth
// and MDS capacity from t=100 on.
func driftSim(t *testing.T) *cluster.Sim {
	t.Helper()
	c := cluster.CoriHaswell(2, 4)
	c.Noise = 0
	// Make phases OST-bound so the test exercises the lustre-side factor
	// rather than the NIC term (covered by the cluster package tests).
	c.NICBandwidth = 1e12
	c.Drift = &cluster.Drift{Regimes: []cluster.Regime{
		{Start: 100, OSTLoad: 0.5, MDSLoad: 0.5},
	}}
	s, err := cluster.NewSim(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// phaseAt runs one write phase with the run positioned at epoch and
// returns its elapsed time.
func phaseAt(t *testing.T, epoch float64) float64 {
	t.Helper()
	sim := driftSim(t)
	sim.SetEpoch(epoch)
	fs := newFS(t, sim)
	f, err := fs.Create("d", 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 64 << 20, Rank: 0, Count: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDriftSlowsPhases(t *testing.T) {
	before := phaseAt(t, 0)
	after := phaseAt(t, 100)
	if after <= before {
		t.Fatalf("drifted phase %v should exceed nominal %v", after, before)
	}
}

func TestDriftSlowsMetaOps(t *testing.T) {
	simA := driftSim(t)
	a := newFS(t, simA).MetaOps(1000, 8)
	simB := driftSim(t)
	simB.SetEpoch(100)
	b := newFS(t, simB).MetaOps(1000, 8)
	if b <= a {
		t.Fatalf("drifted MetaOps %v should exceed nominal %v", b, a)
	}
}

// TestDriftEpochReplayIdentity is the core replay guarantee at the
// lustre layer: two runs positioned at the same epoch under the same
// schedule charge bit-identical times.
func TestDriftEpochReplayIdentity(t *testing.T) {
	if phaseAt(t, 150) != phaseAt(t, 150) {
		t.Fatal("same epoch must charge identical time")
	}
}

// TestDriftSlowOSTsFollowFirstOST pins that serving maps stripe slots to
// absolute OSTs: the same one-stripe phase is slower on a file that starts
// on a degraded OST than on one that starts on a healthy OST.
func TestDriftSlowOSTsFollowFirstOST(t *testing.T) {
	sim := func() *cluster.Sim {
		c := cluster.CoriHaswell(2, 4)
		c.Noise = 0
		c.NICBandwidth = 1e12
		c.Drift = &cluster.Drift{Seed: 3, Regimes: []cluster.Regime{{Start: 0, SlowOSTs: 40}}}
		s, err := cluster.NewSim(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dr, osts := sim().Cluster.Drift, CoriScratch().OSTs
	slow, fast := -1, -1
	for o := 0; o < osts; o++ {
		if dr.OSTFactor(0, o, osts) < 1 {
			slow = o
		} else {
			fast = o
		}
	}
	phaseOn := func(first int) float64 {
		fs := newFS(t, sim())
		fs.nextOST = first
		f, err := fs.Create("d", 1, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 64 << 20, Rank: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if s, f := phaseOn(slow), phaseOn(fast); s <= f {
		t.Fatalf("phase on degraded OST %d took %v, on healthy OST %d %v", slow, s, fast, f)
	}
}
