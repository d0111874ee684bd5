package tunio

import (
	"context"
	"strings"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

func TestParameterSpace(t *testing.T) {
	space := ParameterSpace()
	if len(space) != 12 {
		t.Fatalf("space = %d params, want 12", len(space))
	}
}

func TestDiscoverIOFacade(t *testing.T) {
	src := `
int main() {
    hid_t f = H5Fcreate("/scratch/x.h5", 0, 0, 0);
    double waste = 1.0;
    waste = waste * 2.0;
    H5Fclose(f);
    return 0;
}
`
	k, err := DiscoverIO(src, DiscoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(k.Source, "waste") {
		t.Fatal("compute survived discovery")
	}
	if !strings.Contains(k.Source, "H5Fcreate") {
		t.Fatal("I/O dropped")
	}
}

func TestTuneValidation(t *testing.T) {
	if _, err := Tune(TuneOptions{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload: want error")
	}
	agent := &TunIO{}
	if _, err := Tune(TuneOptions{Workload: "vpic", Agent: agent, Heuristic: true}); err == nil {
		t.Fatal("Agent+Heuristic: want error")
	}
}

func TestTuneHSTunerPipelineShort(t *testing.T) {
	res, err := Tune(TuneOptions{
		Workload: "macsio",
		Nodes:    2, ProcsPerNode: 8,
		PopSize: 6, MaxIterations: 5, Reps: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.BestPerf <= 0 || res.Best == nil {
		t.Fatal("no result")
	}
	if res.StoppedEarly {
		t.Fatal("no stopper attached but stopped early")
	}
}

func TestTuneHeuristicStops(t *testing.T) {
	res, err := Tune(TuneOptions{
		Workload: "macsio",
		Nodes:    2, ProcsPerNode: 8,
		PopSize: 6, MaxIterations: 40, Reps: 1, Seed: 4,
		Heuristic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatalf("heuristic never stopped in %d iterations", res.StoppedAt)
	}
}

func TestSessionPublicAPI(t *testing.T) {
	agent, err := Train(TrainConfig{
		Seed: 21, ExtraRandomRuns: 4, StopperEpochs: 8, PickerEpochs: 5,
		StopperHorizon: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewRefinement(agent, ParameterSpace())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Rounds() != 0 {
		t.Fatal("fresh session has rounds")
	}
}

func TestTuneWithAgent(t *testing.T) {
	agent, err := Train(TrainConfig{
		Seed: 22, ExtraRandomRuns: 4, StopperEpochs: 8, PickerEpochs: 5,
		StopperHorizon: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(TuneOptions{
		Workload: "macsio",
		Nodes:    2, ProcsPerNode: 8,
		Agent:   agent,
		PopSize: 4, MaxIterations: 6, Reps: 1, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPerf <= 0 {
		t.Fatal("agent pipeline produced nothing")
	}
	for _, trace := range res.SubsetTrace[1:] {
		if trace == nil {
			t.Fatal("picker did not supply subsets")
		}
	}
}

// TestFullPipelineArchitecture exercises the paper's Figure 3 flow end to
// end through public-ish seams: source -> Application I/O Discovery ->
// kernel-driven Configuration Evaluation (with the §III-B error fallback
// armed) -> tuned configuration validated on the full application.
func TestFullPipelineArchitecture(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	w := workload.NewVPIC(c.Procs())
	w.ParticlesPerRank = 32 << 10
	w.Steps = 1
	w.ComputeFlops = 5e9

	// step 1: discovery
	kernel, err := DiscoverIO(w.CSource(), DiscoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// step 2: tune evaluating the kernel, falling back to the full app on
	// kernel errors
	res, err := tuner.RunBatch(context.Background(), tuner.Config{
		Space: ParameterSpace(), PopSize: 6, MaxIterations: 8, Seed: 31,
		Stopper: tuner.NewHeuristicStopper(),
	}, tuner.NewMemo(&tuner.Pool{Eval: &tuner.FallbackEvaluator{
		Primary:  &tuner.SeededCSourceEvaluator{Prog: kernel.File, Cluster: c, Reps: 1, Seed: 31},
		Fallback: &tuner.SeededWorkloadEvaluator{Workload: w, Cluster: c, Reps: 1, Seed: 31},
	}}))
	if err != nil {
		t.Fatal(err)
	}

	// step 3: the tuned configuration must beat the defaults on the full
	// application
	def, err := workload.Execute(w, c, tunio_defaultAssignment().Settings(), 99)
	if err != nil {
		t.Fatal(err)
	}
	tun, err := workload.Execute(w, c, res.Best.Settings(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if tun.Perf <= def.Perf {
		t.Fatalf("kernel-tuned config (%.0f MB/s) not above defaults (%.0f MB/s)", tun.Perf, def.Perf)
	}
}

func tunio_defaultAssignment() *params.Assignment {
	return params.DefaultAssignment(params.Space())
}
