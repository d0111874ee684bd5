// hacc-earlystop reproduces the Figure 10 experiment in miniature: tune
// HACC-IO for a full budget, then compare where different stopping
// policies would have ended tuning and the Return on Tuning Investment
// each would have captured.
//
//	go run ./examples/hacc-earlystop
package main

import (
	"context"
	"fmt"
	"log"

	"tunio"
	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

func main() {
	fmt.Println("== early stopping on HACC (Figure 10) ==")
	fmt.Println("training the early-stopping agent on synthetic log curves...")
	agent, err := tunio.Train(tunio.TrainConfig{
		Seed: 5, ExtraRandomRuns: 8, StopperEpochs: 25, PickerEpochs: 10,
		StopperHorizon: 25,
	})
	if err != nil {
		log.Fatal(err)
	}

	c := cluster.CoriHaswell(4, 32)
	w := workload.NewHACC(c.Procs())
	full, err := tuner.RunKernel(context.Background(), tuner.Config{
		Space:   params.Space(),
		PopSize: 8, MaxIterations: 25, Seed: 5,
	}, tuner.Kernel{Workload: w, Cluster: c, Reps: 1, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	curve := full.Curve

	fmt.Println("\nfull tuning trajectory:")
	for _, p := range curve {
		fmt.Printf("  iter %2d  %7.1f min  %8.0f MB/s\n", p.Iteration, p.TimeMinutes, p.BestPerf)
	}

	replay := func(s tuner.Stopper) int {
		s.Reset()
		for i, p := range curve[1:] {
			if s.Stop(p.Iteration, p.BestPerf) {
				return i + 1
			}
		}
		return len(curve) - 1
	}
	agent.Stopper.Reset()
	policies := []struct {
		name string
		at   int
	}{
		{"TunIO RL stopping", replay(agent.Stopper)},
		{"Heuristic (5%/5 iterations)", replay(tuner.NewHeuristicStopper())},
		{"Maximizing Performance oracle", replay(&tuner.OracleStopper{Target: curve.FinalBest()})},
		{"Full budget", len(curve) - 1},
	}

	peak, _, _ := curve.PeakRoTI()
	fmt.Printf("\n%-30s %6s %12s %8s %10s\n", "policy", "stop@", "bandwidth", "RoTI", "% of best")
	for _, p := range policies {
		r := curve.RoTIAt(p.at)
		fmt.Printf("%-30s %6d %9.0f MB/s %8.1f %9.1f%%\n",
			p.name, curve[p.at].Iteration, curve[p.at].BestPerf, r, 100*r/peak)
	}
	fmt.Println("\n(paper: TunIO 90.5% of best RoTI; the heuristic stops in the")
	fmt.Println(" mid-curve plateau and forfeits the later gains)")
}
