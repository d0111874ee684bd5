// session-refine demonstrates the interactive tuning session the paper
// proposes as future work (§VI): a configuration is refined across several
// short tuning rounds — e.g. whenever the application's owner has a spare
// allocation — with each round resuming from the best configuration found
// so far and the RL agents carrying their learning forward.
//
//	go run ./examples/session-refine
package main

import (
	"context"
	"fmt"
	"log"

	"tunio"
	"tunio/internal/cluster"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

func main() {
	fmt.Println("== interactive refinement session (paper §VI) ==")
	agent, err := tunio.Train(tunio.TrainConfig{
		Seed: 9, ExtraRandomRuns: 8, StopperEpochs: 20, PickerEpochs: 12,
		StopperHorizon: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := tunio.NewRefinement(agent, tunio.ParameterSpace())
	if err != nil {
		log.Fatal(err)
	}

	c := cluster.CoriHaswell(2, 16)
	w := workload.NewHACC(c.Procs())
	w.ParticlesPerRank = 128 << 10

	for round := 1; round <= 3; round++ {
		res, err := sess.Refine(context.Background(),
			tuner.Kernel{Workload: w, Cluster: c, Reps: 1, Seed: int64(round)},
			6, 8, int64(round),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: %7.0f -> %7.0f MB/s in %.0f min (stopped early: %v)\n",
			round, res.Curve.Baseline(), res.BestPerf, res.Curve.TotalMinutes(), res.StoppedEarly)
	}

	fmt.Printf("\nsession best after %d rounds: %.0f MB/s\n", sess.Rounds(), sess.BestPerf)
	fmt.Printf("cumulative tuning time: %.0f simulated minutes over %d recorded iterations\n",
		sess.History.TotalMinutes(), len(sess.History))
	fmt.Printf("final configuration: %s\n", sess.Best)
}
