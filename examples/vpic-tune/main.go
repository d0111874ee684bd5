// vpic-tune runs the paper's full use-case pipeline on VPIC-IO: extract
// the I/O kernel from the application's C source with Application I/O
// Discovery, then tune the I/O stack with the kernel as the evaluation
// vehicle on the simulated Cori environment — the DEAP + H5Tuner
// composition of §III-E. The kernel runs once through the SPMD
// interpreter to record its I/O trace; every configuration replays it.
//
//	go run ./examples/vpic-tune
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
	c := cluster.CoriHaswell(2, 16)
	v := workload.NewVPIC(c.Procs())
	v.ParticlesPerRank = 128 << 10
	v.ComputeFlops = 2e10 // the real application computes between dumps
	src := v.CSource()

	fmt.Println("== step 1: Application I/O Discovery ==")
	kernel, err := tunio.DiscoverIO(src, tunio.DiscoveryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel keeps %d of %d source lines; compute stripped\n\n",
		len(kernel.MarkedLines), kernel.TotalLines)

	fmt.Println("== step 2: tune using the kernel as the evaluation vehicle ==")
	res, err := tuner.RunKernel(context.Background(), tuner.Config{
		Space:   params.Space(),
		PopSize: 8, MaxIterations: 15, Seed: 11,
		Stopper: tuner.NewHeuristicStopper(),
	}, tuner.Kernel{Prog: kernel.File, Cluster: c, Reps: 1, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range res.Curve {
		fmt.Printf("  iter %2d  %6.1f min  %8.0f MB/s  RoTI %.1f\n",
			p.Iteration, p.TimeMinutes, p.BestPerf, res.Curve.RoTIAt(i))
	}

	fmt.Println("\n== step 3: validate the tuned configuration on the full application ==")
	for _, cfgCase := range []struct {
		label string
		a     *params.Assignment
	}{
		{"defaults", params.DefaultAssignment(params.Space())},
		{"tuned   ", res.Best},
	} {
		r, err := workload.Execute(v, c, cfgCase.a.Settings(), 99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %8.0f MB/s, full-app runtime %.1f simulated s\n",
			cfgCase.label, r.Perf, r.Runtime)
	}
	fmt.Printf("\ntuned configuration: %s\n", res.Best)
}
