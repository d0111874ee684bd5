// Command perfbench runs TunIO tuning jobs through the paths users run —
// tunio.Engine.Tune in process and the internal/server HTTP handler — on
// one of three seed-generated workloads, checks every job's output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics
// of a traced rerun of the same jobs). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload hstuner-cold --seed 1 --seconds 15 --trace 0
//
// A failed output check exits 1 without printing the JSON line. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tunio"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runLimit bounds a whole run, set-up and checks included.
const runLimit = 170 * time.Second

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hstuner-cold | tunio-source | serve-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = rerun the window's jobs traced and report per-layer metrics")
	spans := fs.String("spans", "", "directory to write a traced run's spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := defaultConfig(*workload, *seed, *seconds, *trace == 1)
	if *spans != "" && cfg.Trace {
		cfg.SpansPath = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.tsv", *workload, *seed))
	}
	return execute(cfg, stdout, stderr)
}

// defaultConfig is the benchmark's configuration for a workload.
func defaultConfig(workload string, seed int64, seconds float64, trace bool) config {
	return config{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Procs:     runtime.NumCPU(),
		Shape:     fullShape,
		Train:     tunio.TrainConfig{Seed: 1},
		SetupReps: 3,
		SoloCheck: 4,
	}
}

// execute runs the benchmark and prints its report; it returns the exit
// code.
func execute(cfg config, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out := map[string]any{}
	for _, m := range res.Metrics {
		fmt.Fprintf(stdout, "%-34s %16.6f %s\n", m.Name, m.Value, m.Unit)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.Attempted, "failed": res.Failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
