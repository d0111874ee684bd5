package experiments

import (
	"context"
	"fmt"
	"strings"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// DriftRow is one workload's online-adaptation outcome under the
// benchmark's degradation schedule.
type DriftRow struct {
	Workload string `json:"workload"`

	// Adaptation: re-tunes fired, detection delay (deviant windows before
	// triggering), windows and simulated seconds from the regime change
	// to the first re-tuned service window.
	Retunes        int     `json:"retunes"`
	DetectWindows  int     `json:"detect_windows"`
	ReadaptWindows int     `json:"readapt_windows"`
	ReadaptSeconds float64 `json:"readapt_s"`

	// Quality: post-re-tune bandwidth as a fraction of the zero-delay
	// oracle's, and the mean regret vs the oracle across the drifted
	// half of the run.
	RecoveryPct float64 `json:"recovery_pct"`
	RegretPct   float64 `json:"regret_pct"`

	// Pruning: evaluated simulated stage time without and with
	// SHAMan-style mid-replay pruning, the saving, and whether the two
	// runs' window curves are bit-identical (they must be).
	EvalSeconds       float64 `json:"eval_s"`
	PrunedEvalSeconds float64 `json:"pruned_eval_s"`
	PrunedEvals       int     `json:"pruned_evals"`
	SavingsPct        float64 `json:"savings_pct"`
	Identical         bool    `json:"identical"`
}

// DriftBenchResult is the online re-tuning benchmark: every paper
// workload serves windows across a machine that degrades mid-run
// (background load on NIC and OSTs plus amplified contention), and the
// drift controller must notice, re-tune, and re-approach the zero-delay
// oracle — while pruning cuts the evaluation bill without changing a
// single window.
type DriftBenchResult struct {
	Windows     int        `json:"windows"`
	RegimeStart float64    `json:"regime_start_s"`
	Rows        []DriftRow `json:"workloads"`
}

// driftBenchSchedule is the benchmark's machine: nominal until
// RegimeStart, then half OST bandwidth, 30% NIC load, and tripled
// contention sensitivity — roughly a 2x bandwidth hit for I/O-bound
// phases.
func driftBenchSchedule(start float64) *cluster.Drift {
	return &cluster.Drift{Seed: 9, Regimes: []cluster.Regime{
		{Start: start, OSTLoad: 0.5, NICLoad: 0.3, Contention: 3},
	}}
}

// DriftBench runs the benchmark over every paper workload.
func DriftBench(cfg Config) (*DriftBenchResult, error) {
	return driftBench(cfg, sliceWorkloads)
}

func driftBench(cfg Config, names []string) (*DriftBenchResult, error) {
	const regimeStart = 45.0
	windows := 14
	if cfg.Scale == Paper {
		windows = 30
	}
	out := &DriftBenchResult{Windows: windows, RegimeStart: regimeStart}
	c := cfg.componentCluster()
	c.Drift = driftBenchSchedule(regimeStart)

	// One store records each workload once for its plain and pruned runs.
	store := replay.NewKernelStore()
	for _, name := range names {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			return nil, err
		}
		k := tuner.Kernel{Workload: w, Cluster: c, Seed: cfg.Seed + 600, Store: store, StoreKey: name}
		dcfg := tuner.DriftConfig{
			Space:      params.Space(),
			Windows:    windows,
			WindowGap:  10,
			Neighbors:  6,
			Rounds:     2,
			InitRounds: 3,
			Oracle:     true,
		}
		plain, err := tuner.RunDrift(context.Background(), dcfg, k)
		if err != nil {
			return nil, fmt.Errorf("driftbench: %s: %w", name, err)
		}
		dcfg.Prune = true
		pruned, err := tuner.RunDrift(context.Background(), dcfg, k)
		if err != nil {
			return nil, fmt.Errorf("driftbench: %s (pruned): %w", name, err)
		}

		row := DriftRow{
			Workload:          name,
			Retunes:           len(plain.Retunes),
			EvalSeconds:       plain.EvalSimSeconds,
			PrunedEvalSeconds: pruned.EvalSimSeconds,
			PrunedEvals:       pruned.PrunedEvals,
			Identical:         sameWindows(plain.Windows, pruned.Windows) && sameGenome(plain.FinalGenome, pruned.FinalGenome),
		}
		if plain.EvalSimSeconds > 0 {
			row.SavingsPct = 100 * (1 - pruned.EvalSimSeconds/plain.EvalSimSeconds)
		}
		fillAdaptation(&row, plain, regimeStart)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// fillAdaptation derives the time-to-readapt and regret metrics from
// the window series and re-tune log.
func fillAdaptation(row *DriftRow, res *tuner.DriftResult, regimeStart float64) {
	drifted := -1 // first window served in the degraded regime
	for _, w := range res.Windows {
		if w.Regime >= 0 {
			drifted = w.Window
			break
		}
	}
	if len(res.Retunes) > 0 {
		row.DetectWindows = res.Retunes[0].DetectWindows
	}
	readapted := -1 // first post-re-tune window
	if len(res.Retunes) > 0 {
		for _, w := range res.Windows {
			if w.Window > res.Retunes[0].Window && w.Retuned {
				readapted = w.Window
				break
			}
		}
	}
	if drifted >= 0 && readapted >= 0 {
		row.ReadaptWindows = readapted - drifted
		row.ReadaptSeconds = res.Windows[readapted].Start - regimeStart
	}

	var got, oracle, regret float64
	var n int
	if readapted >= 0 {
		for _, w := range res.Windows[readapted:] {
			got += w.PerfMBs
			oracle += w.OraclePerfMBs
		}
		if oracle > 0 {
			row.RecoveryPct = 100 * got / oracle
		}
	}
	if drifted >= 0 {
		for _, w := range res.Windows[drifted:] {
			if w.OraclePerfMBs > 0 {
				regret += (w.OraclePerfMBs - w.PerfMBs) / w.OraclePerfMBs
				n++
			}
		}
		if n > 0 {
			row.RegretPct = 100 * regret / float64(n)
		}
	}
}

func sameWindows(a, b []tuner.WindowPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameGenome(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the benchmark table.
func (r *DriftBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online re-tuning under drift: degradation at t=%.0fs, %d service windows\n",
		r.RegimeStart, r.Windows)
	fmt.Fprintf(&b, "%-8s %8s %8s %9s %10s %10s %9s %11s %11s %9s %6s\n",
		"workload", "retunes", "detect", "readapt", "readapt s", "recovery", "regret",
		"eval s", "pruned s", "saved", "ident")
	recovered, saved := 0, 0
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %8d %8d %9d %10.0f %9.0f%% %8.1f%% %11.1f %11.1f %8.0f%% %6v\n",
			row.Workload, row.Retunes, row.DetectWindows, row.ReadaptWindows, row.ReadaptSeconds,
			row.RecoveryPct, row.RegretPct, row.EvalSeconds, row.PrunedEvalSeconds,
			row.SavingsPct, row.Identical)
		if row.RecoveryPct >= 80 {
			recovered++
		}
		if row.SavingsPct >= 25 && row.Identical {
			saved++
		}
	}
	fmt.Fprintf(&b, "recovered >= 80%% of oracle bandwidth after re-tuning on %d/%d workloads\n",
		recovered, len(r.Rows))
	fmt.Fprintf(&b, "pruning saved >= 25%% of evaluated stage time with bit-identical curves on %d/%d workloads\n",
		saved, len(r.Rows))
	return b.String()
}
