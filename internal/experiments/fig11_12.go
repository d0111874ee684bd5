package experiments

import (
	"context"
	"fmt"
	"strings"

	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// Fig11Variant is one end-to-end pipeline variant of Figure 11.
type Fig11Variant struct {
	Name      string
	Curve     metrics.Curve
	StoppedAt int
	Stopped   bool
	BestPerf  float64
	Minutes   float64
	RoTI      float64 // at the stopping point
}

// Fig11Result covers Figures 11(a) and 11(b): the end-to-end BD-CATS
// comparison of TunIO against the HSTuner baselines, with and without the
// I/O kernel.
type Fig11Result struct {
	Variants []Fig11Variant
	// TimeReductionPct is TunIO's tuning-time reduction vs HSTuner with
	// no stop. The paper reports ~73%; in the simulation the reduction is
	// smaller because evaluation cost shrinks as configurations improve
	// (late iterations are cheap), while Cori's per-iteration cost stayed
	// roughly constant. IterationReductionPct captures the same effect in
	// budget units that are cost-invariant.
	TimeReductionPct      float64
	IterationReductionPct float64
	// RoTIGain is TunIO's RoTI minus the HSTuner-heuristic RoTI (the
	// paper's headline 173.4 MB/s-per-minute gain; 208.4 with the kernel).
	RoTIGain       float64
	RoTIGainKernel float64
}

// bdcatsWithCompute returns the BD-CATS full application (clustering
// compute included) and its compute-stripped I/O kernel equivalent.
func bdcatsWithCompute(procs int, kernel bool) workload.Workload {
	b := workload.NewBDCATS(procs)
	if !kernel {
		// DBSCAN-style clustering compute between read and write phases
		b.ComputeFlops = 4e10
	}
	return b
}

// Fig11 runs the six pipeline variants of the paper's end-to-end test.
func Fig11(cfg Config) (*Fig11Result, error) {
	c := cfg.endToEndCluster()
	agent, err := Agent(cfg)
	if err != nil {
		return nil, err
	}

	type variant struct {
		name      string
		kernel    bool
		stopper   func() tuner.Stopper
		usePicker bool
	}
	variants := []variant{
		{"HSTuner, no stop", false, nil, false},
		{"HSTuner, heuristic stop", false, func() tuner.Stopper { return tuner.NewHeuristicStopper() }, false},
		{"TunIO", false, func() tuner.Stopper { agent.Stopper.Reset(); return agent.Stopper }, true},
		{"HSTuner + I/O kernel, no stop", true, nil, false},
		{"HSTuner + I/O kernel, heuristic", true, func() tuner.Stopper { return tuner.NewHeuristicStopper() }, false},
		{"TunIO + I/O kernel", true, func() tuner.Stopper { agent.Stopper.Reset(); return agent.Stopper }, true},
	}

	out := &Fig11Result{}
	for _, v := range variants {
		// fresh agent clone per variant: online learning in one pipeline
		// must not leak into the next
		agent, err = agent.Clone()
		if err != nil {
			return nil, err
		}
		w := bdcatsWithCompute(c.Procs(), v.kernel)
		tc := tuner.Config{
			Space:         params.Space(),
			PopSize:       cfg.popSize(),
			MaxIterations: cfg.endToEndIterations(),
			Seed:          cfg.Seed + 400, // same GA trajectory across variants
		}
		if v.stopper != nil {
			tc.Stopper = v.stopper()
		}
		if v.usePicker {
			agent.Picker.Reset()
			tc.Picker = agent.Picker
		}
		res, err := tuner.RunKernel(context.Background(), tc, tuner.Kernel{Workload: w, Cluster: c, Reps: cfg.reps(), Seed: cfg.Seed + 400})
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", v.name, err)
		}
		roti := res.Curve.RoTIAt(len(res.Curve) - 1)
		out.Variants = append(out.Variants, Fig11Variant{
			Name:      v.name,
			Curve:     res.Curve,
			StoppedAt: res.StoppedAt,
			Stopped:   res.StoppedEarly,
			BestPerf:  res.BestPerf,
			Minutes:   res.Curve.TotalMinutes(),
			RoTI:      roti,
		})
	}

	get := func(name string) *Fig11Variant {
		for i := range out.Variants {
			if out.Variants[i].Name == name {
				return &out.Variants[i]
			}
		}
		return nil
	}
	noStop := get("HSTuner, no stop")
	heur := get("HSTuner, heuristic stop")
	tun := get("TunIO")
	tunK := get("TunIO + I/O kernel")
	if noStop.Minutes > 0 {
		out.TimeReductionPct = 100 * (1 - tun.Minutes/noStop.Minutes)
	}
	if noStop.StoppedAt > 0 {
		out.IterationReductionPct = 100 * (1 - float64(tun.StoppedAt)/float64(noStop.StoppedAt))
	}
	out.RoTIGain = tun.RoTI - heur.RoTI
	out.RoTIGainKernel = tunK.RoTI - heur.RoTI
	return out, nil
}

// Variant returns the named row (nil when absent).
func (r *Fig11Result) Variant(name string) *Fig11Variant {
	for i := range r.Variants {
		if r.Variants[i].Name == name {
			return &r.Variants[i]
		}
	}
	return nil
}

// String renders figures 11(a) and 11(b).
func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 11: end-to-end BD-CATS tuning\n")
	fmt.Fprintf(&b, "%-34s %6s %12s %10s %9s\n", "variant", "stop@", "bandwidth", "minutes", "RoTI")
	for _, v := range r.Variants {
		stop := fmt.Sprintf("%d", v.StoppedAt)
		if !v.Stopped {
			stop += "*"
		}
		fmt.Fprintf(&b, "%-34s %6s %12s %10.1f %9.1f\n",
			v.Name, stop, fmtMBs(v.BestPerf), v.Minutes, v.RoTI)
	}
	b.WriteString("(* ran the full budget)\n")
	fmt.Fprintf(&b, "TunIO tuning-time reduction vs no-stop: %.0f%% minutes, %.0f%% iterations (paper: ~73%%, 468 vs 1750 min)\n",
		r.TimeReductionPct, r.IterationReductionPct)
	fmt.Fprintf(&b, "TunIO RoTI gain over heuristic:         %.1f MB/s per min (paper: 173.4)\n", r.RoTIGain)
	fmt.Fprintf(&b, "TunIO+kernel RoTI gain over heuristic:  %.1f MB/s per min (paper: 208.4)\n", r.RoTIGainKernel)
	return b.String()
}

// Fig12Result is Figure 12: application lifecycle viability.
type Fig12Result struct {
	TunIO   metrics.Lifecycle
	HSTuner metrics.Lifecycle
	// ViabilityTunIO / ViabilityHSTuner are executions to break even vs
	// never tuning (paper: 1394 vs 5274).
	ViabilityTunIO   float64
	ViabilityHSTuner float64
	// Crossover is where HSTuner's (slightly better) tune overtakes
	// TunIO's total time (paper: ~3.99 million executions).
	Crossover float64
	// ViabilityImprovementPct (paper: 73.6% fewer executions).
	ViabilityImprovementPct float64
}

// Fig12 derives the lifecycle analysis from the Figure 11 runs plus the
// tuned/untuned production runtimes.
func Fig12(cfg Config, fig11 *Fig11Result) (*Fig12Result, error) {
	if fig11 == nil {
		var err error
		fig11, err = Fig11(cfg)
		if err != nil {
			return nil, err
		}
	}
	c := cfg.endToEndCluster()

	runtimeOf := func(a *params.Assignment) (float64, error) {
		w := bdcatsWithCompute(c.Procs(), false)
		res, err := workload.Execute(w, c, a.Settings(), cfg.Seed+500)
		if err != nil {
			return 0, err
		}
		return res.Runtime / 60, nil
	}

	baselineMin, err := runtimeOf(params.DefaultAssignment(params.Space()))
	if err != nil {
		return nil, err
	}

	tun := fig11.Variant("TunIO")
	hst := fig11.Variant("HSTuner, no stop")

	// production runtime under each tuner's best configuration: derive
	// from the tuned bandwidths (runtime scales inversely with perf for
	// the I/O-dominated lifecycle)
	tunedRun := func(v *Fig11Variant) float64 {
		if v.BestPerf <= 0 {
			return baselineMin
		}
		return baselineMin * v.Curve.Baseline() / v.BestPerf
	}

	out := &Fig12Result{
		TunIO: metrics.Lifecycle{
			TuneMinutes:     tun.Minutes,
			TunedRunMinutes: tunedRun(tun),
			BaselineMinutes: baselineMin,
		},
		HSTuner: metrics.Lifecycle{
			TuneMinutes:     hst.Minutes,
			TunedRunMinutes: tunedRun(hst),
			BaselineMinutes: baselineMin,
		},
	}
	out.ViabilityTunIO = out.TunIO.ViabilityPoint()
	out.ViabilityHSTuner = out.HSTuner.ViabilityPoint()
	out.Crossover = metrics.CrossoverExecutions(out.TunIO, out.HSTuner)
	if out.ViabilityHSTuner > 0 {
		out.ViabilityImprovementPct = 100 * (1 - out.ViabilityTunIO/out.ViabilityHSTuner)
	}
	return out, nil
}

// String renders figure 12.
func (r *Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12: application lifecycle viability (BD-CATS)\n")
	fmt.Fprintf(&b, "%-8s tune %8.1f min, tuned run %7.3f min/exec (baseline %.3f)\n",
		"TunIO", r.TunIO.TuneMinutes, r.TunIO.TunedRunMinutes, r.TunIO.BaselineMinutes)
	fmt.Fprintf(&b, "%-8s tune %8.1f min, tuned run %7.3f min/exec\n",
		"HSTuner", r.HSTuner.TuneMinutes, r.HSTuner.TunedRunMinutes)
	fmt.Fprintf(&b, "viability: TunIO %.0f executions vs HSTuner %.0f (paper: 1394 vs 5274)\n",
		r.ViabilityTunIO, r.ViabilityHSTuner)
	fmt.Fprintf(&b, "viability improvement: %.1f%% fewer executions (paper: 73.6%%)\n", r.ViabilityImprovementPct)
	fmt.Fprintf(&b, "TunIO retains the advantage until %.3g executions (paper: ~3.99e6)\n", r.Crossover)
	return b.String()
}
