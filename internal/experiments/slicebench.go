package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// SliceVariant is one slicing strategy's measurements on one workload.
type SliceVariant struct {
	DiscoveryMs     float64 // wall time of Discover (mean of discoveryRuns)
	KernelLines     int     // marked lines kept in the kernel
	TotalLines      int     // formatted source lines
	EvalMs          float64 // wall time of one direct (interpreted) evaluation
	ReplayIdentical bool    // kernel replays the app's exact I/O stream
	PeakRoTI        float64
	FinalPerf       float64 // MB/s after the tuning run
	TotalMin        float64 // simulated tuning minutes
}

// SliceRow compares the two slicing strategies on one workload.
type SliceRow struct {
	Workload  string
	Precise   SliceVariant
	Heuristic SliceVariant
}

// SliceBenchResult is the precise-vs-heuristic slicing benchmark backing
// precise slicing as the discovery default: for every paper workload it
// measures discovery cost, kernel size, evaluation cost, replay fidelity,
// and the tuning outcome (RoTI, final perf) under both strategies.
type SliceBenchResult struct {
	Rows []SliceRow
}

// sliceWorkloads is the paper's workload set (§IV, Table III).
var sliceWorkloads = []string{"vpic", "hacc", "flash", "macsio", "bdcats"}

// discoveryRuns is how many Discover calls the wall-time average spans.
const discoveryRuns = 5

// SliceBench runs the benchmark over every paper workload.
func SliceBench(cfg Config) (*SliceBenchResult, error) {
	return sliceBench(cfg, sliceWorkloads)
}

// sliceBench runs the benchmark over the named workloads (split out so the
// unit test can cover a single one).
func sliceBench(cfg Config, names []string) (*SliceBenchResult, error) {
	c := cfg.componentCluster()
	c.Noise = 0 // replay and timing comparisons want determinism
	out := &SliceBenchResult{}
	for _, name := range names {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			return nil, err
		}
		cw, ok := w.(workload.HasCSource)
		if !ok {
			return nil, fmt.Errorf("slicebench: %s has no C source", name)
		}
		src := cw.CSource()

		orig, err := traceOf(cfg, c, nil, src)
		if err != nil {
			return nil, fmt.Errorf("slicebench: %s original: %w", name, err)
		}

		row := SliceRow{Workload: name}
		for _, v := range []struct {
			opts discovery.Options
			dst  *SliceVariant
		}{
			{discovery.Options{}, &row.Precise},
			{discovery.Options{Heuristic: true}, &row.Heuristic},
		} {
			if err := sliceVariant(cfg, c, src, orig, v.opts, v.dst); err != nil {
				return nil, fmt.Errorf("slicebench: %s: %w", name, err)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// sliceVariant fills one variant's measurements.
func sliceVariant(cfg Config, c *cluster.Cluster, src string, orig *replay.Trace, opts discovery.Options, dst *SliceVariant) error {
	start := time.Now()
	var k *discovery.Kernel
	var err error
	for i := 0; i < discoveryRuns; i++ {
		k, err = discovery.Discover(src, opts)
		if err != nil {
			return err
		}
	}
	dst.DiscoveryMs = float64(time.Since(start).Microseconds()) / 1000 / discoveryRuns
	dst.KernelLines = len(k.MarkedLines)
	dst.TotalLines = k.TotalLines

	trace, err := traceOf(cfg, c, k.File, "")
	if err != nil {
		return err
	}
	dst.ReplayIdentical = reflect.DeepEqual(orig.Events, trace.Events)

	res, err := tuner.RunKernel(context.Background(), tuner.Config{
		Space:         params.Space(),
		PopSize:       cfg.popSize(),
		MaxIterations: cfg.maxIterations(),
		Seed:          cfg.Seed + 300, // same trajectory for both variants
	}, tuner.Kernel{Prog: k.File, Cluster: c, Reps: cfg.reps(), Seed: cfg.Seed + 300})
	if err != nil {
		return err
	}
	dst.PeakRoTI, _, _ = res.Curve.PeakRoTI()
	dst.FinalPerf = res.Curve.FinalBest()
	dst.TotalMin = res.Curve.TotalMinutes()

	// Timed after tuning: the direct evaluator folds the program in place.
	eval := &tuner.SeededCSourceEvaluator{Prog: k.File, Cluster: c, Reps: cfg.reps(), Seed: cfg.Seed + 300}
	start = time.Now()
	if _, _, err := eval.Evaluate(params.DefaultAssignment(params.Space()), 0); err != nil {
		return err
	}
	dst.EvalMs = float64(time.Since(start).Microseconds()) / 1000
	return nil
}

// traceOf records the I/O request stream of prog (or of source text when
// prog is nil) on a fresh default-configured stack.
func traceOf(cfg Config, c *cluster.Cluster, prog *csrc.File, src string) (*replay.Trace, error) {
	if prog == nil {
		p, err := csrc.Parse(src)
		if err != nil {
			return nil, err
		}
		prog = p
	}
	st, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), cfg.Seed+77)
	if err != nil {
		return nil, err
	}
	rec := replay.NewRecorder(c.Procs())
	detach := rec.Attach(st.Lib)
	defer detach()
	if _, err := cinterp.Run(prog, st.Lib); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// String renders the benchmark table and the promotion verdict.
func (r *SliceBenchResult) String() string {
	var b strings.Builder
	b.WriteString("Slice benchmark: precise (CFG def-use) vs heuristic (line marking) kernels\n")
	fmt.Fprintf(&b, "%-8s %-10s %12s %8s %10s %8s %10s %12s\n",
		"workload", "variant", "discover ms", "lines", "eval ms", "replay", "peak RoTI", "final perf")
	preciseWins, heuristicWins := 0, 0
	for _, row := range r.Rows {
		for _, v := range []struct {
			name string
			sv   SliceVariant
		}{{"precise", row.Precise}, {"heuristic", row.Heuristic}} {
			fmt.Fprintf(&b, "%-8s %-10s %12.2f %8d %10.1f %8v %10.2f %12s\n",
				row.Workload, v.name, v.sv.DiscoveryMs, v.sv.KernelLines,
				v.sv.EvalMs, v.sv.ReplayIdentical, v.sv.PeakRoTI, fmtMBs(v.sv.FinalPerf))
		}
		if row.Precise.KernelLines <= row.Heuristic.KernelLines && row.Precise.ReplayIdentical {
			preciseWins++
		}
		if row.Heuristic.KernelLines < row.Precise.KernelLines && row.Heuristic.ReplayIdentical {
			heuristicWins++
		}
	}
	fmt.Fprintf(&b, "precise kernels no larger and replay-identical on %d/%d workloads (heuristic smaller on %d)\n",
		preciseWins, len(r.Rows), heuristicWins)
	return b.String()
}
