package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tunio"
	"tunio/internal/core"
	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/server"
	"tunio/internal/tuner"
)

// config is one benchmark run.
type config struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Procs     int // closed-loop clients, session parallelism and engine workers
	Shape     shape
	Train     tunio.TrainConfig
	SetupReps int    // set-up repetitions; setup_s is their median
	SoloCheck int    // serve-mixed jobs re-run solo after the window
	SpansPath string // where a traced run writes its spans ("" = nowhere)
	// tamper, when set, alters each traced outcome before the checks run;
	// the tests use it to show that a failed check fails the command.
	tamper func(*outcome)
}

var workloadNames = []string{"hstuner-cold", "tunio-source", "serve-mixed"}

// outcome is one job as its client saw it.
type outcome struct {
	Job     Job
	Latency time.Duration // submit until the result is available
	First   time.Duration // submit until the first curve point
	Err     error

	Curve     metrics.Curve
	BestPerf  float64
	StoppedAt int
	Best      string // canonical best configuration
	Info      tunio.EngineInfo
	Drift     *tunio.DriftResult

	// HTTP client figures (serve-mixed only).
	SubmitRTT, StatusRTT time.Duration
	SSEEvents, SSEBytes  int
}

// agentSource hands out private copies of the trained agent (agents are
// stateful), the way the server does.
type agentSource struct{ blob []byte }

func (a *agentSource) clone() (*tunio.TunIO, error) {
	t := &tunio.TunIO{Stopper: &core.EarlyStopper{}, Picker: &core.SmartPicker{}}
	if err := json.Unmarshal(a.blob, t); err != nil {
		return nil, fmt.Errorf("cloning agent: %w", err)
	}
	return t, nil
}

// world is what set-up builds: the agent, the job list and the engine or
// server the timed window runs against.
type world struct {
	agents *agentSource
	jobs   []Job
	eng    *tunio.Engine    // tunio-source, serve-mixed
	ts     *httptest.Server // serve-mixed
	train  time.Duration    // this set-up's training time
}

// close stops the server and lets the engine and its caches be collected.
func (w *world) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	w.eng, w.ts = nil, nil
}

// buildWorld performs one full set-up: training, input generation, and
// engine or server construction.
func buildWorld(cfg config) (*world, error) {
	w := &world{}
	t0 := time.Now()
	agent, err := tunio.Train(cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("training agent: %w", err)
	}
	w.train = time.Since(t0)
	blob, err := json.Marshal(agent)
	if err != nil {
		return nil, err
	}
	w.agents = &agentSource{blob: blob}
	w.jobs = generate(cfg)
	switch cfg.Workload {
	case "tunio-source":
		w.eng = tunio.NewEngine(tunio.EngineOptions{Workers: cfg.Procs})
	case "serve-mixed":
		w.eng = tunio.NewEngine(tunio.EngineOptions{Workers: cfg.Procs})
		srv, err := server.New(server.Options{Engine: w.eng, Agent: agent})
		if err != nil {
			return nil, err
		}
		w.ts = httptest.NewServer(srv)
	}
	return w, nil
}

// generate lists the workload's jobs: more than a window can use, with a
// wide margin over the rates measured on a 2-CPU machine (about 0.2, 10
// and 13 jobs/s per CPU).
func generate(cfg config) []Job {
	perCPU := cfg.Seconds * float64(cfg.Procs)
	switch cfg.Workload {
	case "hstuner-cold":
		return coldJobs(cfg.Seed, int(20*perCPU)+3, cfg.Shape)
	case "tunio-source":
		return sourceJobs(cfg.Seed, int(40*perCPU)+64, cfg.Shape)
	default:
		return serveJobs(cfg.Seed, int(50*perCPU)+64, cfg.Shape)
	}
}

// drive runs jobs closed-loop: each of clients takes the next job as soon
// as its previous one completed, while more(next) allows. It returns the
// outcomes in job order and the wall time until the last job finished.
func drive(jobs []Job, clients int, more func(next int) bool, do func(Job) outcome) ([]outcome, time.Duration) {
	outs := make([]outcome, len(jobs))
	var mu sync.Mutex
	next, taken := 0, 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(jobs) || !more(next) {
					mu.Unlock()
					return
				}
				i := next
				next++
				taken = next
				mu.Unlock()
				outs[i] = do(jobs[i])
			}
		}()
	}
	wg.Wait()
	return outs[:taken], time.Since(start)
}

// bestKey renders a configuration canonically, in parameter-space order.
func bestKey(values map[string]int64) string {
	var b strings.Builder
	for _, p := range params.Space() {
		fmt.Fprintf(&b, "%s=%d;", p.Name, values[p.Name])
	}
	return b.String()
}

func bestOf(a *params.Assignment) string {
	if a == nil {
		return ""
	}
	m := map[string]int64{}
	for _, p := range a.Space() {
		m[p.Name] = a.Value(p.Name)
	}
	return bestKey(m)
}

// fromResult fills an outcome from an in-process result.
func fromResult(o *outcome, res *tunio.Result) {
	o.Curve = append(metrics.Curve(nil), res.Curve...)
	o.BestPerf, o.StoppedAt, o.Best, o.Info = res.BestPerf, res.StoppedAt, bestOf(res.Best), res.EngineInfo
}

// tuneInProcess submits one job through Engine.Tune and waits for it.
func tuneInProcess(ctx context.Context, eng *tunio.Engine, j Job, procs int, agents *agentSource) outcome {
	o := outcome{Job: j}
	var agent *tunio.TunIO
	if j.Pipeline == "tunio" {
		var err error
		if agent, err = agents.clone(); err != nil {
			o.Err = err
			return o
		}
	}
	spec := j.spec(procs, agent)
	var first atomic.Int64
	start := time.Now()
	spec.Progress = func(metrics.Point) { first.CompareAndSwap(0, int64(time.Since(start))) }
	if eng == nil {
		eng = tunio.NewEngine(tunio.EngineOptions{}) // what tunio.Tune does
	}
	run, err := eng.Tune(ctx, spec)
	if err != nil {
		o.Err, o.Latency, o.First = err, time.Since(start), time.Since(start)
		return o
	}
	res, err := run.Wait()
	o.Latency = time.Since(start)
	o.First = time.Duration(first.Load())
	if o.First == 0 {
		o.First = o.Latency
	}
	if err != nil {
		o.Err = err
		return o
	}
	fromResult(&o, res)
	if d, ok := run.Drift(); ok {
		o.Drift = d
	}
	return o
}

// result is everything one run measured, before it is printed.
type result struct {
	Attempted, Failed int
	Metrics           []metric
	Notes             []string
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// pass is one timed pass over jobs: its outcomes, wall time and the
// engine counters read after it.
type pass struct {
	outs  []outcome
	wall  time.Duration
	stats tunio.EngineStats
}

// run performs set-up, the timed window, the traced pass when asked, and
// every output check. A failed check is an error.
func run(ctx context.Context, cfg config) (*result, error) {
	// Set-up, several times; the last world is the one measured.
	var setups, trains []float64
	var w *world
	for r := 0; r < max(1, cfg.SetupReps); r++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = buildWorld(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, w.train.Seconds())
	}
	defer w.close()
	runtime.GC() // start the window without set-up's garbage

	window := cfg.Seconds
	if cfg.Trace {
		window = cfg.Seconds / 2 // the traced pass repeats the window's jobs
	}
	deadline := time.Now().Add(time.Duration(window * float64(time.Second)))
	untraced, err := timedPass(ctx, cfg, w, deadline)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(untraced.outs)}
	var problems []string
	for _, o := range untraced.outs {
		if o.Err != nil {
			res.Failed++
		}
	}
	problems = append(problems, checkOutcomes(cfg, untraced.outs)...)
	if cfg.Workload == "serve-mixed" {
		problems = append(problems, soloCheck(ctx, cfg, w, untraced.outs)...)
	}

	if !cfg.Trace {
		endToEnd(res, cfg, untraced, median(setups))
	} else {
		// The traced pass builds its own engine; drop the untraced one and
		// its caches first, so the traced pass does not pay for their heap.
		w.close()
		runtime.GC()
		traced, tr, err := tracedPass(ctx, cfg, w, untraced.outs)
		if err != nil {
			return nil, err
		}
		if cfg.tamper != nil {
			for i := range traced.outs {
				cfg.tamper(&traced.outs[i])
			}
		}
		problems = append(problems, checkOutcomes(cfg, traced.outs)...)
		problems = append(problems, checkSame(untraced.outs, traced.outs)...)
		spans := tr.snapshot()
		perLayer(res, cfg, untraced, traced, spans, median(trains))
		if cfg.SpansPath != "" {
			if err := writeSpans(cfg.SpansPath, spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			res.note("spans: %d written to %s", len(spans), cfg.SpansPath)
		}
	}
	if len(problems) > 0 {
		return res, fmt.Errorf("output checks failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return res, nil
}

// timedPass runs the workload's jobs until the deadline (hstuner-cold:
// until the first whole cycle of the five workloads after it).
func timedPass(ctx context.Context, cfg config, w *world, deadline time.Time) (pass, error) {
	var p pass
	more := func(next int) bool { return time.Now().Before(deadline) }
	switch cfg.Workload {
	case "hstuner-cold":
		// Whole cycles only, so every run times the same jobs, and at least
		// three (one when the traced pass will repeat them) to have enough
		// samples. The single client collects the heap between jobs, so
		// each job starts like a fresh tunio.Tune process instead of paying
		// for its predecessor's garbage.
		cycle, minJobs := len(modelNames), 3*len(modelNames)
		if cfg.Trace {
			minJobs = cycle
		}
		more = func(next int) bool {
			return next < minJobs || next%cycle != 0 || time.Now().Before(deadline)
		}
		p.outs, p.wall = drive(w.jobs, 1, more, func(j Job) outcome {
			runtime.GC()
			eng := tunio.NewEngine(tunio.EngineOptions{})
			o := tuneInProcess(ctx, eng, j, cfg.Procs, w.agents)
			addStats(&p.stats, eng.Stats())
			return o
		})
	case "tunio-source":
		p.outs, p.wall = drive(w.jobs, cfg.Procs, more, func(j Job) outcome {
			return tuneInProcess(ctx, w.eng, j, cfg.Procs, w.agents)
		})
		p.stats = w.eng.Stats()
	case "serve-mixed":
		c := &httpClient{base: w.ts.URL, hc: w.ts.Client(), procs: cfg.Procs}
		p.outs, p.wall = drive(w.jobs, cfg.Procs, more, func(j Job) outcome { return c.do(ctx, j, nil) })
		st, err := c.stats(ctx)
		if err != nil {
			return p, err
		}
		p.stats = st
	default:
		return p, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(workloadNames, ", "))
	}
	if len(p.outs) == len(w.jobs) {
		return p, fmt.Errorf("the window used all %d generated jobs; generate more", len(w.jobs))
	}
	return p, nil
}

// addStats accumulates per-job engines' counters (hstuner-cold).
func addStats(dst *tunio.EngineStats, s tunio.EngineStats) {
	dst.SessionsStarted += s.SessionsStarted
	dst.SessionsDone += s.SessionsDone
	dst.SessionsFailed += s.SessionsFailed
	dst.SessionsCanceled += s.SessionsCanceled
	dst.MemoHits += s.MemoHits
	dst.MemoMisses += s.MemoMisses
	dst.Stage.PlanHits += s.Stage.PlanHits
	dst.Stage.PlanMisses += s.Stage.PlanMisses
	dst.Stage.WireHits += s.Stage.WireHits
	dst.Stage.WireMisses += s.Stage.WireMisses
	dst.Kernels.Hits += s.Kernels.Hits
	dst.Kernels.Misses += s.Kernels.Misses
}

// tracedPass reruns exactly the untraced window's jobs with spans on.
// In-process workloads go through tracedEngine; serve-mixed repeats the
// HTTP client against a fresh server, timing the client-side calls.
func tracedPass(ctx context.Context, cfg config, w *world, prev []outcome) (pass, *tracer, error) {
	jobs := make([]Job, len(prev))
	for i, o := range prev {
		jobs[i] = o.Job
	}
	all := func(int) bool { return true }
	tr := newTracer()
	var p pass
	switch cfg.Workload {
	case "hstuner-cold":
		p.outs, p.wall = drive(jobs, 1, all, func(j Job) outcome {
			runtime.GC()
			e := &tracedEngine{tr: tr, store: replay.NewKernelStore(), stages: replay.NewSharedStageCache(),
				parallelism: cfg.Procs, agents: w.agents}
			return tuneTraced(ctx, e, j)
		})
	case "tunio-source":
		e := &tracedEngine{tr: tr, store: replay.NewKernelStore(), stages: replay.NewSharedStageCache(),
			gate: tuner.NewGate(cfg.Procs), parallelism: cfg.Procs, agents: w.agents}
		p.outs, p.wall = drive(jobs, cfg.Procs, all, func(j Job) outcome { return tuneTraced(ctx, e, j) })
		p.stats.Stage = e.stages.Stats()
		p.stats.Kernels = e.store.Stats()
	case "serve-mixed":
		eng := tunio.NewEngine(tunio.EngineOptions{Workers: cfg.Procs})
		agent, err := w.agents.clone()
		if err != nil {
			return p, nil, err
		}
		srv, err := server.New(server.Options{Engine: eng, Agent: agent})
		if err != nil {
			return p, nil, err
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		c := &httpClient{base: ts.URL, hc: ts.Client(), procs: cfg.Procs}
		p.outs, p.wall = drive(jobs, cfg.Procs, all, func(j Job) outcome { return c.do(ctx, j, tr) })
		if p.stats, err = c.stats(ctx); err != nil {
			return p, nil, err
		}
	}
	return p, tr, nil
}

// tuneTraced runs one job through the traced wiring.
func tuneTraced(ctx context.Context, e *tracedEngine, j Job) outcome {
	o := outcome{Job: j}
	start := time.Now()
	res, err := e.tune(ctx, j)
	o.Latency, o.First = time.Since(start), time.Since(start)
	if err != nil {
		o.Err = err
		return o
	}
	fromResult(&o, res)
	return o
}

// checkOutcomes applies the per-job output checks.
func checkOutcomes(cfg config, outs []outcome) []string {
	var bad []string
	for _, o := range outs {
		id := fmt.Sprintf("job %d (%s %s)", o.Job.ID, o.Job.Model, o.Job.Pipeline)
		if o.Err != nil {
			bad = append(bad, fmt.Sprintf("%s did not end done: %v", id, o.Err))
			continue
		}
		if o.Job.Online != nil {
			if o.Drift == nil {
				bad = append(bad, id+": online job has no drift result")
			}
			continue
		}
		if !o.Info.TraceReady || o.Info.FellBack {
			bad = append(bad, fmt.Sprintf("%s: trace_ready=%v fell_back=%v (%s%s)", id,
				o.Info.TraceReady, o.Info.FellBack, o.Info.PrepareErr, o.Info.FallbackErr))
		}
		if cfg.Workload == "tunio-source" && (!strings.HasPrefix(o.Info.KernelHash, "sig:") || o.Info.KernelStoreHit) {
			bad = append(bad, fmt.Sprintf("%s: kernel hash %q, kernel store hit %v; want a sig: hash and a miss",
				id, o.Info.KernelHash, o.Info.KernelStoreHit))
		}
		if len(o.Curve) == 0 {
			bad = append(bad, id+": empty curve")
		}
	}
	return bad
}

// checkSame requires the traced pass to reproduce every untraced job.
func checkSame(untraced, traced []outcome) []string {
	byID := map[int]outcome{}
	for _, o := range traced {
		byID[o.Job.ID] = o
	}
	var bad []string
	for _, u := range untraced {
		t, ok := byID[u.Job.ID]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("job %d: missing from the traced pass", u.Job.ID))
		case !sameResult(u, t):
			bad = append(bad, fmt.Sprintf("job %d (%s): traced result differs from untraced", u.Job.ID, u.Job.Model))
		}
	}
	return bad
}

// sameResult reports whether two results are bit-identical: every curve
// point, the best perf, the stopping iteration and the best configuration.
func sameResult(a, b outcome) bool {
	if len(a.Curve) != len(b.Curve) || a.BestPerf != b.BestPerf || a.StoppedAt != b.StoppedAt || a.Best != b.Best {
		return false
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			return false
		}
	}
	return true
}

// soloCheck re-runs a seeded sample of served jobs through a private
// engine, outside the timed window, and requires identical results.
func soloCheck(ctx context.Context, cfg config, w *world, outs []outcome) []string {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var bad []string
	for _, i := range rng.Perm(len(outs))[:min(cfg.SoloCheck, len(outs))] {
		served := outs[i]
		if served.Err != nil {
			continue // already reported
		}
		solo := tuneInProcess(ctx, nil, served.Job, cfg.Procs, w.agents)
		switch {
		case solo.Err != nil:
			bad = append(bad, fmt.Sprintf("job %d: solo run failed: %v", served.Job.ID, solo.Err))
		case !sameResult(served, solo):
			bad = append(bad, fmt.Sprintf("job %d (%s %s): served result differs from a solo Engine.Tune",
				served.Job.ID, served.Job.Model, served.Job.Pipeline))
		}
	}
	return bad
}

// endToEnd adds the user-visible metrics of an untraced run.
func endToEnd(r *result, cfg config, p pass, setupS float64) {
	var lat, first []float64
	var logSpeed, roti []float64
	for _, o := range p.outs {
		lat = append(lat, o.Latency.Seconds())
		first = append(first, float64(o.First)/1e6)
		if o.Err == nil && o.Job.Online == nil {
			logSpeed = append(logSpeed, math.Log(o.Curve.Speedup()))
			roti = append(roti, o.Curve.RoTIAt(len(o.Curve)-1))
		}
	}
	q, beyond := tailPercentile(len(lat))
	r.add("setup_s", setupS, "s")
	r.add("jobs_per_s", float64(len(p.outs)-r.Failed)/p.wall.Seconds(), "1/s")
	r.add("job_s_p50", percentile(lat, 50), "s")
	r.add("job_s_tail", percentile(lat, q), "s")
	r.add("first_point_ms_p50", percentile(first, 50), "ms")
	r.add("first_point_ms_tail", percentile(first, q), "ms")
	r.add("tuned_speedup", math.Exp(mean(logSpeed)), "ratio")
	r.add("roti_mbs_per_min", mean(roti), "MB/s/min")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.note("failed_frac = %g ratio (%d of %d jobs)", float64(r.Failed)/float64(len(p.outs)), r.Failed, len(p.outs))
	r.note("tail percentile: p%g over %d jobs (%d beyond it)", q, len(lat), beyond)
	r.note("window: %.3f s, %d jobs, %d clients", p.wall.Seconds(), len(p.outs), clientsOf(cfg))
}

func clientsOf(cfg config) int {
	if cfg.Workload == "hstuner-cold" {
		return 1
	}
	return cfg.Procs
}

// tailPercentile picks the highest of p99.9, p99, p90 and p50 that has at
// least ten samples beyond it, and returns it with that count. With fewer
// than twenty samples none qualifies and the median stands in. Rungs a
// decade apart keep a window's sample count well inside one band, so the
// tail of two runs is the same percentile.
func tailPercentile(n int) (q float64, beyond int) {
	for _, q := range []float64{99.9, 99, 90, 50} {
		if b := n - rankOf(n, q); b >= 10 {
			return q, b
		}
	}
	return 50, n - rankOf(n, 50)
}

// rankOf is the nearest-rank position (1-based) of percentile q in n.
func rankOf(n int, q float64) int {
	k := int(math.Ceil(q*float64(n)/100 - 1e-9)) // 99.9*10000/100 is not exact
	return min(max(k, 1), n)
}

// percentile returns the nearest-rank q-th percentile (0 for no samples).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
