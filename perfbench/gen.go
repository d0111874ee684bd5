package main

import (
	"fmt"
	"math/rand"

	"tunio"
	"tunio/internal/server"
	"tunio/internal/workload"
)

// modelNames are the paper's five named workloads (§IV, Table III).
var modelNames = []string{"vpic", "hacc", "flash", "bdcats", "macsio"}

// Job is one generated tuning job. The generator is the only place the
// benchmark seed enters: the program under test receives nothing but these
// fields, turned into a tunio.JobSpec or a server.JobRequest.
type Job struct {
	ID int `json:"id"`
	// Model names the workload model the job tunes; with Source set it
	// is only the model the source was generated from.
	Model    string `json:"model"`
	Source   string `json:"source,omitempty"`
	Discover bool   `json:"discover,omitempty"`
	// Pipeline is "hstuner", "heuristic" or "tunio", as in the server API.
	Pipeline      string                `json:"pipeline"`
	Nodes         int                   `json:"nodes"`
	ProcsPerNode  int                   `json:"procs_per_node"`
	PopSize       int                   `json:"pop_size"`
	MaxIterations int                   `json:"max_iterations"`
	Reps          int                   `json:"reps"`
	Seed          int64                 `json:"seed"`
	Tenant        string                `json:"tenant,omitempty"`
	Drift         *tunio.Drift          `json:"drift,omitempty"`
	Online        *server.OnlineRequest `json:"online,omitempty"`
}

// shape sizes the generated jobs. fullShape is what the benchmark runs;
// the tests use a tiny one so a smoke run of every workload takes seconds.
type shape struct {
	ColdNodes, ColdPPN, ColdPop, ColdIters, ColdReps int
	SrcNodes, SrcPPN, SrcPop, SrcIters               int
	ServePop, ServeIters, OnlineWindows              int
}

var fullShape = shape{
	ColdNodes: 4, ColdPPN: 32, ColdPop: 16, ColdIters: 50, ColdReps: 3,
	SrcNodes: 2, SrcPPN: 8, SrcPop: 16, SrcIters: 50,
	ServePop: 16, ServeIters: 12, OnlineWindows: 10,
}

// coldJobs lists hstuner-cold jobs: cycles of the five named workloads at
// the default Tune shape, each cycle in a seed-shuffled order. Cycle c
// tunes every workload with tuning seed c+1, so every whole cycle is the
// same set of jobs whatever the benchmark seed; the seed only reorders.
func coldJobs(seed int64, cycles int, sh shape) []Job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []Job
	for c := 0; c < cycles; c++ {
		for _, i := range rng.Perm(len(modelNames)) {
			jobs = append(jobs, Job{
				ID: len(jobs), Model: modelNames[i], Pipeline: "hstuner",
				Nodes: sh.ColdNodes, ProcsPerNode: sh.ColdPPN,
				PopSize: sh.ColdPop, MaxIterations: sh.ColdIters, Reps: sh.ColdReps,
				Seed: int64(c + 1),
			})
		}
	}
	return jobs
}

// sourceJobs lists n tunio-source jobs: C programs generated from the five
// workload models with seed-drawn I/O sizes, each program distinct from
// every other in the list, tuned with discovery and the trained agent.
// Models rotate in seed-shuffled cycles so every window sees the same mix.
func sourceJobs(seed int64, n int, sh shape) []Job {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var order []int
	jobs := make([]Job, 0, n)
	for len(jobs) < n {
		if len(order) == 0 {
			order = rng.Perm(len(modelNames))
		}
		model := modelNames[order[0]]
		order = order[1:]
		src := sizedSource(model, sh.SrcNodes*sh.SrcPPN, rng)
		for tries := 0; seen[src]; tries++ {
			if tries == 1000 {
				panic(fmt.Sprintf("perfbench: no new %s program after %d draws; widen sizedSource's ranges", model, tries))
			}
			src = sizedSource(model, sh.SrcNodes*sh.SrcPPN, rng)
		}
		seen[src] = true
		jobs = append(jobs, Job{
			ID: len(jobs), Model: model, Source: src, Discover: true, Pipeline: "tunio",
			Nodes: sh.SrcNodes, ProcsPerNode: sh.SrcPPN,
			PopSize: sh.SrcPop, MaxIterations: sh.SrcIters, Reps: 3,
			Seed: 1 + rng.Int63n(1<<20),
		})
	}
	return jobs
}

// sizedSource renders one model's C source with seed-drawn values for the
// exported fields that set its I/O volume, within ±25% of the model
// defaults. Fields that set how many I/O calls a run makes (steps, vars,
// segments, dumps) and compute-only fields stay at their defaults: the
// former would spread job cost over an order of magnitude, so one seed's
// window would not be comparable with another's, and the latter are
// stripped by discovery, which would leave two jobs the same kernel.
func sizedSource(model string, procs int, rng *rand.Rand) string {
	vary := func(def int64) int64 { return def*3/4 + rng.Int63n(def/2+1) }
	switch model {
	case "vpic":
		w := workload.NewVPIC(procs)
		w.ParticlesPerRank = w.Segments * vary(w.ParticlesPerRank/w.Segments)
		return w.CSource()
	case "hacc":
		w := workload.NewHACC(procs)
		w.ParticlesPerRank = w.Segments * vary(w.ParticlesPerRank/w.Segments)
		return w.CSource()
	case "flash":
		w := workload.NewFLASH(procs)
		w.BlocksPerRank = vary(w.BlocksPerRank)
		w.NXB, w.NYB, w.NZB = 14+rng.Int63n(5), 14+rng.Int63n(5), 14+rng.Int63n(5)
		return w.CSource()
	case "bdcats":
		w := workload.NewBDCATS(procs)
		w.ParticlesPerRank = w.Segments * vary(w.ParticlesPerRank/w.Segments)
		return w.CSource()
	default:
		w := workload.NewMACSio(procs)
		w.PartBytes = 8 * vary(w.PartBytes/8)
		return w.CSource()
	}
}

// serveJobs lists n serve-mixed jobs over a small fixed kernel set — the
// five named workloads at 2x8 and their default-size C sources — so that
// after first sight every kernel is served from the engine's caches.
// Jobs come in blocks of 35 in seed-shuffled order: for each model, every
// pipeline ("hstuner", "heuristic", "tunio") on both kernel forms, plus
// one online session on a drifting machine with pruning on. A fixed mix
// keeps the kinds of job, whose latencies differ several-fold, in the
// same proportions in every window, so the medians compare across seeds.
// One-shot jobs keep the default Reps 3; online ones use Reps 1, which
// pruning requires. Tuning seeds, drift schedules and tenants vary.
func serveJobs(seed int64, n int, sh shape) []Job {
	rng := rand.New(rand.NewSource(seed))
	type kind struct {
		model, pipeline string
		source, online  bool
	}
	var block []kind
	for _, m := range modelNames {
		for _, p := range []string{"hstuner", "heuristic", "tunio"} {
			block = append(block, kind{m, p, false, false}, kind{m, p, true, false})
		}
		block = append(block, kind{model: m, pipeline: "hstuner", online: true})
	}
	jobs := make([]Job, 0, n)
	for len(jobs) < n {
		for _, i := range rng.Perm(len(block)) {
			if len(jobs) == n {
				break
			}
			k := block[i]
			j := Job{
				ID: len(jobs), Model: k.model, Pipeline: k.pipeline,
				Nodes: 2, ProcsPerNode: 8,
				PopSize: sh.ServePop, MaxIterations: sh.ServeIters, Reps: 3,
				Seed:   1 + rng.Int63n(1<<20),
				Tenant: fmt.Sprintf("tenant-%d", len(jobs)%3),
			}
			if k.source {
				j.Source, j.Discover = defaultSource(k.model, j.Nodes*j.ProcsPerNode), true
			}
			if k.online {
				j.Reps = 1
				j.Drift = &tunio.Drift{Seed: 1 + rng.Int63n(16), Regimes: []tunio.Regime{
					{Start: 25, OSTLoad: 0.3 + 0.1*float64(rng.Intn(3)), NICLoad: 0.3, Contention: 3},
				}}
				j.Online = &server.OnlineRequest{
					Windows: sh.OnlineWindows, WindowGap: 10,
					Neighbors: 4, Rounds: 2, InitRounds: 3, Prune: true,
				}
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// defaultSource renders a model's C source at its default sizes.
func defaultSource(model string, procs int) string {
	w, err := workload.ByName(model, procs)
	if err != nil {
		panic(err) // modelNames holds only valid names
	}
	return w.(workload.HasCSource).CSource()
}

// spec turns a job into the in-process engine spec. agent is the job's
// private agent copy (nil unless Pipeline is "tunio").
func (j Job) spec(parallelism int, agent *tunio.TunIO) tunio.JobSpec {
	s := tunio.JobSpec{
		Source: j.Source, Discover: j.Discover, Tenant: j.Tenant,
		Nodes: j.Nodes, ProcsPerNode: j.ProcsPerNode,
		PopSize: j.PopSize, MaxIterations: j.MaxIterations, Reps: j.Reps,
		Seed: j.Seed, Parallelism: parallelism, Drift: j.Drift,
		Agent: agent, Heuristic: j.Pipeline == "heuristic",
	}
	if j.Source == "" {
		s.Workload = j.Model
	}
	if o := j.Online; o != nil {
		s.Online = &tunio.OnlineSpec{
			Windows: o.Windows, WindowGap: o.WindowGap, Threshold: o.Threshold,
			Patience: o.Patience, Neighbors: o.Neighbors, Rounds: o.Rounds,
			InitRounds: o.InitRounds, Prune: o.Prune, GA: o.GA, Oracle: o.Oracle,
		}
	}
	return s
}

// request turns a job into the server's submit payload.
func (j Job) request(parallelism int) server.JobRequest {
	r := server.JobRequest{
		Source: j.Source, Discover: j.Discover, Pipeline: j.Pipeline,
		Nodes: j.Nodes, ProcsPerNode: j.ProcsPerNode,
		PopSize: j.PopSize, MaxIterations: j.MaxIterations, Reps: j.Reps,
		Seed: j.Seed, Parallelism: parallelism, Drift: j.Drift, Online: j.Online,
	}
	if j.Source == "" {
		r.Workload = j.Model
	}
	return r
}
