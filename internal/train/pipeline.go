// Package train rebuilds TunIO's offline training (§III-C, §III-D) as a
// resumable staged pipeline on the replay engine:
//
//	sweep → impact → surrogate → picker → stopper
//
// The sweep — historically the dominant cost, a serial loop of direct
// workload executions — scores core.SweepPlan's run list through the
// staged trace-replay engine instead: each kernel records once (or is
// served from a shared KernelStore), every configuration replays cached
// stage artifacts against pooled stacks, and per-run seeds come from the
// plan, so results are bit-identical to the direct loop and independent
// of worker count.
//
// Every stage reads and writes a versioned, content-hashed JSON artifact
// (see Artifact): a killed run resumes from the last completed stage, and
// stages whose inputs are unchanged are skipped outright. The picker and
// stopper artifacts are the agents' own MarshalJSON forms, so a served
// tuniod can load them directly instead of retraining.
package train

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/mat"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// Stage names, in execution order.
const (
	StageSweep     = "sweep"
	StageImpact    = "impact"
	StageSurrogate = "surrogate"
	StagePicker    = "picker"
	StageStopper   = "stopper"
)

// agentFile is the combined deployable agent written next to the stage
// artifacts, in the format cmd/tuniod's -agent flag loads.
const agentFile = "agent.json"

// Stages returns the pipeline's stage names in execution order.
func Stages() []string {
	return []string{StageSweep, StageImpact, StageSurrogate, StagePicker, StageStopper}
}

// Config configures a pipeline run. The training fields mirror
// core.TrainConfig (and default the same way); the rest wire the pipeline
// into shared engine infrastructure and the artifact store.
type Config struct {
	// Space is the parameter space to tune (params.Space() by default).
	Space []params.Parameter
	// Cluster is the machine the sweep kernels run on (4x32 Cori Haswell
	// by default, the paper's component-test allocation).
	Cluster *cluster.Cluster
	// Kernels are the representative sweep workloads (VPIC, FLASH, HACC
	// by default).
	Kernels []workload.Workload
	// ExtraRandomRuns adds random configurations to the sweep. Default 20.
	ExtraRandomRuns int
	// StopperEpochs / PickerEpochs bound offline training (the stagnation
	// criterion usually fires earlier). Defaults 40 / 30.
	StopperEpochs int
	PickerEpochs  int
	// StopperHorizon normalizes the stopper's iteration feature to the
	// expected tuning budget. Default 50.
	StopperHorizon int
	// Seed drives everything. Stages draw from independent seed-derived
	// streams, so a stage restored from its artifact leaves the others'
	// randomness untouched.
	Seed int64

	// Workers bounds the sweep's replay parallelism (0 = GOMAXPROCS).
	Workers int
	// Gate, when non-nil, additionally bounds sweep evaluations by the
	// process-wide budget shared with the tuning pools.
	Gate *tuner.Gate
	// Store, when non-nil, serves sweep kernel traces across runs (and
	// receives ones recorded here).
	Store *replay.KernelStore
	// StageCache, when non-nil, shares replay stage artifacts with other
	// sessions; nil uses a pipeline-private cache.
	StageCache *replay.StageCache

	// ArtifactsDir is where stage artifacts live. Empty runs the pipeline
	// fully in memory (nothing written, nothing resumable).
	ArtifactsDir string
	// Resume reuses artifacts in ArtifactsDir whose input hashes still
	// match this configuration instead of re-running their stages.
	Resume bool
	// Until, when non-empty, stops the pipeline after the named stage.
	Until string
	// Progress, when non-nil, receives one report per stage as it
	// completes or is skipped.
	Progress func(StageReport)
}

func (c *Config) fillDefaults() {
	if c.Space == nil {
		c.Space = params.Space()
	}
	if c.Cluster == nil {
		c.Cluster = cluster.CoriHaswell(4, 32)
	}
	if c.Kernels == nil {
		c.Kernels = core.DefaultSweepKernels(c.Cluster.Procs())
	}
	if c.ExtraRandomRuns == 0 {
		c.ExtraRandomRuns = 20
	}
	if c.StopperEpochs == 0 {
		c.StopperEpochs = 40
	}
	if c.PickerEpochs == 0 {
		c.PickerEpochs = 30
	}
}

// StageReport describes one stage's outcome.
type StageReport struct {
	Stage     string  `json:"stage"`
	Skipped   bool    `json:"skipped"` // restored from a valid artifact
	Seconds   float64 `json:"seconds"`
	InputHash string  `json:"input_hash"`
}

// Result is a pipeline run's product. Agent is nil when Until stopped the
// pipeline before both agents were trained.
type Result struct {
	Agent  *core.TunIO
	Sweep  *core.SweepResult
	Impact []float64
	Stages []StageReport
}

// StageReport returns the report for the named stage (zero value if the
// pipeline never reached it).
func (r *Result) StageReport(stage string) StageReport {
	for _, s := range r.Stages {
		if s.Stage == stage {
			return s
		}
	}
	return StageReport{}
}

// sweepPayload is the sweep stage's artifact: the observations, plus the
// content keys of the kernels that produced them ("sig:…" or "trace:…"
// per kernel) for provenance.
type sweepPayload struct {
	Params   []string    `json:"params"`
	Kernels  []string    `json:"kernels"`
	Features [][]float64 `json:"features"`
	Perfs    []float64   `json:"perfs"`
}

// impactPayload is the impact stage's artifact: the PCA scores.
type impactPayload struct {
	Scores []float64 `json:"scores"`
}

// surrogatePayload is the surrogate stage's artifact: the additive model
// plus the sweep's perf scale, everything picker training needs.
type surrogatePayload struct {
	Surrogate *core.Surrogate `json:"surrogate"`
	PerfScale float64         `json:"perf_scale"`
}

// Train runs the full pipeline in memory and returns the trained agent.
func Train(cfg Config) (*core.TunIO, error) {
	res, err := Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return res.Agent, nil
}

// Run executes the pipeline. Stages execute in order; each one consults
// its artifact first (when resuming), trains otherwise, and persists its
// product (when ArtifactsDir is set) before the next stage starts — so a
// run killed between stages loses at most the stage in flight.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	if cfg.Until != "" && !validStage(cfg.Until) {
		return nil, fmt.Errorf("train: unknown stage %q (want one of %v)", cfg.Until, Stages())
	}
	if cfg.ArtifactsDir != "" {
		if err := os.MkdirAll(cfg.ArtifactsDir, 0o755); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	p := &pipeline{cfg: &cfg, res: res}

	// Kernel fingerprints pin the sweep artifact to the exact workload
	// configurations (sweep kernels are custom-sized structs, not just
	// names).
	kernelFPs := make([]string, len(cfg.Kernels))
	for i, w := range cfg.Kernels {
		kernelFPs[i] = fmt.Sprintf("%T %#v", w, w)
	}

	// --- sweep ---
	sweepIn, err := hashInputs("sweep", cfg.Space, cfg.Cluster, kernelFPs, cfg.Seed, cfg.ExtraRandomRuns)
	if err != nil {
		return nil, err
	}
	var sp sweepPayload
	sweepPH, err := p.stage(ctx, StageSweep, sweepIn, &sp, func() (any, error) {
		sweep, kernKeys, err := replaySweep(ctx, &cfg)
		if err != nil {
			return nil, err
		}
		return &sweepPayload{
			Params:   paramNames(cfg.Space),
			Kernels:  kernKeys,
			Features: sweep.Features,
			Perfs:    sweep.Perfs,
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Sweep = &core.SweepResult{Space: cfg.Space, Features: sp.Features, Perfs: sp.Perfs}
	if cfg.Until == StageSweep {
		return res, nil
	}

	// --- impact (PCA) ---
	impactIn, err := hashInputs("impact", sweepPH)
	if err != nil {
		return nil, err
	}
	var ip impactPayload
	impactPH, err := p.stage(ctx, StageImpact, impactIn, &ip, func() (any, error) {
		scores, err := res.Sweep.ImpactScores()
		if err != nil {
			return nil, err
		}
		return &impactPayload{Scores: scores}, nil
	})
	if err != nil {
		return res, err
	}
	res.Impact = ip.Scores
	if cfg.Until == StageImpact {
		return res, nil
	}

	// --- surrogate fit ---
	surIn, err := hashInputs("surrogate", sweepPH)
	if err != nil {
		return nil, err
	}
	var sur surrogatePayload
	surPH, err := p.stage(ctx, StageSurrogate, surIn, &sur, func() (any, error) {
		return &surrogatePayload{
			Surrogate: core.FitSurrogate(res.Sweep),
			PerfScale: mat.MaxVal(res.Sweep.Perfs),
		}, nil
	})
	if err != nil {
		return res, err
	}
	if cfg.Until == StageSurrogate {
		return res, nil
	}

	// --- picker Q-training ---
	pickerIn, err := hashInputs("picker", impactPH, surPH, cfg.Seed, cfg.PickerEpochs)
	if err != nil {
		return nil, err
	}
	picker := &core.SmartPicker{}
	if _, err := p.stage(ctx, StagePicker, pickerIn, picker, func() (any, error) {
		return core.TrainSmartPickerFrom(
			core.PickerConfig{Seed: cfg.Seed + 2},
			ip.Scores, sur.Surrogate, sur.PerfScale,
			cfg.PickerEpochs,
			rand.New(rand.NewSource(cfg.Seed+4)),
		)
	}); err != nil {
		return res, err
	}
	if cfg.Until == StagePicker {
		return res, nil
	}

	// --- stopper Q-training (independent of the sweep chain) ---
	stopperIn, err := hashInputs("stopper", cfg.Seed, cfg.StopperEpochs, cfg.StopperHorizon)
	if err != nil {
		return nil, err
	}
	stopper := &core.EarlyStopper{}
	if _, err := p.stage(ctx, StageStopper, stopperIn, stopper, func() (any, error) {
		return core.TrainEarlyStopper(
			core.StopperConfig{Seed: cfg.Seed + 3, Horizon: cfg.StopperHorizon},
			cfg.StopperEpochs,
			rand.New(rand.NewSource(cfg.Seed+5)),
		)
	}); err != nil {
		return res, err
	}

	res.Agent = &core.TunIO{Stopper: stopper, Picker: picker}
	if cfg.ArtifactsDir != "" {
		b, err := json.MarshalIndent(res.Agent, "", " ")
		if err != nil {
			return res, err
		}
		b = append(b, '\n')
		if err := writeFileAtomic(AgentPath(cfg.ArtifactsDir), b); err != nil {
			return res, err
		}
	}
	return res, nil
}

// pipeline carries the shared stage-runner state.
type pipeline struct {
	cfg *Config
	res *Result
}

// stage runs one pipeline stage: on resume, a valid artifact whose input
// hash matches restores into out and the stage is skipped; otherwise
// build() trains, and its product is persisted and unmarshaled into out.
// Either way the payload hash is returned for downstream input chaining.
//
// Restoring through the payload on both paths is deliberate: the object
// the pipeline continues with is always exactly what a resumed (or
// artifact-serving) run would hold, so "trained here" and "loaded from
// disk" are indistinguishable by construction.
func (p *pipeline) stage(ctx context.Context, name, inputHash string, out any, build func() (any, error)) (string, error) {
	start := time.Now()
	if p.cfg.ArtifactsDir != "" && p.cfg.Resume {
		if art, err := readArtifact(p.cfg.ArtifactsDir, name); err == nil && art.InputHash == inputHash {
			if err := json.Unmarshal(art.Payload, out); err == nil {
				p.report(StageReport{Stage: name, Skipped: true, Seconds: time.Since(start).Seconds(), InputHash: inputHash})
				return art.PayloadHash, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	v, err := build()
	if err != nil {
		return "", fmt.Errorf("train: stage %s: %w", name, err)
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("train: stage %s: %w", name, err)
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return "", fmt.Errorf("train: stage %s: %w", name, err)
	}
	ph := hashBytes(payload)
	if p.cfg.ArtifactsDir != "" {
		if ph, err = writeArtifact(p.cfg.ArtifactsDir, name, inputHash, payload); err != nil {
			return "", fmt.Errorf("train: stage %s: %w", name, err)
		}
	}
	p.report(StageReport{Stage: name, Seconds: time.Since(start).Seconds(), InputHash: inputHash})
	return ph, nil
}

func (p *pipeline) report(r StageReport) {
	p.res.Stages = append(p.res.Stages, r)
	if p.cfg.Progress != nil {
		p.cfg.Progress(r)
	}
}

// AgentPath returns the combined deployable agent file inside dir.
func AgentPath(dir string) string { return filepath.Join(dir, agentFile) }

// LoadAgent assembles a deployable TunIO from the picker and stopper
// artifacts in dir, validating both envelopes. The loaded agent's
// serialized form is byte-identical to the trained original's, so a
// server seeded from artifacts serves the same curves as one that
// trained in process.
func LoadAgent(dir string) (*core.TunIO, error) {
	pa, err := readArtifact(dir, StagePicker)
	if err != nil {
		return nil, err
	}
	sa, err := readArtifact(dir, StageStopper)
	if err != nil {
		return nil, err
	}
	picker := &core.SmartPicker{}
	if err := json.Unmarshal(pa.Payload, picker); err != nil {
		return nil, fmt.Errorf("train: picker artifact: %w", err)
	}
	stopper := &core.EarlyStopper{}
	if err := json.Unmarshal(sa.Payload, stopper); err != nil {
		return nil, fmt.Errorf("train: stopper artifact: %w", err)
	}
	return &core.TunIO{Stopper: stopper, Picker: picker}, nil
}

func validStage(s string) bool {
	for _, st := range Stages() {
		if s == st {
			return true
		}
	}
	return false
}

func paramNames(space []params.Parameter) []string {
	names := make([]string, len(space))
	for i, p := range space {
		names[i] = p.Name
	}
	return names
}
