// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV) on the simulated stack. Each FigNN function
// runs the corresponding experiment and returns a typed result with the
// same rows/series the paper reports; String() renders it for terminals.
//
// Absolute numbers depend on the simulated cluster constants — the shape
// (who wins, by what factor, where crossovers fall) is what reproduces.
package experiments

import (
	"fmt"
	"sync"

	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/train"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Smoke runs every experiment at reduced population/iteration counts
	// so the full suite finishes in about a minute of wall time.
	Smoke Scale = iota
	// Paper runs the evaluation-sized configuration (500-node BD-CATS
	// end-to-end test, 50-generation pipelines).
	Paper
)

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  int64
}

// pipeline sizing per scale.
func (c Config) popSize() int {
	if c.Scale == Paper {
		return 16
	}
	return 8
}

func (c Config) maxIterations() int {
	if c.Scale == Paper {
		return 50
	}
	return 18
}

func (c Config) reps() int {
	if c.Scale == Paper {
		return 3
	}
	return 1
}

// endToEndIterations gives the BD-CATS pipeline a budget the larger
// machine's tuning curve converges within (the paper uses 50 generations).
func (c Config) endToEndIterations() int {
	if c.Scale == Paper {
		return 50
	}
	return 35
}

// componentCluster is the 4-node x 32-proc allocation of the paper's
// component tests.
func (c Config) componentCluster() *cluster.Cluster {
	return cluster.CoriHaswell(4, 32)
}

// endToEndCluster is the paper's 500-node end-to-end allocation (reduced
// under Smoke).
func (c Config) endToEndCluster() *cluster.Cluster {
	if c.Scale == Paper {
		return cluster.CoriHaswell(500, 4) // 2000 procs ~ paper's 1600
	}
	return cluster.CoriHaswell(64, 4)
}

// trained agents are expensive to build; cache per (seed, scale).
var (
	agentMu    sync.Mutex
	agentCache = map[int64]*core.TunIO{}
)

// Agent returns a (cached) offline-trained TunIO instance.
func Agent(cfg Config) (*core.TunIO, error) {
	agentMu.Lock()
	defer agentMu.Unlock()
	key := cfg.Seed*2 + int64(cfg.Scale)
	if a, ok := agentCache[key]; ok {
		return a, nil
	}
	tc := train.Config{Seed: cfg.Seed, StopperHorizon: cfg.endToEndIterations()}
	if cfg.Scale == Smoke {
		// lighter training for smoke runs; the sweep still runs at the
		// component-test scale so impact rankings transfer to deployment
		tc.Kernels = core.DefaultSweepKernels(cfg.componentCluster().Procs())
		tc.ExtraRandomRuns = 32
		tc.StopperEpochs = 25
		tc.PickerEpochs = 15
	}
	a, err := train.Train(tc)
	if err != nil {
		return nil, err
	}
	agentCache[key] = a
	return a, nil
}

// fmtMBs renders a bandwidth.
func fmtMBs(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.2f GB/s", v/1000)
	}
	return fmt.Sprintf("%.1f MB/s", v)
}
