package core

import (
	"encoding/json"

	"tunio/internal/cluster"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// TunIO bundles the framework's trained components behind the paper's
// Table I API: stop(current_iteration, best_perf), discover_io(source,
// options), and subset_picker(perf, current_parameter_set). The component
// objects also implement the tuner package's Stopper and SubsetPicker
// interfaces, so they attach directly to any tuning pipeline.
type TunIO struct {
	Stopper *EarlyStopper
	Picker  *SmartPicker
}

// Stop implements the Table I `stop` interface.
func (t *TunIO) Stop(currentIteration int, bestPerf float64) bool {
	return t.Stopper.Stop(currentIteration, bestPerf)
}

// SubsetPicker implements the Table I `subset_picker` interface.
func (t *TunIO) SubsetPicker(perf float64, currentParameterSet []bool) []bool {
	return t.Picker.NextSubset(perf, currentParameterSet)
}

// Reset clears per-episode state on both agents (between tuning runs).
func (t *TunIO) Reset() {
	t.Stopper.Reset()
	t.Picker.Reset()
}

// Clone deep-copies the trained agents (weights and impact scores) so a
// tuning run can learn online without mutating the original — experiment
// harnesses clone per pipeline to keep runs independent.
func (t *TunIO) Clone() (*TunIO, error) {
	sb, err := json.Marshal(t.Stopper)
	if err != nil {
		return nil, err
	}
	pb, err := json.Marshal(t.Picker)
	if err != nil {
		return nil, err
	}
	out := &TunIO{Stopper: &EarlyStopper{}, Picker: &SmartPicker{}}
	if err := json.Unmarshal(sb, out.Stopper); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(pb, out.Picker); err != nil {
		return nil, err
	}
	// restored agents default to exploratory deployment settings
	out.Stopper.SetEpsilon(t.Stopper.Epsilon())
	return out, nil
}

// DiscoverIO implements the Table I `discover_io` interface: it reduces
// application source code to its I/O kernel.
func DiscoverIO(sourceCode string, options discovery.Options) (*discovery.Kernel, error) {
	return discovery.Discover(sourceCode, options)
}

// TrainConfig configures offline training of a full TunIO instance; the
// staged pipeline in internal/train runs it.
type TrainConfig struct {
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
	// expected tuning budget. Default 50 (the paper's generation budget).
	StopperHorizon int
	// Seed drives everything.
	Seed int64
}
