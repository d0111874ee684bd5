package replay

import (
	"fmt"
	"sync/atomic"

	"tunio/internal/cowmap"
	"tunio/internal/hdf5"
	"tunio/internal/params"
)

// wireFootprint is the union of the plan and aggregate footprints: the
// parameters a wire plan depends on.
var wireFootprint = append(append([]string{}, params.PlanStage...), params.AggregateStage...)

// StageCache memoizes the staged artifacts of one or more traces by
// (kernel, parameter-projection) key: stack plans keyed by the plan
// footprint, wire plans keyed by the plan+aggregate footprint. A GA
// population whose genomes differ only in service-stage parameters
// (striping, mdc_conf) shares a single wire plan across all of them.
//
// A cache holds one trace per registered kernel key, so it can be shared
// process-wide across tuning sessions: two sessions tuning kernels with
// the same content hash — same signature or same recorded trace — hit
// each other's artifacts, because stage planning is a pure function of
// (trace, projected parameters) and never reads the run seed. Sessions
// query it through per-session Views. Safe for concurrent use.
//
// The traces, plans and wires are each a cowmap.Map: a warm lookup takes
// no lock and allocates nothing, and a cold build runs under one stripe
// lock, so each distinct key is built exactly once. A wire build takes a
// plan-stripe lock (wire→plan order only), so the two cannot deadlock.
type StageCache struct {
	traces cowmap.Map[*Trace]
	plans  cowmap.Map[*StackPlan]
	wires  cowmap.Map[*WirePlan]
}

// StageStats counts cache traffic per stage.
type StageStats struct {
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	WireHits   int64 `json:"wire_hits"`
	WireMisses int64 `json:"wire_misses"`
}

// PlanHitRate returns the stage-1 hit fraction (0 when never queried).
func (s StageStats) PlanHitRate() float64 {
	if t := s.PlanHits + s.PlanMisses; t > 0 {
		return float64(s.PlanHits) / float64(t)
	}
	return 0
}

// HitRate returns the overall hit fraction across both cached stages
// (0 when never queried) — the headline number for how much of a
// session's stage work the cache absorbed.
func (s StageStats) HitRate() float64 {
	if t := s.PlanHits + s.PlanMisses + s.WireHits + s.WireMisses; t > 0 {
		return float64(s.PlanHits+s.WireHits) / float64(t)
	}
	return 0
}

// WireHitRate returns the stage-2 hit fraction (0 when never queried).
func (s StageStats) WireHitRate() float64 {
	if t := s.WireHits + s.WireMisses; t > 0 {
		return float64(s.WireHits) / float64(t)
	}
	return 0
}

// add accumulates o into s.
func (s *StageStats) add(o StageStats) {
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.WireHits += o.WireHits
	s.WireMisses += o.WireMisses
}

// NewSharedStageCache returns an empty multi-kernel cache, meant to be
// shared across sessions: callers Register each kernel's trace under its
// content hash and query through per-session Views.
func NewSharedStageCache() *StageCache { return &StageCache{} }

// Register installs the trace for a kernel key. The first registration
// wins: a key already present keeps its trace, which is what lets many
// sessions race to register the same content-addressed kernel.
func (c *StageCache) Register(key string, t *Trace) { c.traces.Insert(key, t) }

// Stats returns a snapshot of the cache-wide counters (all views
// combined).
func (c *StageCache) Stats() StageStats {
	p, w := c.plans.Stats(), c.wires.Stats()
	return StageStats{PlanHits: p.Hits, PlanMisses: p.Misses, WireHits: w.Hits, WireMisses: w.Misses}
}

// View returns a session-local handle on the cache bound to one kernel
// key. Views share the cache's artifacts — a plan built through one view
// is a hit through every other — but each view keeps its own StageStats,
// so a session can report its personal hit rate against the shared cache.
func (c *StageCache) View(kernelKey string) *CacheView {
	return &CacheView{c: c, kernelKey: kernelKey}
}

// CacheView is a per-session window onto a shared StageCache: fixed
// kernel key, private hit/miss counters. The counters are atomics, so a
// warm-path hit through a view touches no mutex at all. Safe for
// concurrent use.
type CacheView struct {
	c         *StageCache
	kernelKey string

	planHits   atomic.Int64
	planMisses atomic.Int64
	wireHits   atomic.Int64
	wireMisses atomic.Int64
}

// KernelKey returns the view's kernel key.
func (v *CacheView) KernelKey() string { return v.kernelKey }

// WireFor returns the wire plan of the assignment's configuration under
// the view's kernel, building (and caching, shared) what its projections
// miss. s must be a.Settings() and ppn the cluster's processes per node.
//
// The key is built in stack scratch, so a hit takes no lock and makes no
// allocation. A miss builds the plan (itself a cached lookup) and lowers
// it under the wire stripe's lock.
func (v *CacheView) WireFor(a *params.Assignment, s params.StackSettings, ppn int) (*WirePlan, error) {
	var scratch [64]byte
	key := append(scratch[:0], v.kernelKey...)
	key = append(key, 0)
	key = a.AppendProjection(key, wireFootprint)
	wp, built, err := v.c.wires.GetOrBuild(key, func() (*WirePlan, error) {
		sp, err := v.planFor(a, s.HDF5)
		if err != nil {
			return nil, err
		}
		return LowerPlan(sp, s.Hints, s.HDF5, ppn), nil
	})
	if built {
		v.wireMisses.Add(1)
	} else {
		v.wireHits.Add(1)
	}
	return wp, err
}

// planFor returns the stage-1 stack plan for the assignment's plan
// projection, building and publishing it on a miss.
func (v *CacheView) planFor(a *params.Assignment, cfg hdf5.Config) (*StackPlan, error) {
	var scratch [64]byte
	key := append(scratch[:0], v.kernelKey...)
	key = append(key, 0)
	key = a.AppendProjection(key, params.PlanStage)
	sp, built, err := v.c.plans.GetOrBuild(key, func() (*StackPlan, error) {
		t, ok := v.c.traces.Get(key[:len(v.kernelKey)])
		if !ok {
			return nil, fmt.Errorf("replay: no trace registered for kernel %q", v.kernelKey)
		}
		return BuildStackPlan(t, cfg)
	})
	if built {
		v.planMisses.Add(1)
	} else {
		v.planHits.Add(1)
	}
	return sp, err
}

// Stats returns the view's private counters: the traffic this view (not
// the whole shared cache) generated.
func (v *CacheView) Stats() StageStats {
	return StageStats{
		PlanHits:   v.planHits.Load(),
		PlanMisses: v.planMisses.Load(),
		WireHits:   v.wireHits.Load(),
		WireMisses: v.wireMisses.Load(),
	}
}

// Lower is the uncached form of CacheView.WireFor: it plans and lowers
// the trace afresh. Tests compare cache hits against it.
func Lower(t *Trace, s params.StackSettings, ppn int) (*WirePlan, error) {
	sp, err := BuildStackPlan(t, s.HDF5)
	if err != nil {
		return nil, err
	}
	return LowerPlan(sp, s.Hints, s.HDF5, ppn), nil
}
