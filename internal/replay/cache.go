package replay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tunio/internal/cowmap"
	"tunio/internal/hdf5"
	"tunio/internal/ioreq"
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
// lock, so each distinct key is built once per generation. A wire build
// takes a plan-stripe lock (wire→plan order only), so the two cannot
// deadlock.
//
// Plans and wires live in two generations bounded by stageBudget; traces,
// one per registered kernel, are kept.
type StageCache struct {
	traces cowmap.Map[*Trace]
	cur    atomic.Pointer[stageGen] // builds and promotions go here
	prev   atomic.Pointer[stageGen] // read only; dropped at the next turnover
	turn   sync.Mutex               // serializes turnovers
	budget int64                    // stageBudget; tests shrink it

	planHits, planMisses, wireHits, wireMisses atomic.Int64
}

// stageBudget bounds the plan data (approximate bytes of ops and extents)
// a StageCache keeps. Artifacts are built into the current generation; a
// hit in the previous generation is promoted into the current one; when
// the current generation passes half the budget it becomes the previous
// one and the old previous one is dropped. Artifacts used since the last
// turnover survive it, so a search's working set stays cached, while a
// long-running service no longer keeps every projection of every kernel
// it ever tuned. One default-size Tune builds 60-200 MB of stage plans
// and wire plans over its run, and most wire plans are looked up once.
const stageBudget = 128 << 20

// stageGen is one generation of stage artifacts.
type stageGen struct {
	plans cowmap.Map[*StackPlan]
	wires cowmap.Map[*WirePlan]
	bytes atomic.Int64 // plan data of the artifacts published here
}

// artifact is a cached stage artifact.
type artifact interface {
	*StackPlan | *WirePlan
	size() int64
}

const (
	extentSize = int64(unsafe.Sizeof(ioreq.Extent{}))
	planOpSize = int64(unsafe.Sizeof(planOp{}))
	wireOpSize = int64(unsafe.Sizeof(wireOp{}))
)

// size approximates the plan data the stack plan references.
func (p *StackPlan) size() int64 {
	n := int64(len(p.ops)) * planOpSize
	for i := range p.ops {
		n += int64(len(p.ops[i].extents)) * extentSize
	}
	return n
}

// size approximates the plan data the wire plan owns. Independent data
// transfers reuse their stack plan's extents, so only metadata transfers'
// extents and collective rounds count.
func (w *WirePlan) size() int64 {
	n := int64(len(w.ops)) * wireOpSize
	for i := range w.ops {
		op := &w.ops[i]
		if op.metaItems > 0 {
			n += int64(len(op.extents)) * extentSize
		}
		if op.coll != nil {
			for _, r := range op.coll.Rounds {
				n += int64(len(r.Extents)) * extentSize
			}
		}
	}
	return n
}

// fetch returns the artifact under key from the current generation,
// promotes it from the previous one, or builds it into the current one;
// built reports whether build ran. pick selects the artifact's map in a
// generation.
func fetch[V artifact](c *StageCache, pick func(*stageGen) *cowmap.Map[V], key []byte, build func() (V, error)) (v V, built bool, err error) {
	cur := c.cur.Load()
	m := pick(cur)
	if v, ok := m.Get(key); ok {
		return v, false, nil
	}
	if v, ok := pick(c.prev.Load()).Get(key); ok {
		m.Insert(string(key), v)
		c.grow(cur, v.size())
		return v, false, nil
	}
	if v, built, err = m.GetOrBuild(key, build); built && err == nil {
		c.grow(cur, v.size())
	}
	return v, built, err
}

// grow accounts n bytes published into generation g and turns the
// generations over when g passes half the budget.
func (c *StageCache) grow(g *stageGen, n int64) {
	if g.bytes.Add(n) <= c.budget/2 {
		return
	}
	c.turn.Lock()
	defer c.turn.Unlock()
	if c.cur.Load() == g {
		c.prev.Store(g)
		c.cur.Store(&stageGen{})
	}
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
func NewSharedStageCache() *StageCache {
	c := &StageCache{budget: stageBudget}
	c.cur.Store(&stageGen{})
	c.prev.Store(&stageGen{})
	return c
}

// Register installs the trace for a kernel key. The first registration
// wins: a key already present keeps its trace, which is what lets many
// sessions race to register the same content-addressed kernel.
func (c *StageCache) Register(key string, t *Trace) { c.traces.Insert(key, t) }

// Stats returns a snapshot of the cache-wide counters (all views
// combined).
func (c *StageCache) Stats() StageStats {
	return StageStats{
		PlanHits: c.planHits.Load(), PlanMisses: c.planMisses.Load(),
		WireHits: c.wireHits.Load(), WireMisses: c.wireMisses.Load(),
	}
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
	wp, built, err := fetch(v.c, wiresOf, key, func() (*WirePlan, error) {
		sp, err := v.planFor(a, s.HDF5)
		if err != nil {
			return nil, err
		}
		return LowerPlan(sp, s.Hints, s.HDF5, ppn), nil
	})
	if built {
		v.wireMisses.Add(1)
		v.c.wireMisses.Add(1)
	} else {
		v.wireHits.Add(1)
		v.c.wireHits.Add(1)
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
	sp, built, err := fetch(v.c, plansOf, key, func() (*StackPlan, error) {
		t, ok := v.c.traces.Get(key[:len(v.kernelKey)])
		if !ok {
			return nil, fmt.Errorf("replay: no trace registered for kernel %q", v.kernelKey)
		}
		return BuildStackPlan(t, cfg)
	})
	if built {
		v.planMisses.Add(1)
		v.c.planMisses.Add(1)
	} else {
		v.planHits.Add(1)
		v.c.planHits.Add(1)
	}
	return sp, err
}

func plansOf(g *stageGen) *cowmap.Map[*StackPlan] { return &g.plans }
func wiresOf(g *stageGen) *cowmap.Map[*WirePlan]  { return &g.wires }

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
