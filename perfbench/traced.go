package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"tunio"
	"tunio/internal/analysis"
	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// tracedEngine runs one-shot jobs through the same session wiring as
// tunio.Engine.Tune, rebuilt here from the layers' public pieces so that
// every layer boundary is a call the benchmark makes and can time. The
// wiring must stay step for step what Engine.runSession and
// TraceEvaluator do: the traced run checks that every curve equals the
// untraced one bit for bit.
type tracedEngine struct {
	tr          *tracer
	store       *replay.KernelStore
	stages      *replay.StageCache
	gate        *tuner.Gate
	parallelism int
	agents      *agentSource
}

// session is one traced job: its spans' parents and its evaluator state.
type session struct {
	e    *tracedEngine
	job  Job
	c    *cluster.Cluster
	root open
	// search, memo and pool are the open spans of the RunBatch call, the
	// current generation's memo call and its pool call. Each is set
	// before the calls nested under it start.
	search, memo, pool open

	w        workload.Workload
	prog     *csrc.File
	storeKey string

	prepErr  error
	kernKey  string
	storeHit bool
	view     *replay.CacheView
	stacks   *workload.StackPool
	rts      sync.Pool // *replay.Runtime
	direct   tuner.Evaluator

	fellBack  atomic.Bool
	fbMu      sync.Mutex
	kernelErr error
}

// tune runs one job to completion and returns what Engine.Tune's Run
// would have returned, with EngineInfo filled the same way.
func (e *tracedEngine) tune(ctx context.Context, j Job) (*tunio.Result, error) {
	s := &session{e: e, job: j}
	s.root = e.tr.begin(open{}, j.ID, "job")
	defer s.root.end()
	s.c = cluster.CoriHaswell(j.Nodes, j.ProcsPerNode)
	space := params.Space()
	if err := s.resolve(); err != nil {
		return nil, err
	}

	cfg := tuner.Config{Space: space, PopSize: j.PopSize, MaxIterations: j.MaxIterations, Seed: j.Seed}
	switch j.Pipeline {
	case "tunio":
		agent, err := e.agents.clone()
		if err != nil {
			return nil, err
		}
		agent.Reset()
		cfg.Stopper = &timedStopper{s: s, inner: agent.Stopper}
		cfg.Picker = &timedPicker{s: s, inner: agent.Picker}
	case "heuristic":
		cfg.Stopper = &timedStopper{s: s, inner: tuner.NewHeuristicStopper()}
	}

	if s.prog != nil {
		s.direct = &tuner.SeededCSourceEvaluator{Prog: s.prog, Cluster: s.c, Reps: j.Reps, Seed: j.Seed}
	} else {
		s.direct = &tuner.SeededWorkloadEvaluator{Workload: s.w, Cluster: s.c, Reps: j.Reps, Seed: j.Seed}
	}
	memo := tuner.NewMemo(&timedPool{s: s, inner: &tuner.Pool{Eval: s, Workers: e.parallelism}})
	if s.prepErr = s.prepare(space); s.prepErr == nil {
		memo.SetKernelKey(s.kernKey)
	}
	s.search = e.tr.begin(s.root, j.ID, "tuner.search")
	res, err := tuner.RunBatch(ctx, cfg, &timedMemo{s: s, inner: memo})
	s.search.end()
	if res != nil {
		info := tuner.EngineInfo{
			MemoHits: res.CacheHits, MemoMisses: res.CacheMisses,
			TraceReady: s.prepErr == nil, KernelHash: s.kernKey, KernelStoreHit: s.storeHit,
		}
		if s.prepErr != nil {
			info.PrepareErr = s.prepErr.Error()
		}
		if s.view != nil {
			info.StageStats = s.view.Stats()
		}
		if s.fellBack.Load() {
			info.FellBack, info.TraceReady = true, false
			info.FallbackErr = s.kernelErr.Error()
		}
		res.EngineInfo = info
	}
	return res, err
}

// resolve selects the kernel as Engine.Tune does: a named workload, or
// the (discovered, then parsed) C source.
func (s *session) resolve() error {
	j := s.job
	if j.Source == "" {
		w, err := workload.ByName(j.Model, s.c.Procs())
		if err != nil {
			return err
		}
		s.w = w
		s.storeKey = "workload:" + j.Model + "/" + strconv.Itoa(s.c.Procs())
		return nil
	}
	src := j.Source
	if j.Discover {
		sp := s.e.tr.begin(s.root, j.ID, "discovery")
		k, err := core.DiscoverIO(src, discovery.Options{})
		sp.end()
		if err != nil {
			return fmt.Errorf("discovery: %w", err)
		}
		src = k.Source
	}
	sp := s.e.tr.begin(s.root, j.ID, "csrc.parse")
	prog, err := csrc.Parse(src)
	sp.end()
	if err != nil {
		return fmt.Errorf("parsing source: %w", err)
	}
	s.prog = prog
	sum := sha256.Sum256([]byte(src))
	s.storeKey = "src:" + hex.EncodeToString(sum[:8]) + "/" + strconv.Itoa(s.c.Procs())
	return nil
}

// prepare adopts the kernel's trace from the store or records it, then
// binds the session to the shared stage cache (TraceEvaluator.record).
func (s *session) prepare(space []params.Parameter) error {
	tr, id := s.e.tr, s.job.ID
	sp := tr.begin(s.root, id, "replay.kernel_store.get")
	ent, ok := s.e.store.Get(s.storeKey)
	sp.end()
	var t *replay.Trace
	if ok {
		t, s.kernKey, s.storeHit = ent.Trace, ent.KernelHash, true
	} else {
		sp = tr.begin(s.root, id, "replay.record")
		st, err := workload.BuildStack(s.c, params.DefaultAssignment(space).Settings(), s.job.Seed)
		if err == nil {
			if s.prog != nil {
				t, err = replay.RecordFunc(st, func(st *workload.Stack) error {
					_, err := cinterp.Run(s.prog, st.Lib)
					return err
				})
			} else {
				t, err = replay.Record(s.w, st)
			}
		}
		sp.end()
		if err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
		s.kernKey = replay.TraceKey(t)
		if s.prog != nil {
			sp = tr.begin(s.root, id, "analysis.signature")
			sig := analysis.ComputeSignature(s.prog, analysis.SignatureOptions{})
			var cs *analysis.ConcreteSignature
			var cerr error
			if sig.Exact {
				cs, cerr = sig.Concrete(map[string]int64{"nprocs": int64(t.Nprocs)})
			}
			sp.end()
			if sig.Exact {
				if cerr == nil {
					sp = tr.begin(s.root, id, "replay.crossvalidate")
					verr := replay.CrossValidate(t, cs)
					sp.end()
					if verr != nil {
						return fmt.Errorf("signature/trace mismatch: %w", verr)
					}
				}
				s.kernKey = "sig:" + sig.Hash()
			}
		}
		sp = tr.begin(s.root, id, "replay.kernel_store.put")
		s.e.store.Put(s.storeKey, replay.KernelEntry{Trace: t, KernelHash: s.kernKey})
		sp.end()
	}
	sp = tr.begin(s.root, id, "replay.stage.register")
	s.e.stages.Register(s.kernKey, t)
	s.view = s.e.stages.View(s.kernKey)
	s.stacks = workload.NewStackPool(s.c)
	sp.end()
	return nil
}

// Evaluate scores one genome: a gate slot, then staged replay, falling
// back to direct simulation for good on the first replay error — the
// engine's Pool{Gate} around a FallbackEvaluator, inlined so each
// evaluation's spans know their parent.
func (s *session) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	tr, id := s.e.tr, s.job.ID
	ev := tr.begin(s.pool, id, "tuner.eval")
	defer ev.end()
	sp := tr.begin(ev, id, "tuner.gate.wait")
	s.e.gate.Enter()
	sp.end()
	defer s.e.gate.Leave()
	if !s.fellBack.Load() {
		perf, cost, err := s.replayEval(ev, a, iteration)
		if err == nil {
			return perf, cost, nil
		}
		s.fbMu.Lock()
		if !s.fellBack.Load() {
			s.kernelErr = err
			s.fellBack.Store(true)
		}
		s.fbMu.Unlock()
	}
	sp = tr.begin(ev, id, "tuner.direct")
	defer sp.end()
	return s.direct.Evaluate(a, iteration)
}

// replayEval is TraceEvaluator.Evaluate with a span around each call.
func (s *session) replayEval(ev open, a *params.Assignment, iteration int) (float64, float64, error) {
	if s.prepErr != nil {
		return 0, 0, s.prepErr
	}
	tr, id := s.e.tr, s.job.ID
	reps := s.job.Reps
	if reps == 0 {
		reps = 3
	}
	sp := tr.begin(ev, id, "tuner.seed")
	base := tuner.SeedFor(s.job.Seed, iteration, a)
	sp.end()
	st := a.Settings()
	sp = tr.begin(ev, id, "replay.wire")
	wp, err := s.view.WireFor(a, st, s.c.ProcsPerNode)
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	rt, _ := s.rts.Get().(*replay.Runtime)
	if rt == nil {
		rt = &replay.Runtime{}
	}
	defer s.rts.Put(rt)

	kernelStyle := s.prog != nil
	var perfSum, minutes, runtime float64
	for r := 0; r < reps; r++ {
		sp = tr.begin(ev, id, "workload.stack")
		stack, err := s.stacks.Get(st, base+int64(r)*7919)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin(ev, id, "replay.exec")
		err = rt.Exec(wp, stack)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin(ev, id, "workload.perf")
		perf, _ := workload.Perf(stack.Sim.Report)
		sp.end()
		if kernelStyle {
			perfSum += perf
			minutes += stack.Sim.Now() / 60
		} else {
			perfSum += perf / float64(reps)
			runtime += stack.Sim.Now()
		}
		s.stacks.Put(stack)
	}
	if kernelStyle {
		return perfSum / float64(reps), minutes, nil
	}
	return perfSum, runtime / 60, nil
}

// timedMemo spans each generation's call into the genome memo.
type timedMemo struct {
	s     *session
	inner *tuner.Memo
}

func (m *timedMemo) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]tuner.EvalResult, error) {
	m.s.memo = m.s.e.tr.begin(m.s.search, m.s.job.ID, "tuner.memo")
	defer m.s.memo.end()
	return m.inner.EvaluateBatch(ctx, batch, iteration)
}

// CacheStats forwards the memo counters RunBatch copies onto the Result.
func (m *timedMemo) CacheStats() (hits, misses int) { return m.inner.CacheStats() }

// timedPool spans the memo's call into the worker pool (misses only).
type timedPool struct {
	s     *session
	inner *tuner.Pool
}

func (p *timedPool) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]tuner.EvalResult, error) {
	p.s.pool = p.s.e.tr.begin(p.s.memo, p.s.job.ID, "tuner.pool")
	defer p.s.pool.end()
	return p.inner.EvaluateBatch(ctx, batch, iteration)
}

// timedStopper and timedPicker span the RL agents' per-iteration calls.
type timedStopper struct {
	s     *session
	inner tuner.Stopper
}

func (t *timedStopper) Stop(iteration int, bestPerf float64) bool {
	sp := t.s.e.tr.begin(t.s.search, t.s.job.ID, "core.stopper")
	defer sp.end()
	return t.inner.Stop(iteration, bestPerf)
}

func (t *timedStopper) Reset() { t.inner.Reset() }

type timedPicker struct {
	s     *session
	inner tuner.SubsetPicker
}

func (t *timedPicker) NextSubset(perf float64, current []bool) []bool {
	sp := t.s.e.tr.begin(t.s.search, t.s.job.ID, "core.picker")
	defer sp.end()
	return t.inner.NextSubset(perf, current)
}

func (t *timedPicker) Reset() { t.inner.Reset() }
