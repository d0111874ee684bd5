package tuner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"tunio/internal/cowmap"
	"tunio/internal/params"
)

// EvalResult is one configuration's measured objective: the perf achieved
// and the (simulated) minutes the measurement consumed.
type EvalResult struct {
	Perf        float64
	CostMinutes float64
}

// BatchEvaluator measures a whole generation at once. Implementations may
// evaluate the batch concurrently, but the returned slice is indexed by
// batch position: results[i] belongs to batch[i], so the pipeline can
// commit them in population order regardless of completion order.
//
// Honoring ctx is the implementation's responsibility: a canceled context
// should surface as ctx.Err() (workers in flight may finish first).
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error)
}

// BatchError wraps a single configuration's evaluation failure with its
// batch position, so RunBatch can report which population member failed
// exactly as the serial pipeline did.
type BatchError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("eval %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying evaluation error.
func (e *BatchError) Unwrap() error { return e.Err }

// AdaptEvaluator lifts a per-configuration Evaluator into a BatchEvaluator
// that evaluates strictly serially, in batch order, so a stateful
// evaluator sees one fixed call sequence. Evaluators that already
// implement BatchEvaluator are returned unchanged.
func AdaptEvaluator(e Evaluator) BatchEvaluator {
	if be, ok := e.(BatchEvaluator); ok {
		return be
	}
	return &serialBatch{eval: e}
}

type serialBatch struct{ eval Evaluator }

func (s *serialBatch) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error) {
	out := make([]EvalResult, len(batch))
	for i, a := range batch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		perf, cost, err := s.eval.Evaluate(a, iteration)
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
		out[i] = EvalResult{Perf: perf, CostMinutes: cost}
	}
	return out, nil
}

// Gate bounds the total number of evaluations in flight across every
// pool that shares it — the process-wide worker budget of a multi-session
// engine. Each pool still schedules its own batch (so per-session
// determinism is untouched), but no more than the gate's capacity of
// simulations run at once machine-wide. A nil *Gate means no shared
// bound, so the zero configuration is the historical behavior.
type Gate struct {
	sem chan struct{}
}

// NewGate returns a gate admitting at most n concurrent evaluations;
// n <= 0 returns nil (unbounded).
func NewGate(n int) *Gate {
	if n <= 0 {
		return nil
	}
	return &Gate{sem: make(chan struct{}, n)}
}

// Cap returns the gate's capacity (0 for a nil gate).
func (g *Gate) Cap() int {
	if g == nil {
		return 0
	}
	return cap(g.sem)
}

// InFlight returns the number of held slots (0 for a nil gate).
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	return len(g.sem)
}

// Enter blocks until a slot is free (no-op for a nil gate). Evaluations
// outside ForEach, such as the drift controller's service windows, take
// their slot of the shared budget with it.
func (g *Gate) Enter() {
	if g != nil {
		g.sem <- struct{}{}
	}
}

// Leave releases a slot taken by Enter (no-op for a nil gate).
func (g *Gate) Leave() {
	if g != nil {
		<-g.sem
	}
}

// Pool evaluates a batch on a bounded worker pool (ForEach). Eval must be
// safe for concurrent use and deterministic in (assignment, iteration) —
// i.e. it must not derive behavior from call order (see SeedFor). Under
// that contract the pool's results are bit-identical to a serial pass for
// any worker count: results are committed by batch index, and on multiple
// failures the error of the smallest batch index wins, matching where a
// serial pass would have stopped. A panic inside Eval is that index's
// error, not a crash of the process.
type Pool struct {
	Eval Evaluator
	// Workers bounds concurrency; 0 means GOMAXPROCS.
	Workers int
	// Gate, when non-nil, additionally bounds concurrency across every
	// pool sharing it: each evaluation holds one gate slot for its
	// duration. Results are unaffected — the gate only schedules.
	Gate *Gate
}

// EvaluateBatch implements BatchEvaluator.
func (p *Pool) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error) {
	out := make([]EvalResult, len(batch))
	err := ForEach(ctx, len(batch), p.Workers, p.Gate, func(i int) error {
		perf, cost, err := p.Eval.Evaluate(batch[i], iteration)
		out[i] = EvalResult{Perf: perf, CostMinutes: cost}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach calls fn(i) for every i in [0, n) on at most workers goroutines
// (0 means GOMAXPROCS): the one indexed worker loop behind every
// evaluation fan-out — tuning pools, the drift controller's candidate
// batches and the training sweep. Each call holds one gate slot for its
// duration, and a panic inside fn is index i's error, not a crash of the
// process. Once ctx ends no further index starts and ForEach returns
// ctx.Err() after the calls in flight finish. Otherwise it returns a
// *BatchError for the smallest failing index — where a serial pass would
// have stopped. With at most one worker it is that serial pass: indices
// run in order on the caller's goroutine, stopping at the first error.
func ForEach(ctx context.Context, n, workers int, gate *Gate, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := gatedCall(gate, fn, i); err != nil {
				return &BatchError{Index: i, Err: err}
			}
		}
		return nil
	}

	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = gatedCall(gate, fn, i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// gatedCall runs fn(i) under a gate slot and a panic boundary: a panic
// inside fn (the lustre backend panics on invalid extents) is returned as
// the call's error.
func gatedCall(gate *Gate, fn func(i int) error, i int) (err error) {
	gate.Enter()
	defer gate.Leave()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("tuner: evaluation panicked: %v", r)
		}
	}()
	return fn(i)
}

// Memo adds a genome-keyed memoization cache in front of a BatchEvaluator:
// a configuration measured once is never re-simulated — later requests
// (within a batch or across generations) reuse the measured (perf, cost).
// The first occurrence in batch order defines the cached value, so curves
// stay bit-identical between serial and parallel execution.
//
// Safe for concurrent use. The cache is a cowmap.Map, so a batch whose
// genomes are all cached is served with zero locks. Two goroutines racing
// on the same uncached genome may both simulate it, but SeedFor makes the
// measurements bit-identical, so whichever publishes first changes
// nothing.
type Memo struct {
	Inner BatchEvaluator

	cache  cowmap.Map[EvalResult]
	mu     sync.Mutex // serializes key changes
	prefix atomic.Pointer[memoPrefix]
}

// memoPrefix is the part of every cache key that is not the genome: the
// kernel hash and, when set, the drift epoch, rendered once. Keying
// (rather than flushing) on epoch keeps the invalidation monotonic and
// race-free — an in-flight batch keeps the prefix it started with.
type memoPrefix struct {
	kernKey  string
	epoch    float64
	hasEpoch bool
	rendered string
}

func newMemoPrefix(kernKey string, epoch float64, hasEpoch bool) *memoPrefix {
	p := &memoPrefix{kernKey: kernKey, epoch: epoch, hasEpoch: hasEpoch, rendered: kernKey + "\x00"}
	if hasEpoch {
		p.rendered += "e" + strconv.FormatUint(math.Float64bits(epoch), 16) + "\x00"
	}
	return p
}

// NewMemo wraps inner with an empty cache.
func NewMemo(inner BatchEvaluator) *Memo {
	m := &Memo{Inner: inner}
	m.prefix.Store(newMemoPrefix("", 0, false))
	return m
}

// SetKernelKey installs a kernel content hash (see
// TraceEvaluator.KernelHash) as a component of every cache key, so a
// cache serialized or shared beyond one kernel can never return another
// kernel's measurement for the same genome.
func (m *Memo) SetKernelKey(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.prefix.Load()
	m.prefix.Store(newMemoPrefix(key, old.epoch, old.hasEpoch))
}

// SetEpoch installs a drift epoch (a simulated re-tune timestamp) as a
// component of every cache key. Entries written under a different epoch
// — a different cluster regime — can never answer for this one: RunDrift
// re-tunes across an epoch boundary always re-simulate. Epochs under a
// drift schedule are strictly increasing, so a stale regime's entries
// are unreachable forever, not merely unlikely.
func (m *Memo) SetEpoch(epoch float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.prefix.Load()
	if !old.hasEpoch || old.epoch != epoch {
		m.prefix.Store(newMemoPrefix(old.kernKey, epoch, true))
	}
}

// appendGenomeKey appends the genome's dot-separated value indices.
func appendGenomeKey(b []byte, a *params.Assignment) []byte {
	for i, v := range a.Genome() {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// EvaluateBatch implements BatchEvaluator: cached positions are served
// from the cache; the remaining distinct genomes are forwarded to the
// inner evaluator as one (possibly concurrent) sub-batch. A position
// repeating a genome simulated earlier in the same batch is served from
// the cache once the sub-batch is published, so it counts as a hit.
func (m *Memo) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error) {
	out := make([]EvalResult, len(batch))
	prefix := m.prefix.Load().rendered
	var scratch [96]byte

	var sub []*params.Assignment
	var subIdx []int           // sub position -> batch position
	var subKeys []string       // sub position -> cache key
	var queued map[string]bool // subKeys as a set
	var repeats []int          // batch positions repeating a queued genome
	for i, a := range batch {
		k := appendGenomeKey(append(scratch[:0], prefix...), a)
		if queued[string(k)] {
			repeats = append(repeats, i)
			continue
		}
		if r, ok := m.cache.Get(k); ok {
			out[i] = r
			continue
		}
		if queued == nil {
			queued = map[string]bool{}
		}
		key := string(k)
		queued[key] = true
		sub = append(sub, a)
		subIdx = append(subIdx, i)
		subKeys = append(subKeys, key)
	}
	if len(sub) == 0 {
		return out, nil
	}

	res, err := m.Inner.EvaluateBatch(ctx, sub, iteration)
	if err != nil {
		if be, ok := err.(*BatchError); ok {
			// surface the position the caller asked about
			return nil, &BatchError{Index: subIdx[be.Index], Err: be.Err}
		}
		return nil, err
	}
	fill := make(map[string]EvalResult, len(res))
	for j, r := range res {
		fill[subKeys[j]] = r
		out[subIdx[j]] = r
	}
	m.cache.InsertAll(fill)
	for _, i := range repeats {
		out[i], _ = m.cache.Get(appendGenomeKey(append(scratch[:0], prefix...), batch[i]))
	}
	return out, nil
}

// CacheStats reports how many batch positions were served from the cache
// versus simulated. RunBatch copies these onto the Result.
func (m *Memo) CacheStats() (hits, misses int) {
	st := m.cache.Stats()
	return int(st.Hits), int(st.Misses)
}

// cacheStatser lets RunBatch surface memoization counters without
// depending on a concrete wrapper type.
type cacheStatser interface {
	CacheStats() (hits, misses int)
}

// SeedFor derives the deterministic per-evaluation RNG seed the batch
// evaluators use: an FNV-1a hash of (iteration, genome) mixed into the
// base seed. Unlike a shared call counter, the derivation is independent
// of evaluation order, which is what lets a generation run on any number
// of workers and still reproduce the serial measurement stream.
func SeedFor(base int64, iteration int, a *params.Assignment) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(iteration))
	for _, g := range a.Genome() {
		mix(uint64(g))
	}
	return base + int64(h&0x7fffffffffffffff)
}
