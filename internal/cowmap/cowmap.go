// Package cowmap is the one cache primitive behind the replay engine's
// shared caches (stage plans and wires, the kernel store, the genome
// memo): a string-keyed map split into a fixed set of lock stripes, each
// published copy-on-write.
//
// Readers load a stripe's published map pointer and index it with no
// lock and no allocation. Writers take only that stripe's mutex, clone the
// stripe's map, insert, and republish. An entry never changes once
// published: the first writer under a key wins, so racing builders of the
// same key converge on one value. Entries are never evicted.
package cowmap

import (
	"sync"
	"sync/atomic"
)

// Stripes is the number of lock stripes. A power of two so stripeOf can
// mask instead of mod. On a 2-core machine 32 stripes served mixed jobs
// about 1.5x faster than one copy-on-write stripe, and 1024 stripes were
// no faster than 32 (DESIGN §14).
const Stripes = 32

// Map is a striped copy-on-write map. The zero value is an empty map
// ready to use. Safe for concurrent use; must not be copied after first
// use.
type Map[V any] struct {
	stripes [Stripes]stripe[V]
}

type stripe[V any] struct {
	m      atomic.Pointer[map[string]V]
	mu     sync.Mutex // serializes writers; readers never take it
	hits   atomic.Int64
	misses atomic.Int64
}

// Stats counts the lookups that Get and GetOrBuild served (Hits) and did
// not (Misses), and the number of entries (Len), summed over stripes.
// A snapshot taken while traffic is in flight is approximate in the usual
// monotonic-counter sense; a quiescent snapshot is exact.
type Stats struct {
	Hits   int64
	Misses int64
	Len    int
}

// stripeOf hashes a key onto a stripe (FNV-1a, masked).
func stripeOf[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (Stripes - 1)
}

func (s *stripe[V]) load() map[string]V {
	if p := s.m.Load(); p != nil {
		return *p
	}
	return nil
}

// Get returns the value under key, counting a hit or a miss. It takes no
// lock, and the key conversion inside the map index does not allocate,
// so key may alias caller scratch.
func (m *Map[V]) Get(key []byte) (V, bool) {
	s := &m.stripes[stripeOf(key)]
	v, ok := s.load()[string(key)]
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// GetOrBuild returns the value under key, running build and publishing
// its result on a miss. The lookup is Get's lock-free read; a miss takes
// the stripe mutex, looks again, and builds under the lock, so concurrent
// callers missing one key run build exactly once and the rest wait and
// are served its result. built reports whether this call ran build (a
// miss); every other return is a hit. A failed build publishes nothing.
// build must not call back into the same Map.
func (m *Map[V]) GetOrBuild(key []byte, build func() (V, error)) (v V, built bool, err error) {
	s := &m.stripes[stripeOf(key)]
	if v, ok := s.load()[string(key)]; ok {
		s.hits.Add(1)
		return v, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.load()[string(key)]; ok {
		// Lost the build race: another caller published while this one
		// waited for the stripe. It is served from the map, so it is a
		// hit, and the one build stays the only miss for the key.
		s.hits.Add(1)
		return v, false, nil
	}
	s.misses.Add(1)
	if v, err = build(); err != nil {
		return v, true, err
	}
	next := s.clone(1)
	next[string(key)] = v
	s.m.Store(&next)
	return v, true, nil
}

// Insert publishes key→v unless key is already present (the first
// writer wins).
func (m *Map[V]) Insert(key string, v V) {
	s := &m.stripes[stripeOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.load()[key]; ok {
		return
	}
	next := s.clone(1)
	next[key] = v
	s.m.Store(&next)
}

// InsertAll publishes every entry whose key is not already present,
// cloning each touched stripe once.
func (m *Map[V]) InsertAll(entries map[string]V) {
	var byStripe [Stripes][]string
	for k := range entries {
		i := stripeOf(k)
		byStripe[i] = append(byStripe[i], k)
	}
	for i, keys := range byStripe {
		if len(keys) == 0 {
			continue
		}
		s := &m.stripes[i]
		s.mu.Lock()
		next := s.clone(len(keys))
		for _, k := range keys {
			if _, taken := next[k]; !taken {
				next[k] = entries[k]
			}
		}
		s.m.Store(&next)
		s.mu.Unlock()
	}
}

// clone copies the published map with room for extra more entries.
// Callers must hold s.mu.
func (s *stripe[V]) clone(extra int) map[string]V {
	old := s.load()
	next := make(map[string]V, len(old)+extra)
	for k, v := range old {
		next[k] = v
	}
	return next
}

// Snapshot returns a fresh map holding every published entry. Each stripe
// is read from one published version, so every entry is complete; entries
// inserted while Snapshot runs may or may not appear.
func (m *Map[V]) Snapshot() map[string]V {
	out := map[string]V{}
	for i := range m.stripes {
		for k, v := range m.stripes[i].load() {
			out[k] = v
		}
	}
	return out
}

// Stats returns the lookup counters and entry count, summed over stripes.
func (m *Map[V]) Stats() Stats {
	var st Stats
	for i := range m.stripes {
		s := &m.stripes[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Len += len(s.load())
	}
	return st
}
