package cowmap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// A Get on a published key allocates nothing, even with a key slice that
// the map index has to read as a string.
func TestGetZeroAlloc(t *testing.T) {
	var m Map[int]
	m.Insert("sig:k\x000.1.2.3", 7)
	key := []byte("sig:k\x000.1.2.3")
	if got := testing.AllocsPerRun(100, func() {
		if v, ok := m.Get(key); !ok || v != 7 {
			t.Fatal("published key missed")
		}
	}); got != 0 {
		t.Fatalf("Get allocated %v times per run, want 0", got)
	}
	if _, _, err := m.GetOrBuild(key, func() (int, error) { return 0, errors.New("built a published key") }); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if v, built, err := m.GetOrBuild(key, func() (int, error) { return 0, nil }); err != nil || built || v != 7 {
			t.Fatal("published key rebuilt")
		}
	}); got != 0 {
		t.Fatalf("GetOrBuild hit allocated %v times per run, want 0", got)
	}
}

// Racing writers of one key converge on one value: what each writer reads
// right after its own Insert or InsertAll is the value that ends up
// published, and it never changes afterwards. Meaningful under -race.
func TestInsertFirstWriterWins(t *testing.T) {
	var m Map[string]
	const writers, keys = 8, 16
	seen := make([][]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		seen[w] = make([]string, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key/%d", k)
				if k%2 == 0 {
					m.Insert(key, fmt.Sprintf("writer %d", w))
				} else {
					m.InsertAll(map[string]string{key: fmt.Sprintf("writer %d", w)})
				}
				seen[w][k], _ = m.Get([]byte(key))
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		final, ok := m.Get([]byte(fmt.Sprintf("key/%d", k)))
		if !ok {
			t.Fatalf("key/%d lost", k)
		}
		for w := 0; w < writers; w++ {
			if seen[w][k] != final {
				t.Fatalf("key/%d: writer %d saw %q, final %q", k, w, seen[w][k], final)
			}
		}
	}
	if st := m.Stats(); st.Len != keys {
		t.Fatalf("Len = %d, want %d", st.Len, keys)
	}
}

// N goroutines missing one key run its build exactly once; the rest are
// served the built value and counted as hits.
func TestGetOrBuildBuildsOnce(t *testing.T) {
	var m Map[*int]
	const callers = 16
	var builds atomic.Int32
	start := make(chan struct{})
	got := make([]*int, callers)
	var built atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			v, b, err := m.GetOrBuild([]byte("cold"), func() (*int, error) {
				builds.Add(1)
				n := 42
				return &n, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if b {
				built.Add(1)
			}
			got[g] = v
		}(g)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	if n := built.Load(); n != 1 {
		t.Fatalf("%d callers reported built, want 1", n)
	}
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", g)
		}
	}
	if st := m.Stats(); st.Hits != callers-1 || st.Misses != 1 || st.Len != 1 {
		t.Fatalf("stats = %+v, want %d hits / 1 miss / 1 entry", st, callers-1)
	}
}

// A failed build publishes nothing and counts as a miss; the next caller
// builds again.
func TestGetOrBuildErrorNotPublished(t *testing.T) {
	var m Map[int]
	boom := errors.New("boom")
	if _, built, err := m.GetOrBuild([]byte("k"), func() (int, error) { return 0, boom }); !errors.Is(err, boom) || !built {
		t.Fatalf("err = %v, built = %v; want boom, true", err, built)
	}
	v, built, err := m.GetOrBuild([]byte("k"), func() (int, error) { return 3, nil })
	if err != nil || !built || v != 3 {
		t.Fatalf("rebuild = %v, %v, %v; want 3, true, nil", v, built, err)
	}
	if st := m.Stats(); st.Misses != 2 || st.Hits != 0 || st.Len != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 entry", st)
	}
}

// InsertAll keeps present keys, and Snapshot returns every entry across
// stripes without counting lookups.
func TestInsertAllAndSnapshot(t *testing.T) {
	var m Map[int]
	m.Insert("a", 1)
	entries := map[string]int{"a": 100}
	for i := 0; i < 200; i++ {
		entries[fmt.Sprintf("k%d", i)] = i
	}
	m.InsertAll(entries)
	snap := m.Snapshot()
	if len(snap) != 201 || snap["a"] != 1 || snap["k199"] != 199 {
		t.Fatalf("snapshot has %d entries, a=%d k199=%d; want 201, 1, 199", len(snap), snap["a"], snap["k199"])
	}
	snap["a"] = -1
	if v, _ := m.Get([]byte("a")); v != 1 {
		t.Fatal("mutating a snapshot changed the map")
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 0 || st.Len != 201 {
		t.Fatalf("stats = %+v, want 1 hit / 201 entries", st)
	}
}
