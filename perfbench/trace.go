package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is 0 for a job's root span.
type span struct {
	ID, Parent int32
	Job        int32
	Name       string
	Start, End int64
}

// tracer keeps spans in memory for the length of a traced run. A nil
// *tracer records nothing, so untraced code paths share the client code.
type tracer struct {
	epoch time.Time
	next  atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; close it with end.
type open struct {
	t      *tracer
	id     int32
	parent int32
	job    int32
	name   string
	start  int64
}

// begin starts a span under parent (the zero open means "job root").
func (t *tracer) begin(parent open, job int, name string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.next.Add(1), parent: parent.id, job: int32(job), name: name,
		start: int64(time.Since(t.epoch))}
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{ID: o.id, Parent: o.parent, Job: o.job, Name: o.name, Start: o.start, End: now})
	o.t.mu.Unlock()
	return time.Duration(now - o.start)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as tab-separated lines (job, id, parent, name,
// start_ns, end_ns), creating the file's directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "job\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Job, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may nest or overlap each
// other (concurrent workers under one batch); the covered part is the
// length of the union of their intervals, clipped to the parent's.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - unionWithin(children[s.ID], s.Start, s.End)
	}
	return out
}

// unionWithin returns the length of the union of the intervals, clipped
// to [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	have := false
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !have:
			curS, curE, have = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if have {
		total += curE - curS
	}
	return total
}

// apportion divides one job's wall time among its spans: each instant is
// shared equally by the innermost spans active then (those with no active
// child). Unlike self times, which add up to more than the wall time when
// workers run concurrently, the apportioned times of a job's spans add up
// to exactly its root span's duration.
func apportion(spans []span) map[int32]float64 {
	type edge struct {
		t     int64
		open  bool
		index int
	}
	edges := make([]edge, 0, 2*len(spans))
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
		edges = append(edges, edge{s.Start, true, i}, edge{s.End, false, i})
	}
	// Closes sort before opens at the same instant, so a zero-length gap
	// never credits a span that already ended.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].open && edges[j].open
	})
	activeKids := make([]int, len(spans))
	active := map[int]bool{}
	out := make(map[int32]float64, len(spans))
	var prev int64
	for _, e := range edges {
		if dt := e.t - prev; dt > 0 && len(active) > 0 {
			var inner []int
			for i := range active {
				if activeKids[i] == 0 {
					inner = append(inner, i)
				}
			}
			for _, i := range inner {
				out[spans[i].ID] += float64(dt) / float64(len(inner))
			}
		}
		prev = e.t
		p, hasParent := byID[spans[e.index].Parent]
		if e.open {
			active[e.index] = true
			if hasParent {
				activeKids[p]++
			}
		} else {
			delete(active, e.index)
			if hasParent {
				activeKids[p]--
			}
		}
	}
	return out
}

// layerTimes aggregates a traced run per span name: total self time,
// total apportioned wall time and call count, plus the root ("job")
// spans' total duration.
type layerTimes struct {
	Self    map[string]float64 // seconds
	Wall    map[string]float64 // seconds, apportioned
	Calls   map[string]int
	JobWall float64 // seconds, summed over jobs
	Jobs    int
}

func aggregate(spans []span) layerTimes {
	lt := layerTimes{Self: map[string]float64{}, Wall: map[string]float64{}, Calls: map[string]int{}}
	self := selfTimes(spans)
	byJob := map[int32][]span{}
	for _, s := range spans {
		byJob[s.Job] = append(byJob[s.Job], s)
		lt.Self[s.Name] += float64(self[s.ID]) / 1e9
		lt.Calls[s.Name]++
		if s.Parent == 0 {
			lt.JobWall += float64(s.End-s.Start) / 1e9
			lt.Jobs++
		}
	}
	for _, js := range byJob {
		ap := apportion(js)
		for _, s := range js {
			lt.Wall[s.Name] += ap[s.ID] / 1e9
		}
	}
	return lt
}
