package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"tunio"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{5, 50, 2},        // too few samples: the median stands in
		{19, 50, 9},       // still too few
		{20, 50, 10},      // the median is the first with ten beyond
		{99, 50, 49},      // p90 would leave nine
		{100, 90, 10},     // p90 has exactly ten beyond
		{999, 90, 99},     // p99 would leave nine
		{1000, 99, 10},    // p99.9 would leave one
		{10000, 99.9, 10}, // the top rung
	} {
		q, beyond := tailPercentile(c.n)
		if q != c.q || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, q, beyond, c.q, c.beyond)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(v, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(v, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
}

// The run's notes state which percentile the tail is and over how many
// samples.
func TestTailIsReported(t *testing.T) {
	var p pass
	for i := 0; i < 150; i++ {
		p.outs = append(p.outs, outcome{Latency: 1, First: 1})
	}
	p.wall = 1
	r := &result{}
	endToEnd(r, config{Workload: "tunio-source", Procs: 2}, p, 1)
	if !strings.Contains(strings.Join(r.Notes, "\n"), "tail percentile: p90 over 150 jobs (15 beyond it)") {
		t.Fatalf("notes do not state the tail percentile and count: %q", r.Notes)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Job: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Job: 1, Name: "a", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 3, Job: 1, Name: "b", Start: 25, End: 35}, // nested in 3
		{ID: 5, Parent: 1, Job: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - 40 - 10, // union of [10,50] and [90,100] (clipped)
		2: 20,
		3: 30 - 10,
		4: 10,
		5: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}

	// Apportioned wall time: each instant is split among the innermost
	// active spans, so the job's spans add up to its duration.
	within := spans[:4]
	ap := apportion(within)
	var sum float64
	for _, v := range ap {
		sum += v
	}
	if sum != 100 {
		t.Errorf("apportioned times add to %g, want the job's 100", sum)
	}
	// [20,25): spans 2 and 3 share 5; [25,30): 3 has an active child, so
	// spans 2 and 4 share 5; [30,35) is 4's alone.
	wantAp := map[int32]float64{1: 10 + 50, 2: 10 + 2.5 + 2.5, 3: 2.5 + 15, 4: 2.5 + 5}
	for id, w := range wantAp {
		if ap[id] != w {
			t.Errorf("apportioned time of span %d = %g, want %g", id, ap[id], w)
		}
	}
	lt := aggregate(within)
	if lt.Self["a"] != 40e-9 || lt.Calls["a"] != 2 || lt.Jobs != 1 || lt.JobWall != 100e-9 {
		t.Errorf("aggregate = %+v", lt)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for name, gen := range map[string]func(int64) []Job{
		"hstuner-cold": func(s int64) []Job { return coldJobs(s, 3, fullShape) },
		"tunio-source": func(s int64) []Job { return sourceJobs(s, 60, fullShape) },
		"serve-mixed":  func(s int64) []Job { return serveJobs(s, 60, fullShape) },
	} {
		a, err := json.Marshal(gen(7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(gen(7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different job lists", name)
		}
		c, _ := json.Marshal(gen(8))
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", name)
		}
	}
}

// Every program in a list is distinct (the kernel store must miss), and
// two seeds share almost none.
func TestSourceProgramsDistinct(t *testing.T) {
	seen := map[string]int64{}
	shared := 0
	for _, seed := range []int64{7, 8} {
		mine := map[string]bool{}
		for _, j := range sourceJobs(seed, 500, fullShape) {
			if mine[j.Source] {
				t.Fatalf("seed %d job %d repeats a program", seed, j.ID)
			}
			mine[j.Source] = true
			if _, ok := seen[j.Source]; ok {
				shared++
			}
			seen[j.Source] = seed
		}
	}
	if shared > 5 {
		t.Errorf("seeds 7 and 8 share %d of 500 programs", shared)
	}
	models := map[string]int{}
	for _, j := range sourceJobs(7, 50, fullShape) {
		models[j.Model]++
	}
	for _, m := range modelNames {
		if models[m] != 10 {
			t.Errorf("model %s appears %d times in 50 jobs, want 10", m, models[m])
		}
	}
}

// Whole hstuner-cold cycles are the same jobs whatever the seed.
func TestColdCyclesSameJobSet(t *testing.T) {
	key := func(jobs []Job) []string {
		var k []string
		for _, j := range jobs {
			k = append(k, j.Model+"/"+string(rune('0'+j.Seed)))
		}
		sort.Strings(k)
		return k
	}
	a, b := key(coldJobs(1, 2, fullShape)), key(coldJobs(2, 2, fullShape))
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("cycles differ across seeds: %v vs %v", a, b)
	}
}

// tinyConfig shrinks every workload so a smoke run takes seconds.
func tinyConfig(workload string, trace bool) config {
	cfg := defaultConfig(workload, 3, 0.05, trace)
	cfg.Procs = 2
	cfg.Shape = shape{
		ColdNodes: 2, ColdPPN: 8, ColdPop: 4, ColdIters: 5, ColdReps: 1,
		SrcNodes: 2, SrcPPN: 4, SrcPop: 4, SrcIters: 4,
		ServePop: 4, ServeIters: 3, OnlineWindows: 4,
	}
	cfg.Train = tunio.TrainConfig{Seed: 1, ExtraRandomRuns: 2, StopperEpochs: 2, PickerEpochs: 2}
	cfg.SetupReps = 1
	cfg.SoloCheck = 2
	return cfg
}

// lastJSON parses the report's last line.
func lastJSON(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return v
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// A tiny run of every workload, untraced and traced, passes its output
// checks (the traced one includes traced == untraced curves) and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take tens of seconds")
	}
	e2e, layers := benchmarkMetrics(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			if code := execute(tinyConfig(w, trace), &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v exited %d: %s", w, trace, code, stderr.String())
			}
			v := lastJSON(t, stdout.String())
			if v["correct"] != true || v["failed"] != 0.0 || v["attempted"].(float64) < 1 {
				t.Errorf("%s trace=%v: %v", w, trace, v)
			}
			want := e2e
			if trace {
				want = layers
			}
			got := v["metrics"].(map[string]any)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(got), len(want))
			}
			for name, unit := range want {
				m, ok := got[name].(map[string]any)
				if !ok || m["unit"] != unit {
					t.Errorf("%s trace=%v: metric %s = %v, want unit %s", w, trace, name, got[name], unit)
				}
			}
		}
	}
}

// When a check fails the command exits non-zero and prints no result.
func TestFailedCheckExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tiny benchmark")
	}
	cfg := tinyConfig("hstuner-cold", true)
	cfg.tamper = func(o *outcome) { o.Curve[len(o.Curve)-1].BestPerf *= 1.0000001 }
	var stdout, stderr bytes.Buffer
	if code := execute(cfg, &stdout, &stderr); code == 0 {
		t.Fatal("a traced curve that differs from the untraced one passed the checks")
	}
	if !strings.Contains(stderr.String(), "traced result differs from untraced") {
		t.Errorf("stderr does not name the failed check: %s", stderr.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a failed run printed a result line:\n%s", stdout.String())
	}
	if code := realMain([]string{"--workload", "no-such-workload", "--seconds", "0.1"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
