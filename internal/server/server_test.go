package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tunio"
	"tunio/internal/server"
)

// tinyJob is a small macsio job that finishes in well under a second.
func tinyJob(seed int64) server.JobRequest {
	return server.JobRequest{
		Workload:      "macsio",
		Nodes:         2,
		ProcsPerNode:  8,
		PopSize:       16,
		MaxIterations: 12,
		Reps:          1,
		Seed:          seed,
		Parallelism:   2,
	}
}

func newTestServer(t *testing.T, opts tunio.EngineOptions) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Options{Engine: tunio.NewEngine(opts)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func submit(t *testing.T, ts *httptest.Server, req server.JobRequest, tenant string) (server.JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hr.Header.Set("X-Tunio-Tenant", tenant)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job leaves the running state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 30s", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The submit/status lifecycle: a job is accepted, runs, and lands "done"
// with a full result payload.
func TestServerJobLifecycle(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	st, resp := submit(t, ts, tinyJob(3), "acme")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Tenant != "acme" || st.Kernel != "macsio" {
		t.Fatalf("submit status = %+v", st)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("state = %q (%s), want done", final.State, final.Error)
	}
	r := final.Result
	if r == nil {
		t.Fatal("done job has no result")
	}
	if len(r.Curve) != final.Points || len(r.Curve) == 0 {
		t.Fatalf("curve has %d points, status says %d", len(r.Curve), final.Points)
	}
	if r.BestPerf < r.Baseline || r.Speedup < 1 {
		t.Fatalf("best %.1f < baseline %.1f (speedup %.2f)", r.BestPerf, r.Baseline, r.Speedup)
	}
	if len(r.BestConfig) == 0 {
		t.Fatal("result has no best configuration")
	}
	if !r.Engine.TraceReady {
		t.Fatalf("trace replay not active: %+v", r.Engine)
	}

	// The job shows up in the listing, and tenant filtering works.
	var list []server.JobStatus
	for path, want := range map[string]int{"/v1/jobs": 1, "/v1/jobs?tenant=acme": 1, "/v1/jobs?tenant=ghost": 0} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list) != want {
			t.Fatalf("GET %s returned %d jobs, want %d", path, len(list), want)
		}
	}
}

// Cancel stops a running job; its terminal state is "canceled".
func TestServerCancel(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	req := tinyJob(3)
	req.MaxIterations = 500 // long enough that we always beat it to the finish
	st, _ := submit(t, ts, req, "")

	// Let at least the baseline land so we cancel a genuinely running job.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).Points == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no progress after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	if final := waitTerminal(t, ts, st.ID); final.State != "canceled" {
		t.Fatalf("state after cancel = %q, want canceled", final.State)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// The SSE stream delivers every curve point, in order, then a terminal
// done event whose payload matches the status endpoint.
func TestServerSSEDeliversEveryPointInOrder(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	st, _ := submit(t, ts, tinyJob(3), "")

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 2 || events[len(events)-1].event != "done" {
		t.Fatalf("stream ended with %d events, last %+v", len(events), events[len(events)-1])
	}
	var points []server.PointJSON
	for _, ev := range events[:len(events)-1] {
		if ev.event != "point" {
			t.Fatalf("unexpected event %q mid-stream", ev.event)
		}
		var p server.PointJSON
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatal(err)
		}
		points = append(points, p)
	}
	var final server.JobStatus
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("done event carries state %q (%s)", final.State, final.Error)
	}
	// Every point, in order: the stream must equal the stored curve.
	if len(points) != len(final.Result.Curve) {
		t.Fatalf("streamed %d points, result curve has %d", len(points), len(final.Result.Curve))
	}
	for i, p := range points {
		if p != final.Result.Curve[i] {
			t.Fatalf("streamed point %d = %+v, curve has %+v", i, p, final.Result.Curve[i])
		}
		if i > 0 && p.Iteration < points[i-1].Iteration {
			t.Fatalf("points out of order at %d: %d after %d", i, p.Iteration, points[i-1].Iteration)
		}
	}

	// A late subscriber to a finished job replays the whole history too.
	resp2, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, resp2.Body)
	if len(replay) != len(events) {
		t.Fatalf("late subscriber got %d events, live one %d", len(replay), len(events))
	}
}

// Two sessions run concurrently on one server and both finish clean
// (exercised under -race in CI).
func TestServerConcurrentSessions(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			st, resp := submit(t, ts, tinyJob(seed), fmt.Sprintf("tenant-%d", seed))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit = %d", resp.StatusCode)
				return
			}
			if final := waitTerminal(t, ts, st.ID); final.State != "done" {
				t.Errorf("seed %d: state %q (%s)", seed, final.State, final.Error)
			}
		}(int64(3 + i))
	}
	wg.Wait()
}

// A tenant at its quota gets 429; other tenants are unaffected; the slot
// frees on cancel.
func TestServerQuota(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{TenantQuota: 1})
	long := tinyJob(3)
	long.MaxIterations = 500
	st, resp := submit(t, ts, long, "acme")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	if _, resp := submit(t, ts, tinyJob(4), "acme"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if beta, resp := submit(t, ts, tinyJob(4), "beta"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", resp.StatusCode)
	} else if final := waitTerminal(t, ts, beta.ID); final.State != "done" {
		t.Fatalf("beta job state %q", final.State)
	}
	// Cancel frees the quota slot.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	waitTerminal(t, ts, st.ID)
	if again, resp := submit(t, ts, tinyJob(5), "acme"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit = %d, want 202", resp.StatusCode)
	} else {
		waitTerminal(t, ts, again.ID)
	}
}

// A served tune is bit-identical to calling tunio.Tune directly with the
// same options: every curve float and the best configuration survive the
// HTTP/JSON round trip exactly (encoding/json emits shortest-round-trip
// float64s).
func TestServerServedCurveMatchesDirectTune(t *testing.T) {
	direct, err := tunio.Tune(tunio.TuneOptions{
		Workload: "macsio", Nodes: 2, ProcsPerNode: 8,
		PopSize: 16, MaxIterations: 12, Reps: 1, Seed: 9, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, tunio.EngineOptions{})
	st, _ := submit(t, ts, tinyJob(9), "")
	final := waitTerminal(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q (%s)", final.State, final.Error)
	}
	r := final.Result
	if len(r.Curve) != len(direct.Curve) {
		t.Fatalf("served curve has %d points, direct %d", len(r.Curve), len(direct.Curve))
	}
	for i, p := range r.Curve {
		d := direct.Curve[i]
		if p.Iteration != d.Iteration || p.TimeMinutes != d.TimeMinutes ||
			p.IterPerf != d.IterPerf || p.BestPerf != d.BestPerf {
			t.Fatalf("point %d: served %+v, direct %+v", i, p, d)
		}
	}
	if r.BestPerf != direct.BestPerf || r.StoppedAt != direct.StoppedAt {
		t.Fatalf("served best %.6f@%d, direct %.6f@%d",
			r.BestPerf, r.StoppedAt, direct.BestPerf, direct.StoppedAt)
	}
	for _, p := range direct.Best.Space() {
		if got := r.BestConfig[p.Name]; got != direct.Best.Value(p.Name) {
			t.Fatalf("best config %s = %d, direct %d", p.Name, got, direct.Best.Value(p.Name))
		}
	}
}

// Cross-session cache sharing is visible through the API: the second job
// on the same kernel skips recording (kernel-store hit) and rides the
// first session's stage plans, and /v1/stats aggregates it all.
func TestServerCrossSessionSharingAndStats(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	first, _ := submit(t, ts, tinyJob(3), "acme")
	if st := waitTerminal(t, ts, first.ID); st.State != "done" {
		t.Fatalf("first job: %q (%s)", st.State, st.Error)
	} else if st.Result.Engine.KernelStoreHit {
		t.Fatal("first job cannot hit the kernel store")
	}
	second, _ := submit(t, ts, tinyJob(9), "beta")
	st := waitTerminal(t, ts, second.ID)
	if st.State != "done" {
		t.Fatalf("second job: %q (%s)", st.State, st.Error)
	}
	if !st.Result.Engine.KernelStoreHit {
		t.Fatal("second job did not hit the kernel store")
	}
	if rate := st.Result.Engine.StageStats.HitRate(); rate <= 0.5 {
		t.Fatalf("second session stage hit rate = %.2f, want > 0.5", rate)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.SessionsDone != 2 || stats.Jobs["done"] != 2 {
		t.Fatalf("stats sessions done = %d, jobs = %v", stats.SessionsDone, stats.Jobs)
	}
	if stats.Kernels.Kernels != 1 || stats.Kernels.Hits != 1 {
		t.Fatalf("kernel store stats = %+v", stats.Kernels)
	}
	if stats.KernelHitRate != 0.5 {
		t.Fatalf("kernel hit rate = %.2f, want 0.5 (1 hit / 2 lookups)", stats.KernelHitRate)
	}
	if stats.StageHitRate <= 0 || stats.StageHitRate >= 1 {
		t.Fatalf("aggregate stage hit rate = %.2f", stats.StageHitRate)
	}
}

// Request validation and routing errors map to the right status codes.
func TestServerErrors(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for body, want := range map[string]int{
		"{not json":            http.StatusBadRequest,
		`{"bogus_field": 1}`:   http.StatusBadRequest,
		`{"workload": "nope"}`: http.StatusBadRequest,
		`{"workload": "vpic", "source": "int main(){}"}`: http.StatusBadRequest,
		`{"workload": "vpic", "pipeline": "alien"}`:      http.StatusBadRequest,
		`{}`: http.StatusBadRequest,
	} {
		if got := post(body); got != want {
			t.Errorf("POST %s = %d, want %d", body, got, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/stats", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d, want 405", resp.StatusCode)
	}
}

// A negative count is a bad request, not a job: "reps": -1 used to be
// accepted and finish with an all-zero curve.
func TestServerRejectsNegativeCounts(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	for _, field := range []string{"reps", "parallelism", "pop_size", "max_iterations", "nodes", "procs_per_node"} {
		body := `{"workload": "macsio", "` + field + `": -1}`
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d (%s), want 400", body, resp.StatusCode, msg)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsStarted != 0 {
		t.Fatalf("rejected jobs started sessions: %+v", st.EngineStats)
	}
}
