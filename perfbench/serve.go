package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tunio"
	"tunio/internal/metrics"
	"tunio/internal/server"
)

// httpClient is one serve-mixed client's view of the server: submit,
// follow the event stream to done, then read the final status.
type httpClient struct {
	base  string
	hc    *http.Client
	procs int
}

// do runs one job over HTTP. With a tracer it records client-side spans:
// the submit round trip, the event stream and the final status read.
func (c *httpClient) do(ctx context.Context, j Job, tr *tracer) outcome {
	o := outcome{Job: j}
	root := tr.begin(open{}, j.ID, "job")
	defer root.end()
	start := time.Now()
	fail := func(err error) outcome {
		o.Err, o.Latency = err, time.Since(start)
		if o.First == 0 {
			o.First = o.Latency
		}
		return o
	}

	body, err := json.Marshal(j.request(c.procs))
	if err != nil {
		return fail(err)
	}
	sp := tr.begin(root, j.ID, "server.submit")
	t0 := time.Now()
	var st server.JobStatus
	code, err := c.call(ctx, http.MethodPost, "/v1/jobs", j.Tenant, body, &st)
	o.SubmitRTT = time.Since(t0)
	sp.end()
	if err != nil {
		return fail(err)
	}
	if code != http.StatusAccepted {
		return fail(fmt.Errorf("submit refused: status %d", code))
	}

	sp = tr.begin(root, j.ID, "server.stream")
	err = c.stream(ctx, st.ID, &o, start)
	sp.end()
	if err != nil {
		return fail(err)
	}
	o.Latency = time.Since(start)

	sp = tr.begin(root, j.ID, "server.status")
	t0 = time.Now()
	code, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, "", nil, &st)
	o.StatusRTT = time.Since(t0)
	sp.end()
	if err != nil {
		return fail(err)
	}
	if code != http.StatusOK || st.State != "done" || st.Result == nil {
		o.Err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return o
	}
	r := st.Result
	for _, p := range r.Curve {
		o.Curve = append(o.Curve, metrics.Point{Iteration: p.Iteration, TimeMinutes: p.TimeMinutes, IterPerf: p.IterPerf, BestPerf: p.BestPerf})
	}
	o.BestPerf, o.StoppedAt, o.Best, o.Info, o.Drift = r.BestPerf, r.StoppedAt, bestKey(r.BestConfig), r.Engine, r.Drift
	return o
}

// stream follows the job's SSE stream until its done event, recording
// when the first progress event arrived and the events' count and size.
func (c *httpClient) stream(ctx context.Context, id string, o *outcome, start time.Time) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		o.SSEBytes += len(line)
		if ev, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "event: "); ok {
			o.SSEEvents++
			if ev == "done" {
				return nil
			}
			if o.First == 0 {
				o.First = time.Since(start)
			}
		}
		if err == io.EOF {
			return fmt.Errorf("events stream for %s ended without a done event", id)
		}
		if err != nil {
			return err
		}
	}
}

// call does one JSON request and decodes the response into out.
func (c *httpClient) call(ctx context.Context, method, path, tenant string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tunio-Tenant", tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// stats reads the engine counters the daemon exposes.
func (c *httpClient) stats(ctx context.Context) (tunio.EngineStats, error) {
	var s server.StatsResponse
	code, err := c.call(ctx, http.MethodGet, "/v1/stats", "", nil, &s)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats: status %d", code)
	}
	return s.EngineStats, err
}
