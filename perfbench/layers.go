package main

// busyLayers are the span names whose self time is reported as a layer's
// busy time, with the metric name it is reported under. Busy times are
// per traced job; each also gets a share of the mean traced job wall
// time (a share above 1 means the layer ran on several workers at once).
var busyLayers = []struct{ span, metric string }{
	{"discovery", "discovery.busy_s"},
	{"csrc.parse", "csrc.parse.busy_s"},
	{"analysis.signature", "analysis.signature.busy_s"},
	{"replay.record", "replay.record.busy_s"},
	{"replay.crossvalidate", "replay.crossvalidate.busy_s"},
	{"replay.wire", "replay.wire.busy_s"},
	{"replay.exec", "replay.exec.busy_s"},
	{"workload.stack", "workload.stack.busy_s"},
	{"tuner.gate.wait", "tuner.gate.wait_s"},
	{"tuner.search", "tuner.search.self_s"},
	{"core.picker", "core.picker.busy_s"},
	{"core.stopper", "core.stopper.busy_s"},
}

// callLayers are the span names whose call counts are reported per job.
var callLayers = []struct{ span, metric string }{
	{"discovery", "discovery.calls"},
	{"replay.record", "replay.record.calls"},
	{"replay.wire", "replay.wire.calls"},
	{"replay.exec", "replay.exec.calls"},
	{"core.picker", "core.picker.calls"},
}

// perLayer adds the traced run's per-layer metrics. In-process workloads
// time every layer from the benchmark's own spans. serve-mixed times only
// the client side; its engine-internal busy times are not measured from
// outside the daemon and read 0, while its cache and counter figures come
// from /v1/stats and the jobs' engine blocks.
func perLayer(r *result, cfg config, untraced, traced pass, spans []span, trainS float64) {
	lt := aggregate(spans)
	jobs := float64(max(1, len(traced.outs)))
	jobWall := lt.JobWall / float64(max(1, lt.Jobs))
	inProcess := cfg.Workload != "serve-mixed"
	share := func(v float64) float64 {
		if jobWall <= 0 {
			return 0
		}
		return v / jobWall
	}

	for _, l := range busyLayers {
		v := lt.Self[l.span] / jobs
		r.add(l.metric, v, "s")
		r.add(l.metric[:len(l.metric)-2]+"_share", share(v), "ratio")
	}
	for _, l := range callLayers {
		calls := float64(lt.Calls[l.span]) / jobs
		if !inProcess && l.span == "replay.record" {
			calls = float64(traced.stats.Kernels.Misses) / jobs // a store miss is a recording
		}
		r.add(l.metric, calls, "count/job")
	}

	var hits, misses, stopIters, stopJobs, pruned, driftEvals float64
	var sseEvents, sseBytes float64
	var submitMs, statusMs []float64
	for _, o := range traced.outs {
		hits += float64(o.Info.MemoHits)
		misses += float64(o.Info.MemoMisses)
		if o.Job.Pipeline != "hstuner" && o.Job.Online == nil {
			stopIters += float64(o.StoppedAt)
			stopJobs++
		}
		if o.Drift != nil {
			pruned += float64(o.Drift.PrunedEvals)
			driftEvals += float64(o.Drift.Evaluations)
		}
		sseEvents += float64(o.SSEEvents)
		sseBytes += float64(o.SSEBytes)
		submitMs = append(submitMs, float64(o.SubmitRTT)/1e6)
		statusMs = append(statusMs, float64(o.StatusRTT)/1e6)
	}
	if !inProcess {
		// Online jobs carry no memo block; the engine's counters cover all.
		hits, misses = float64(traced.stats.MemoHits), float64(traced.stats.MemoMisses)
	}
	r.add("replay.kernel_store.hit_rate", traced.stats.Kernels.HitRate(), "ratio")
	r.add("replay.plan.hit_rate", traced.stats.Stage.PlanHitRate(), "ratio")
	r.add("replay.wire.hit_rate", traced.stats.Stage.WireHitRate(), "ratio")
	r.add("tuner.memo.hit_rate", ratio(hits, hits+misses), "ratio")
	r.add("tuner.evals_simulated", misses/jobs, "count/job")
	r.add("tuner.drift.pruned_frac", ratio(pruned, driftEvals), "ratio")
	r.add("core.stopper.stop_iter_mean", ratio(stopIters, stopJobs), "iterations")
	r.add("train.busy_s", trainS, "s")
	r.add("server.submit.rtt_ms_p50", median(submitMs), "ms") // 0 in process
	r.add("server.status.rtt_ms_p50", median(statusMs), "ms")
	r.add("server.sse.events", sseEvents/jobs, "count/job")
	r.add("server.sse.bytes", sseBytes/jobs, "B/job")
	r.add("engine.stage.wire_hit_rate", untraced.stats.Stage.WireHitRate(), "ratio")
	r.add("engine.memo_hits", float64(untraced.stats.MemoHits)/float64(max(1, len(untraced.outs))), "count/job")
	r.add("engine.sessions_failed", float64(untraced.stats.SessionsFailed), "count")

	// Tracing overhead: the traced pass reruns the untraced pass's jobs.
	over := traced.wall.Seconds() - untraced.wall.Seconds()
	r.add("trace.overhead_s", over, "s")
	r.add("trace.overhead_frac", ratio(over, untraced.wall.Seconds()), "ratio")
	r.add("trace.job_wall_s", jobWall, "s")
	// The share of job wall time apportioned to stages 1-3 and the GA's
	// own time; on hstuner-cold the rest should be within the overhead.
	acc := lt.Wall["replay.wire"] + lt.Wall["replay.exec"] + lt.Wall["tuner.search"]
	r.add("trace.accounted_frac", ratio(acc, lt.JobWall), "ratio")
	if inProcess {
		r.note("stages 1-3 and the GA's own time take %.1f%% of traced job wall time; the other %.1f%% compares with a tracing overhead of %.1f%%",
			100*ratio(acc, lt.JobWall), 100-100*ratio(acc, lt.JobWall), 100*ratio(over, untraced.wall.Seconds()))
	} else {
		r.note("serve-mixed spans are client-side: engine-internal busy times read 0 (not measured)")
	}
	r.note("traced jobs: %d; spans: %d; untraced wall %.3f s, traced wall %.3f s",
		len(traced.outs), len(spans), untraced.wall.Seconds(), traced.wall.Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
