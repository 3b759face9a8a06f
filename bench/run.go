package main

import (
	"context"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"
)

// A run generates its inputs at least setupReps times and for at least
// setupBudget in total; setup_s is the median.
const (
	setupReps   = 5
	setupBudget = time.Second
)

// measure is the untraced run: the end-to-end metrics.
func measure(ctx context.Context, w workload, sz size, seed int64, dur time.Duration) (*result, error) {
	var setups []float64
	var in *inputs
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < setupBudget; {
		in = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = w.setup(sz, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	models := flowModels(in)

	r := &result{defs: endToEnd, correct: true}
	var ref quality
	var walls, rates, lats []float64
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < dur; round++ {
		runtime.GC()
		t0 := time.Now()
		ro, err := w.round(ctx, in)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		rates = append(rates, float64(len(ro.jobs))/wall)
		for _, j := range ro.jobs {
			if j.err == nil {
				lats = append(lats, j.latency.Seconds()*1e3)
			}
		}
		q := score(ro.jobs, models)
		r.attempted += len(ro.jobs)
		r.failed += q.failed()
		if round == 0 {
			ref = q
			noteQuality(r, q)
			if ro.engine != nil {
				r.note("engine: %+v", *ro.engine)
			}
		} else if q != ref {
			r.correct = false
			r.note("round %d differs from round 1: %+v vs %+v", round+1, q, ref)
		}
	}
	if r.failed > 0 {
		r.correct = false
	}
	r.note("samples: %d set-ups, %d rounds of %d jobs, %d job latencies; round walls %.3f s",
		len(setups), len(walls), len(in.jobs), len(lats), walls)
	r.values = map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       median(walls),
		"jobs_per_s":   median(rates),
		"job_p50_ms":   quantile(lats, 0.5),
		"job_p90_ms":   quantile(lats, 0.9),
		"max_rss_mb":   maxRSSMB(),
		"flow_dist_mm": ref.flowDistMM,
	}
	return r, nil
}

func noteQuality(r *result, q quality) {
	r.note("quality: flow_dist_mm=%v hidap_wl_norm=%v indeda_wl_norm=%v suite_wl_m=%v hidap_wns_pct=%v hidap_grc_pct=%v fingerprint=%016x",
		q.flowDistMM, q.hidapWLNorm, q.indedaWLNorm, q.suiteWLm, q.hidapWNSPct, q.hidapGRCPct, q.fingerprint)
	if q.failed() > 0 {
		r.note("failures: %d job errors, %d illegal placements", q.errors, q.illegal)
	}
}

// traceRun is the traced run: one round through the program's entry points
// as the reference, the layout micro-benchmarks, then replays alternating
// recorder off and on for the run's duration. Every replay must reproduce
// the reference exactly.
func traceRun(ctx context.Context, w workload, sz size, seed int64, dur time.Duration, tracePath string) (*result, error) {
	setupTr := newTracer()
	in, err := w.setup(sz, seed, setupTr)
	if err != nil {
		return nil, err
	}
	models := flowModels(in)
	r := &result{defs: perLayer, correct: true, values: map[string]float64{}}

	runtime.GC()
	g0 := readGoMetrics()
	ro, err := w.round(ctx, in)
	if err != nil {
		return nil, err
	}
	g1 := readGoMetrics()
	ref := score(ro.jobs, models)
	noteQuality(r, ref)
	r.attempted, r.failed = len(ro.jobs), ref.failed()
	engineMetrics(r.values, ro)
	r.values["go.alloc_mb"] = (g1[0] - g0[0]) / (1 << 20)
	r.values["go.mallocs"] = g1[1] - g0[1]
	r.values["go.gc_cycles"] = g1[2] - g0[2]
	r.values["eval.hidap_wl_norm"] = ref.hidapWLNorm
	r.values["eval.indeda_wl_norm"] = ref.indedaWLNorm
	r.values["eval.suite_wl_m"] = ref.suiteWLm
	r.values["eval.hidap_wns_pct"] = ref.hidapWNSPct
	r.values["eval.hidap_grc_pct"] = ref.hidapGRCPct
	r.values["layout.solve24_ms"] = solveMS(ctx, 24, seed)
	r.values["layout.solve48_ms"] = solveMS(ctx, 48, seed)

	var offs, ons []float64
	selfs := map[string][]float64{}
	var last *tracer
	var c counts
	start := time.Now()
	for len(ons) == 0 || time.Since(start) < dur {
		for _, on := range []bool{false, true} {
			var tr *tracer
			if on {
				tr = newTracer()
			}
			c = counts{}
			runtime.GC()
			t0 := time.Now()
			jobs, err := w.replay(ctx, in, tr, &c)
			secs := time.Since(t0).Seconds()
			if err != nil {
				return nil, err
			}
			q := score(jobs, models)
			r.attempted += len(jobs)
			r.failed += q.failed()
			if q != ref {
				r.correct = false
				r.note("replay differs from the untraced round: %+v vs %+v", q, ref)
			}
			if !on {
				offs = append(offs, secs)
				continue
			}
			ons = append(ons, secs)
			self := tr.selfSeconds()
			for _, d := range perLayer {
				if d.span != "" {
					selfs[d.span] = append(selfs[d.span], self[d.span])
				}
			}
			last = tr
		}
	}
	if r.failed > 0 {
		r.correct = false
	}
	setupSelf := setupTr.selfSeconds()
	for _, d := range perLayer {
		if d.span != "" {
			r.values[d.name] = setupSelf[d.span] + median(selfs[d.span])
		}
	}
	r.values["seqgraph.nodes"] = float64(c.seqNodes)
	r.values["autocluster.clusters"] = float64(c.clusters)
	r.values["autocluster.levels"] = float64(c.acLevels)
	r.values["core.levels"] = float64(c.coreLevels)
	if s := r.values["place.run_s"]; s > 0 {
		r.values["place.cells_per_s"] = float64(c.placeCells) / s
	}
	r.values["sched.submitted"] = float64(c.sched.Submitted)
	r.values["sched.steals"] = float64(c.sched.Steals)
	r.values["sched.inject_runs"] = float64(c.sched.InjectRuns)
	if c.sched.Completed > 0 {
		r.values["sched.steal_ratio"] = float64(c.sched.Steals) / float64(c.sched.Completed)
	}
	r.values["trace.replay_s"] = median(ons)
	r.values["trace.overhead_pct"] = (median(ons) - median(offs)) / median(offs) * 100
	r.note("samples: %d replays with the recorder off, %d with it on, %d spans in the last", len(offs), len(ons), len(last.spans))

	if tracePath != "" {
		if err := writeSpans(tracePath, setupTr, last); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// engineMetrics reads the hidap.* metrics off the reference round: the
// median time in Engine.Submit, the median time a job spent in the engine
// outside Submit and outside the placer (queueing, cache builds), and the
// design-cache hit ratio.
func engineMetrics(v map[string]float64, ro roundOut) {
	if ro.engine == nil {
		return
	}
	var subs, queues []float64
	for _, j := range ro.jobs {
		if j.err != nil {
			continue
		}
		subs = append(subs, j.submit.Seconds()*1e3)
		queues = append(queues, (j.latency-j.submit).Seconds()*1e3-j.placer*1e3)
	}
	v["hidap.submit_ms"] = median(subs)
	v["hidap.queue_ms"] = median(queues)
	st := ro.engine
	if n := st.DesignCacheHits + st.DesignCacheMisses; n > 0 {
		v["hidap.cache_hit_ratio"] = float64(st.DesignCacheHits) / float64(n)
	}
}

// readGoMetrics returns heap bytes allocated, heap objects allocated and GC
// cycles completed since the process started.
func readGoMetrics() [3]float64 {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	var out [3]float64
	for i := range s {
		out[i] = float64(s[i].Value.Uint64())
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
