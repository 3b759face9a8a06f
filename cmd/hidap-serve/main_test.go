package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/circuits"
	"repro/hidap"
)

func newTestServer(t *testing.T, workers int) (*server, *httptest.Server, *hidap.Engine) {
	t.Helper()
	eng := hidap.NewEngine(
		hidap.NewConfig(hidap.WithEffort(hidap.EffortLow)),
		hidap.EngineOptions{Workers: workers},
	)
	s := newServer(eng, context.Background(), 64)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts, eng
}

func postJob(t *testing.T, ts *httptest.Server, body string) (jobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want hidap.JobState) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, ts, id); st.State == want {
			return
		} else if st.State == hidap.JobFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
}

// TestServeJobRoundTrip drives a circuit job through the full HTTP surface:
// submit, poll, fetch the measurement result, and check /healthz.
func TestServeJobRoundTrip(t *testing.T) {
	_, ts, eng := newTestServer(t, 2)
	defer eng.Close()

	st, code := postJob(t, ts, `{
		"label": "rt1", "flow": "HiDaP", "seed": 1, "effort": "low",
		"circuit": {"name": "t", "cells": 300000, "macros": 8, "subsystems": 2,
		            "buswidth": 32, "pipelinedepth": 2, "scale": 300, "seed": 5}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if st.ID == "" || (st.State != hidap.JobQueued && st.State != hidap.JobRunning) {
		t.Fatalf("submit response = %+v", st)
	}
	waitState(t, ts, st.ID, hidap.JobDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	var res jobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.WirelengthM <= 0 {
		t.Fatalf("result report = %+v", res.Report)
	}
	if res.Metrics == nil || res.Metrics.Circuit != "t" || res.Report.Label != "rt1" {
		t.Errorf("metrics/label wrong: %+v", res.Metrics)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health struct {
		Status string            `json:"status"`
		Engine hidap.EngineStats `json:"engine"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Engine.Completed == 0 {
		t.Errorf("healthz = %+v", health)
	}
}

// TestServeDesignJobAndCancel ships a design in the netlist JSON form to a
// one-worker engine whose slot a directly submitted job holds, so the
// design job queues behind it, and then cancels the design job over HTTP.
func TestServeDesignJobAndCancel(t *testing.T) {
	_, ts, eng := newTestServer(t, 1)
	defer eng.Close()
	g := circuits.ABCDX()

	// The holder's progress callback signals started on its first event,
	// then waits for release.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hold := hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithProgress(func(hidap.Progress) {
		once.Do(func() { close(started) })
		<-release
	}))
	holder, err := eng.Submit(context.Background(), hidap.Job{Design: g.Design, Config: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release) // after holder.Cancel below, or on a failed check
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("holding job never started")
	}

	var sb strings.Builder
	if err := hidap.WriteJSON(&sb, g.Design); err != nil {
		t.Fatal(err)
	}
	st, code := postJob(t, ts, fmt.Sprintf(`{"label": "blk", "design": %s}`, sb.String()))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if got := getStatus(t, ts, st.ID); got.State != hidap.JobQueued {
		t.Fatalf("design job state = %q behind the holding job, want queued", got.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, hidap.JobCanceled)
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusGone {
		t.Errorf("cancelled result status = %d, want 410", rr.StatusCode)
	}
	holder.Cancel()
}

// TestServeShutdownDrains submits a real job and closes the engine: the
// accepted job must finish (drain), and later submissions must be refused.
func TestServeShutdownDrains(t *testing.T) {
	_, ts, eng := newTestServer(t, 2)

	var sb strings.Builder
	if err := hidap.WriteJSON(&sb, circuits.ABCDX().Design); err != nil {
		t.Fatal(err)
	}
	st, code := postJob(t, ts, fmt.Sprintf(
		`{"label": "drain", "placer": "indeda", "evaluate": false, "design": %s}`, sb.String()))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}

	eng.Close() // graceful shutdown path: must block until the job is done

	if got := getStatus(t, ts, st.ID); got.State != hidap.JobDone {
		t.Errorf("job after drain = %+v, want done", got)
	}
	if _, code := postJob(t, ts, fmt.Sprintf(`{"placer": "indeda", "design": %s}`, sb.String())); code != http.StatusServiceUnavailable {
		t.Errorf("submit after close status = %d, want 503", code)
	}
}

// invalidBodies are job submissions the server must refuse with a 400.
var invalidBodies = map[string]string{
	"empty":                `{}`,
	"bad json":             `{not json`,
	"bad effort":           `{"effort": "turbo", "circuit": {"name": "x"}}`,
	"bad flow":             `{"flow": "nope", "circuit": {"name": "x"}}`,
	"bad placer":           `{"placer": "nope", "circuit": {"name": "c1"}}`,
	"flow/placer conflict": `{"flow": "IndEDA", "placer": "hidap", "circuit": {"name": "c1"}}`,
	"bad design":           `{"design": {"die": "not-a-rect"}}`,
	"no macros":            `{"circuit": {"name": "not-a-suite-circuit"}}`,
	"both inputs":          `{"circuit": {"name": "x"}, "design": {"name": "y"}}`,
	"negative parallelism": `{"parallelism": -1, "circuit": {"name": "c1"}}`,
	"too much parallelism": `{"parallelism": 1000000000, "circuit": {"name": "c1"}}`,
	"too many cells":       `{"circuit": {"name": "c1", "cells": 1000000000000, "scale": 1}}`,
	"too many macros":      `{"circuit": {"name": "x", "macros": 1000000}}`,
	"too many subsystems":  `{"circuit": {"name": "c1", "subsystems": 1000}}`,
	"bus too wide":         `{"circuit": {"name": "c1", "buswidth": 100000000}}`,
	"pipeline too deep":    `{"circuit": {"name": "c1", "pipelinedepth": 100000000}}`,
	"utilization above 1":  `{"circuit": {"name": "c1", "utilization": 2}}`,
}

// TestServeValidation covers the 400/404 surface.
func TestServeValidation(t *testing.T) {
	_, ts, eng := newTestServer(t, 1)
	defer eng.Close()

	for name, body := range invalidBodies {
		if _, code := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	// The placer selector is checked on a design job as on a circuit job.
	design := abcdxJSON(t)
	for name, sel := range map[string]string{
		"design: bad placer":           `"placer": "nope"`,
		"design: bad flow":             `"flow": "nope"`,
		"design: flow/placer conflict": `"flow": "handFP", "placer": "indeda"`,
	} {
		if _, code := postJob(t, ts, `{`+sel+`, "design": `+design+`}`); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	if st := eng.Stats(); st.DesignCacheMisses+st.CircuitCacheMisses != 0 {
		t.Errorf("refused requests reached the engine caches: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestServePlacerSelector: "flow" and "placer" select the job's placer on
// both job kinds — "flow" in any case, "placer" by lower-case name, both at
// once when they agree — and a request naming neither runs hidap.
func TestServePlacerSelector(t *testing.T) {
	design := abcdxJSON(t)
	for _, tc := range []struct{ sel, want string }{
		{``, "hidap"},
		{`"flow": "indeda",`, "indeda"},
		{`"flow": "HANDFP",`, "handfp"},
		{`"placer": "indeda",`, "indeda"},
		{`"flow": "IndEDA", "placer": "indeda",`, "indeda"},
	} {
		for kind, input := range map[string]string{
			"circuit": `"circuit": {"name": "c1"}`,
			"design":  `"design": ` + design,
		} {
			var req jobRequest
			if err := json.Unmarshal([]byte(`{`+tc.sel+input+`}`), &req); err != nil {
				t.Fatal(err)
			}
			job, err := req.toJob()
			if err != nil || job.Placer != tc.want {
				t.Errorf("%s job with {%s}: placer %q, err %v; want %q", kind, tc.sel, job.Placer, err, tc.want)
			}
		}
	}
}

// abcdxJSON is the ABCDX design in the netlist JSON interchange form.
func abcdxJSON(t testing.TB) string {
	t.Helper()
	var sb strings.Builder
	if err := hidap.WriteJSON(&sb, circuits.ABCDX().Design); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestServeIgnoresLegacyBatchField: older clients still send knobs that
// were removed, such as "batch". The decoder ignores unknown fields, so such
// a request must be accepted and place exactly as the same request without
// the field.
func TestServeIgnoresLegacyBatchField(t *testing.T) {
	s, ts, eng := newTestServer(t, 1)
	defer eng.Close()

	var sb strings.Builder
	if err := hidap.WriteJSON(&sb, circuits.ABCDX().Design); err != nil {
		t.Fatal(err)
	}
	place := func(extra string) *hidap.JobResult {
		t.Helper()
		st, code := postJob(t, ts, fmt.Sprintf(
			`{"placer": "hidap", "seed": 3, "effort": "low", "evaluate": false%s, "design": %s}`, extra, sb.String()))
		if code != http.StatusAccepted {
			t.Fatalf("submit%s: status = %d", extra, code)
		}
		waitState(t, ts, st.ID, hidap.JobDone)
		s.mu.Lock()
		tk := s.jobs[st.ID]
		s.mu.Unlock()
		res, err := tk.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := place("")
	for _, extra := range []string{`, "batch": 8`, `, "restarts": 4`} {
		got := place(extra)
		for _, m := range circuits.ABCDX().Design.Macros() {
			if got.Placement.Pos[m] != want.Placement.Pos[m] || got.Placement.Orient[m] != want.Placement.Orient[m] {
				t.Fatalf("macro %d: placed %v %v with %q, %v %v without", m,
					got.Placement.Pos[m], got.Placement.Orient[m], extra, want.Placement.Pos[m], want.Placement.Orient[m])
			}
		}
	}
}

// TestServeMetricsEndpoint runs one job to completion and checks that
// /metrics exposes the job and cache counters in Prometheus text form, and
// that /healthz carries the same counts in JSON.
func TestServeMetricsEndpoint(t *testing.T) {
	_, ts, eng := newTestServer(t, 2)
	defer eng.Close()

	st, code := postJob(t, ts, `{"label":"m1","circuit":{"name":"c1","scale":400},"effort":"low","parallelism":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, st.ID, hidap.JobDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"hidap_jobs_accepted_total 1",
		"hidap_jobs_completed_total 1",
		"hidap_jobs_failed_total 0",
		"hidap_queue_depth 0",
		"hidap_jobs_running 0",
		"hidap_workers 2",
		"hidap_circuit_cache_misses_total 1",
		"# TYPE hidap_worker_utilization gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var health struct {
		Status   string            `json:"status"`
		Accepted uint64            `json:"accepted"`
		Engine   hidap.EngineStats `json:"engine"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Accepted != 1 {
		t.Errorf("healthz = %+v, want ok with 1 accepted", health)
	}
	if health.Engine.Completed != 1 || health.Engine.Workers != 2 {
		t.Errorf("healthz engine counts = %+v", health.Engine)
	}
}

// TestServeAutoclusterJob submits a flat circuit job with the autocluster
// field set, twice, and checks that the front-end counters land on /metrics:
// one synthesis, one clustered-design cache hit.
func TestServeAutoclusterJob(t *testing.T) {
	_, ts, eng := newTestServer(t, 2)
	defer eng.Close()

	body := `{"label":"ac1","flow":"HiDaP","effort":"low","seed":1,
		"circuit":{"name":"acflat","cells":300000,"macros":8,"subsystems":2,
		           "buswidth":32,"pipelinedepth":2,"scale":300,"seed":5,"flat":true},
		"autocluster":{"max_num_inst":300,"max_num_macro":3,"min_num_macro":1}}`
	st, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	waitState(t, ts, st.ID, hidap.JobDone)
	st2, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status = %d", code)
	}
	waitState(t, ts, st2.ID, hidap.JobDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"hidap_autocluster_designs_total 1",
		"hidap_autocluster_cache_hits_total 1",
		"hidap_autocluster_noop_total 0",
		"# TYPE hidap_autocluster_clusters_total counter",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, got)
		}
	}
	// Invalid knobs are rejected when the job runs, not accepted silently.
	stBad, code := postJob(t, ts, `{"flow":"HiDaP","effort":"low",
		"circuit":{"name":"c1","scale":400},
		"autocluster":{"max_num_inst":10,"min_num_inst":20}}`)
	if code != http.StatusAccepted {
		t.Fatalf("bad-knob submit status = %d", code)
	}
	waitFailed(t, ts, stBad.ID)
}

// waitFailed polls until the job reaches the failed state.
func waitFailed(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, ts, id); st.State == hidap.JobFailed {
			return
		} else if st.State == hidap.JobDone {
			t.Fatal("job with invalid autocluster knobs succeeded")
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never failed", id)
}

// FuzzJobRequest decodes arbitrary bytes as a submission body and converts
// it to a job, as the submit handler does before the engine sees it. It
// never submits. toJob must not panic, and a job it accepts names exactly
// one design source, a parallelism within bounds and one of hidap.Placers().
func FuzzJobRequest(f *testing.F) {
	for _, body := range invalidBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"label":"c","flow":"IndEDA","seed":2,"effort":"low","lambda":0.5,"parallelism":2,
		"circuit":{"name":"c1","scale":400},"autocluster":{}}`))
	f.Add([]byte(`{"label":"d","placer":"hidap","evaluate":true,"design":` + abcdxJSON(f) + `}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		job, err := req.toJob()
		if err != nil {
			return
		}
		if (job.Design == nil) == (job.Circuit == nil) {
			t.Fatalf("job names design %v and circuit %v", job.Design != nil, job.Circuit != nil)
		}
		if p := job.Config.Parallelism; p < 0 || p > maxParallelism {
			t.Fatalf("parallelism %d outside [0, %d]", p, maxParallelism)
		}
		if !slices.Contains(hidap.Placers(), job.Placer) {
			t.Fatalf("job placer %q not one of %v", job.Placer, hidap.Placers())
		}
	})
}
