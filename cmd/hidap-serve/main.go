// Command hidap-serve exposes a long-lived placement Engine over HTTP/JSON:
// jobs are submitted asynchronously, tracked by id, cancellable, and share
// the engine's design cache and warm annealing scratch across requests.
//
//	hidap-serve -addr :8080 -concurrency 8 -max-pending 256
//
//	POST   /v1/jobs            submit a job, returns {"id": "j1", ...}
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result measurement report (409 until finished)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness + engine stats + job counts
//	GET    /metrics             Prometheus text exposition of the same
//
// A job names either a synthetic suite circuit (generated and cached
// server-side) or ships a full design in the netlist JSON interchange form:
//
//	{"label":"t1", "flow":"HiDaP", "seed":1, "effort":"low",
//	 "circuit":{"name":"c1", "scale":200}}
//
//	{"label":"t2", "placer":"hidap", "evaluate":true,
//	 "design":{"name":"soc", "die":[0,0,500000,500000], ...}}
//
// Both become one engine job running one of the paper's three flows, on
// either kind: "flow" names it in any case (IndEDA, HiDaP, handFP),
// "placer" by its lower-case name (indeda, hidap, handfp); a request may
// set both only to the same flow, and setting neither selects hidap. A
// circuit job always evaluates; a design job evaluates unless "evaluate"
// is false.
//
// On SIGINT/SIGTERM the server stops accepting work, drains every accepted
// job, and only aborts in-flight placements if the -grace budget expires.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/circuits"
	"repro/hidap"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("concurrency", 0, "max concurrently running jobs (0 = GOMAXPROCS)")
		maxPending = flag.Int("max-pending", 256, "max queued jobs before 503 (0 = unbounded)")
		cacheSize  = flag.Int("cache", 64, "design/circuit cache entries (LRU)")
		maxJobs    = flag.Int("max-jobs", 4096, "finished-job records kept before eviction")
		grace      = flag.Duration("grace", 60*time.Second, "shutdown drain budget before in-flight jobs are cancelled")
	)
	flag.Parse()

	base, cancelJobs := context.WithCancel(context.Background())
	eng := hidap.NewEngine(nil, hidap.EngineOptions{
		Workers:    *workers,
		MaxPending: *maxPending,
		CacheSize:  *cacheSize,
	})
	s := newServer(eng, base, *maxJobs)

	httpSrv := &http.Server{Addr: *addr, Handler: s.handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("hidap-serve listening on %s (%d workers)", *addr, eng.Workers())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		log.Fatalf("hidap-serve: %v", err)
	}

	log.Printf("shutting down: draining jobs (grace %s)", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	drained := make(chan struct{})
	go func() { eng.Close(); close(drained) }()
	select {
	case <-drained:
		log.Printf("all jobs drained")
	case <-shutCtx.Done():
		log.Printf("grace expired: cancelling in-flight jobs")
		cancelJobs()
		<-drained
	}
}

// server maps HTTP ids to engine tickets.
type server struct {
	eng     *hidap.Engine
	base    context.Context // parents every job; outlives requests
	maxJobs int

	accepted atomic.Uint64 // jobs accepted by POST /v1/jobs

	mu    sync.Mutex
	jobs  map[string]*hidap.Ticket
	order []string // submission order, for bounded retention
}

func newServer(eng *hidap.Engine, base context.Context, maxJobs int) *server {
	if maxJobs <= 0 {
		maxJobs = 4096
	}
	return &server{eng: eng, base: base, maxJobs: maxJobs, jobs: map[string]*hidap.Ticket{}}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	return mux
}

// jobRequest is the submission body. Exactly one of circuit/design.
type jobRequest struct {
	Label    string          `json:"label"`
	Flow     string          `json:"flow"`     // IndEDA | HiDaP | handFP, any case: the job's flow
	Circuit  *circuits.Spec  `json:"circuit"`  // synthetic suite circuit
	Placer   string          `json:"placer"`   // indeda | hidap | handfp: the job's flow
	Design   json.RawMessage `json:"design"`   // netlist JSON interchange form
	Evaluate *bool           `json:"evaluate"` // design jobs; default true (circuit jobs always evaluate)
	Seed     int64           `json:"seed"`
	Lambda   *float64        `json:"lambda"` // pins λ; a circuit job otherwise sweeps the paper's three
	Effort   string          `json:"effort"` // low | medium | high
	// Parallelism sizes the job's internal work-stealing scheduler; 0
	// defers to the engine (serial inside a worker slot on multi-worker
	// engines). Placements never depend on it.
	Parallelism int `json:"parallelism"`
	// Autocluster enables the hierarchy-synthesis front-end for flat
	// netlists. {} uses the default knobs; fields override individually
	// (max_num_inst, min_num_inst, max_num_macro, min_num_macro,
	// coarsening_ratio, max_levels, tolerance).
	Autocluster *hidap.AutoclusterParams `json:"autocluster"`
}

type jobStatus struct {
	ID    string         `json:"id"`
	Label string         `json:"label,omitempty"`
	State hidap.JobState `json:"state"`
	Error string         `json:"error,omitempty"`
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	job, err := req.toJob()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Jobs are parented on the server's base context, not the request's:
	// submission is asynchronous and the job outlives this request.
	t, err := s.eng.Submit(s.base, job)
	switch {
	case errors.Is(err, hidap.ErrQueueFull), errors.Is(err, hidap.ErrEngineClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.accepted.Add(1)
	id := fmt.Sprintf("j%d", t.ID())
	s.remember(id, t)
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, jobStatus{ID: id, Label: t.Label(), State: t.State()})
}

// maxParallelism bounds a request's parallelism, well above what any
// client has reason to ask for.
const maxParallelism = 256

func (req *jobRequest) toJob() (hidap.Job, error) {
	var opts []hidap.Option
	opts = append(opts, hidap.WithSeed(req.Seed))
	if req.Lambda != nil {
		opts = append(opts, hidap.WithLambda(*req.Lambda))
	}
	// Each lane is a scheduler goroutine started up front, so the width is
	// bounded before anything is built.
	if req.Parallelism < 0 || req.Parallelism > maxParallelism {
		return hidap.Job{}, fmt.Errorf("parallelism %d outside [0, %d]", req.Parallelism, maxParallelism)
	}
	if req.Parallelism > 0 {
		opts = append(opts, hidap.WithParallelism(req.Parallelism))
	}
	effort := strings.ToLower(req.Effort)
	if effort == "" {
		effort = "medium"
	}
	eff, err := hidap.ParseEffort(effort)
	if err != nil {
		return hidap.Job{}, err
	}
	opts = append(opts, hidap.WithEffort(eff))
	if req.Autocluster != nil {
		opts = append(opts, hidap.WithAutocluster(*req.Autocluster))
	}
	placer, err := req.placer()
	if err != nil {
		return hidap.Job{}, err
	}
	job := hidap.Job{Label: req.Label, Placer: placer, Config: hidap.NewConfig(opts...)}
	switch {
	case req.Circuit != nil && req.Design != nil:
		return hidap.Job{}, errors.New("request sets both circuit and design")
	case req.Circuit != nil:
		spec, err := resolveSpec(*req.Circuit)
		if err != nil {
			return hidap.Job{}, err
		}
		job.Circuit = &spec
		if req.Lambda != nil {
			// Pin λ instead of the pipeline's best-of-three sweep.
			job.Lambdas = []float64{*req.Lambda}
		}
	case req.Design != nil:
		d, err := hidap.ReadJSON(bytes.NewReader(req.Design))
		if err != nil {
			return hidap.Job{}, fmt.Errorf("bad design: %w", err)
		}
		job.Design = d
		// Job.Key is deliberately not exposed over HTTP: the key asserts
		// content identity, and one client's assertion must not be able to
		// poison the cache entry another client's job resolves to. The
		// engine's content hash provides the same dedup, trustlessly.
		job.Evaluate = req.Evaluate == nil || *req.Evaluate
	default:
		return hidap.Job{}, errors.New("request needs a circuit or a design")
	}
	return job, nil
}

// resolveSpec fills a suite-circuit reference ({"name":"c1"}) from the
// paper's suite table, with every field the request did set overriding the
// suite value; fully specified custom circuits (macros > 0) pass through
// untouched. A spec that names no suite circuit and declares no macros is
// rejected here, before it reaches a worker.
func resolveSpec(spec circuits.Spec) (circuits.Spec, error) {
	if spec.Macros > 0 {
		return spec, nil
	}
	base, err := circuits.SuiteSpec(spec.Name)
	if err != nil {
		return circuits.Spec{}, fmt.Errorf("circuit %q: set macros/cells explicitly or name a suite circuit: %w", spec.Name, err)
	}
	if spec.Cells != 0 {
		base.Cells = spec.Cells
	}
	if spec.Subsystems != 0 {
		base.Subsystems = spec.Subsystems
	}
	if spec.BusWidth != 0 {
		base.BusWidth = spec.BusWidth
	}
	if spec.PipelineDepth != 0 {
		base.PipelineDepth = spec.PipelineDepth
	}
	if spec.Topology != "" {
		base.Topology = spec.Topology
	}
	if spec.Scale != 0 {
		base.Scale = spec.Scale
	}
	if spec.Utilization != 0 {
		base.Utilization = spec.Utilization
	}
	if spec.Seed != 0 {
		base.Seed = spec.Seed
	}
	return base, nil
}

// placer resolves the request's one flow selector to the Job.Placer name
// of one of hidap.Placers(): "flow" spells a paper flow in any case,
// "placer" gives its lower-case name, and a request setting both must name
// one flow with them. Neither selects hidap.
func (req *jobRequest) placer() (string, error) {
	name := req.Placer
	if req.Flow != "" {
		flow := strings.ToLower(req.Flow)
		if name != "" && name != flow {
			return "", fmt.Errorf("flow %q and placer %q name different flows", req.Flow, name)
		}
		name = flow
	}
	if name == "" {
		name = hidap.FlowHiDaP.Name()
	}
	if !slices.Contains(hidap.Placers(), name) {
		return "", fmt.Errorf("unknown flow %q (want one of %v)", name, hidap.Placers())
	}
	return name, nil
}

// remember indexes a ticket, evicting the oldest finished records beyond
// the retention bound so a long-lived server does not accumulate job state
// without limit. Live (queued/running) jobs are never evicted; finished
// records behind a long-running head are, so one slow job cannot pin an
// unbounded tail of fast ones.
func (s *server) remember(id string, t *hidap.Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[id] = t
	s.order = append(s.order, id)
	excess := len(s.order) - s.maxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, old := range s.order {
		if excess > 0 {
			if tk := s.jobs[old]; tk == nil {
				excess--
				continue
			} else if _, err := tk.Result(); !errors.Is(err, hidap.ErrNotFinished) {
				delete(s.jobs, old)
				excess--
				continue
			}
		}
		kept = append(kept, old)
	}
	s.order = kept
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*hidap.Ticket, string, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	t := s.jobs[id]
	s.mu.Unlock()
	if t == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return nil, id, false
	}
	return t, id, true
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st := jobStatus{ID: id, Label: t.Label(), State: t.State()}
	if _, err := t.Result(); err != nil && !errors.Is(err, hidap.ErrNotFinished) {
		st.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, st)
}

// jobResult is the terminal payload of a successful job.
type jobResult struct {
	jobStatus
	Report  *hidap.Report      `json:"report,omitempty"`
	Metrics *hidap.FlowMetrics `json:"metrics,omitempty"`
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res, err := t.Result()
	switch {
	case errors.Is(err, hidap.ErrNotFinished):
		writeJSON(w, http.StatusConflict, jobStatus{ID: id, Label: t.Label(), State: t.State()})
		return
	case err != nil:
		// Terminal-but-unsuccessful states keep a non-2xx code so scripted
		// clients branching on status never mistake them for a result:
		// cancelled jobs are Gone, failed jobs are a server error.
		code := http.StatusInternalServerError
		if t.State() == hidap.JobCanceled {
			code = http.StatusGone
		}
		writeJSON(w, code, jobStatus{ID: id, Label: t.Label(), State: t.State(), Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, jobResult{
		jobStatus: jobStatus{ID: id, Label: t.Label(), State: t.State()},
		Report:    res.Report,
		Metrics:   res.Metrics,
	})
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.lookup(w, r)
	if !ok {
		return
	}
	t.Cancel()
	writeJSON(w, http.StatusAccepted, jobStatus{ID: id, Label: t.Label(), State: t.State()})
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string            `json:"status"`
		Accepted uint64            `json:"accepted"`
		Engine   hidap.EngineStats `json:"engine"`
	}{"ok", s.accepted.Load(), s.eng.Stats()})
}

// metrics exposes the job and cache counters in the Prometheus text
// exposition format, so a scraper needs no JSON mapping.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	util := 0.0
	if st.Workers > 0 {
		util = float64(st.Running) / float64(st.Workers)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("hidap_jobs_accepted_total", "Jobs accepted by POST /v1/jobs.", s.accepted.Load())
	counter("hidap_jobs_completed_total", "Jobs reaching a terminal state.", st.Completed)
	counter("hidap_jobs_failed_total", "Jobs that finished with a non-cancellation error.", st.Failed)
	counter("hidap_jobs_canceled_total", "Jobs canceled before finishing.", st.Canceled)
	gauge("hidap_queue_depth", "Jobs queued but not yet running.", float64(st.Queued))
	gauge("hidap_jobs_running", "Jobs currently executing.", float64(st.Running))
	gauge("hidap_workers", "Job slots: the bound on concurrently running jobs.", float64(st.Workers))
	gauge("hidap_worker_utilization", "Running jobs over job slots.", util)
	gauge("hidap_design_cache_entries", "Designs retained in the LRU cache.", float64(st.CachedDesigns))
	counter("hidap_design_cache_hits_total", "Design cache hits at submit.", st.DesignCacheHits)
	counter("hidap_design_cache_misses_total", "Design cache misses at submit.", st.DesignCacheMisses)
	gauge("hidap_circuit_cache_entries", "Circuits retained in the LRU cache.", float64(st.CachedCircuits))
	counter("hidap_circuit_cache_hits_total", "Circuit cache hits at submit.", st.CircuitCacheHits)
	counter("hidap_circuit_cache_misses_total", "Circuit cache misses at submit.", st.CircuitCacheMisses)
	counter("hidap_autocluster_designs_total", "Designs given a synthesized hierarchy.", st.DesignsClustered)
	counter("hidap_autocluster_noop_total", "Autocluster pass-throughs on well-shaped hierarchies.", st.AutoclusterNoop)
	counter("hidap_autocluster_clusters_total", "Leaf clusters emitted by autoclustering.", st.ClustersEmitted)
	counter("hidap_autocluster_levels_total", "Coarsening levels run by autoclustering.", st.CoarseningLevels)
	counter("hidap_autocluster_cache_hits_total", "Jobs served a cached clustered design.", st.ClusterCacheHits)
	if _, err := w.Write([]byte(b.String())); err != nil {
		log.Printf("hidap-serve: write metrics: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("hidap-serve: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
