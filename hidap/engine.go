package hidap

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/circuits"
	"repro/internal/autocluster"
	"repro/internal/eval"
	"repro/internal/flows"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/seqgraph"
	"repro/internal/slicing"
)

// Flow harness aliases: the suite pipeline (Tables II/III) surfaced through
// the public API so a serving engine can fan a whole evaluation through its
// worker pool.
type (
	// Flow names a macro-placement flow of the paper's evaluation.
	Flow = flows.Flow
	// FlowMetrics is one Table III row: circuit, flow, Report, WLnorm.
	FlowMetrics = flows.Metrics
	// FlowSummary is one Table II row.
	FlowSummary = flows.Summary
	// CircuitSpec parameterizes one synthetic suite design.
	CircuitSpec = circuits.Spec
)

// Evaluation flows.
const (
	FlowIndEDA = flows.FlowIndEDA
	FlowHiDaP  = flows.FlowHiDaP
	FlowHandFP = flows.FlowHandFP
)

// Engine errors.
var (
	// ErrEngineClosed is returned by Submit/Run after Close.
	ErrEngineClosed = errors.New("hidap: engine closed")
	// ErrQueueFull is returned by Submit when MaxPending jobs are queued.
	ErrQueueFull = errors.New("hidap: engine queue full")
	// ErrNotFinished is returned by Ticket.Result before the job completes.
	ErrNotFinished = errors.New("hidap: job not finished")
)

// JobState is the lifecycle phase of a submitted job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job describes one unit of work for an Engine. Exactly one of Design or
// Circuit must be set:
//
//   - Design jobs run a registered Placer on the given netlist. The engine
//     deduplicates designs by content hash (or by Key when set), so repeated
//     jobs on the same design share one parsed instance and one cached Gseq.
//   - Circuit jobs generate (and cache) a synthetic suite circuit and run
//     the full flow pipeline of the paper's evaluation on it — macro
//     placement, standard-cell placement, measurement — yielding a
//     FlowMetrics row.
type Job struct {
	// Design is the netlist to place (design jobs).
	Design *Design
	// Key optionally names the design in the engine cache, skipping the
	// content hash. Two jobs with equal keys assert content-identical
	// designs and share one canonical instance.
	Key string
	// Placer selects the registered flow for design jobs ("hidap" when
	// empty).
	Placer string
	// Evaluate, for design jobs, runs the shared standard-cell placer and
	// measurement pipeline after macro placement and attaches a Report.
	Evaluate bool

	// Circuit selects a synthetic suite circuit (circuit jobs). The
	// generated design is cached by canonical spec.
	Circuit *CircuitSpec
	// Flow selects the pipeline for circuit jobs (FlowHiDaP when empty).
	Flow Flow
	// Lambdas overrides the HiDaP λ sweep for circuit jobs (default: the
	// paper's {0.2, 0.5, 0.8}, best wirelength wins). A single value pins
	// λ. From the Config, circuit jobs read Seed, Effort, Restarts,
	// Parallelism and (for the HiDaP flow) Autocluster; they ignore Lambda,
	// K, Flat, Trace and Progress, and the remaining flow knobs are the
	// pipeline's defaults. The IndEDA flow always runs at high effort.
	Lambdas []float64

	// Config overrides the engine's default Config for this job.
	Config *Config
	// Label is an opaque tag echoed on the result and its Report.
	Label string
}

// JobResult is the outcome of a finished job.
type JobResult struct {
	// Label echoes Job.Label.
	Label string
	// Placement is the physical result (macros, and standard cells when the
	// job evaluated).
	Placement *Placement
	// Stats is the placer bookkeeping.
	Stats Stats
	// Report is the measurement record (design jobs with Evaluate, and all
	// circuit jobs).
	Report *Report
	// Metrics is the Table III row (circuit jobs only).
	Metrics *FlowMetrics
}

// Ticket tracks one submitted job. Wait blocks for the result; Cancel
// aborts the job whether queued or running.
type Ticket struct {
	id     uint64
	label  string
	job    Job
	eng    *Engine
	cd     *cachedDesign
	cc     *cachedCircuit
	placer Placer

	ctx    context.Context
	cancel context.CancelFunc
	phase  atomic.Int32 // 0 queued, 1 running
	done   chan struct{}
	res    *JobResult
	err    error
}

// ID is the engine-unique job id.
func (t *Ticket) ID() uint64 { return t.id }

// Label echoes Job.Label.
func (t *Ticket) Label() string { return t.label }

// Done is closed when the job finishes (successfully or not).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Cancel aborts the job. A still-queued job is removed from the queue
// immediately — its MaxPending slot frees and Wait returns
// context.Canceled without a worker touching it; a running job stops
// between annealing moves. Cancel after completion is a no-op.
func (t *Ticket) Cancel() {
	t.cancel()
	if t.eng != nil {
		t.eng.dequeue(t)
	}
}

// State reports the job's lifecycle phase.
func (t *Ticket) State() JobState {
	select {
	case <-t.done:
		switch {
		case t.err == nil:
			return JobDone
		case errors.Is(t.err, context.Canceled) || errors.Is(t.err, context.DeadlineExceeded):
			return JobCanceled
		default:
			return JobFailed
		}
	default:
		if t.phase.Load() == 1 {
			return JobRunning
		}
		return JobQueued
	}
}

// Wait blocks until the job finishes or ctx is done. The wait context is
// independent of the job: an expired wait does not cancel the job.
func (t *Ticket) Wait(ctx context.Context) (*JobResult, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the outcome without blocking; ErrNotFinished while the job
// is queued or running.
func (t *Ticket) Result() (*JobResult, error) {
	select {
	case <-t.done:
		return t.res, t.err
	default:
		return nil, ErrNotFinished
	}
}

// EngineOptions sizes an Engine.
type EngineOptions struct {
	// Workers bounds the number of concurrently running jobs; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxPending bounds the queued-but-not-running jobs; Submit returns
	// ErrQueueFull beyond it. <= 0 means unbounded.
	MaxPending int
	// CacheSize bounds each design/circuit cache (LRU eviction); <= 0
	// means 64 entries.
	CacheSize int
}

// EngineStats is a point-in-time snapshot of an Engine. Completed counts
// every terminal job; Failed and Canceled break it down (the remainder
// succeeded). Cache hits and misses count Submit-time lookups in the
// design and circuit caches.
type EngineStats struct {
	Queued             int    `json:"queued"`
	Running            int    `json:"running"`
	Workers            int    `json:"workers"`
	Completed          uint64 `json:"completed"`
	Failed             uint64 `json:"failed"`
	Canceled           uint64 `json:"canceled"`
	CachedDesigns      int    `json:"cached_designs"`
	CachedCircuits     int    `json:"cached_circuits"`
	DesignCacheHits    uint64 `json:"design_cache_hits"`
	DesignCacheMisses  uint64 `json:"design_cache_misses"`
	CircuitCacheHits   uint64 `json:"circuit_cache_hits"`
	CircuitCacheMisses uint64 `json:"circuit_cache_misses"`
	// Autoclustering front-end counters: designs that got a synthesized
	// hierarchy, pass-throughs on already-shaped inputs, cumulative leaf
	// clusters and coarsening levels of the synthesized trees, and jobs that
	// reused a cached clustered design.
	DesignsClustered uint64 `json:"designs_clustered"`
	AutoclusterNoop  uint64 `json:"autocluster_noop"`
	ClustersEmitted  uint64 `json:"clusters_emitted"`
	CoarseningLevels uint64 `json:"coarsening_levels"`
	ClusterCacheHits uint64 `json:"cluster_cache_hits"`
}

// Engine is the long-lived run model of the package: a bounded worker pool
// fed by Submit/SubmitBatch, a per-engine circuit cache (parsed designs and
// their sequential graphs, keyed by content hash) and pooled annealing
// scratch, so back-to-back jobs on the same design run allocation-warm.
// One Engine serves concurrent callers; all methods are safe for concurrent
// use.
type Engine struct {
	cfg        *Config
	workers    int
	maxPending int

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Ticket
	closed  bool
	quit    chan struct{} // closed at Close: unblocks stream sends
	wg      sync.WaitGroup
	runs    sync.WaitGroup // inline Engine.Run executions, drained by Close

	pool    *slicing.EvaluatorPool
	designs *lruCache[*cachedDesign]
	gens    *lruCache[*cachedCircuit]

	nextID    atomic.Uint64
	running   atomic.Int32
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64

	acRuns     atomic.Uint64 // designs clustered (non-noop syntheses)
	acNoop     atomic.Uint64 // pass-throughs on well-shaped hierarchies
	acClusters atomic.Uint64 // leaf clusters emitted, cumulative
	acLevels   atomic.Uint64 // coarsening levels run, cumulative
	acHits     atomic.Uint64 // jobs served a cached clustered design

	resultsMu     sync.Mutex
	results       chan *Ticket
	resultsClosed bool
}

// NewEngine builds an engine whose jobs default to cfg (nil means
// NewConfig() defaults) and starts its worker pool. Close releases it.
func NewEngine(cfg *Config, opt EngineOptions) *Engine {
	if cfg == nil {
		cfg = NewConfig()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opt.CacheSize
	if cache <= 0 {
		cache = 64
	}
	e := &Engine{
		cfg:        cfg,
		workers:    workers,
		maxPending: opt.MaxPending,
		quit:       make(chan struct{}),
		pool:       &slicing.EvaluatorPool{},
		designs:    newLRU[*cachedDesign](cache),
		gens:       newLRU[*cachedCircuit](cache),
	}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		//hidapvet:allow gocap long-lived engine worker pool, bounded by Workers and joined via wg on Close; not per-solve fan-out
		go e.worker()
	}
	return e
}

// Workers reports the concurrency bound of the pool.
func (e *Engine) Workers() int { return e.workers }

// FlushCaches empties the design and circuit caches, releasing every
// retained netlist and sequential graph. Jobs in flight keep the entries
// they already resolved; subsequent jobs repopulate the caches. Use it when
// a long-lived engine has served a working set it will not see again.
func (e *Engine) FlushCaches() {
	e.designs.flush()
	e.gens.flush()
}

// Stats snapshots the engine's queue, outcome counters and cache occupancy.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	queued := len(e.pending)
	e.mu.Unlock()
	dLen, dHits, dMisses := e.designs.stats()
	cLen, cHits, cMisses := e.gens.stats()
	return EngineStats{
		Queued:             queued,
		Running:            int(e.running.Load()),
		Workers:            e.workers,
		Completed:          e.completed.Load(),
		Failed:             e.failed.Load(),
		Canceled:           e.canceled.Load(),
		CachedDesigns:      dLen,
		CachedCircuits:     cLen,
		DesignCacheHits:    dHits,
		DesignCacheMisses:  dMisses,
		CircuitCacheHits:   cHits,
		CircuitCacheMisses: cMisses,
		DesignsClustered:   e.acRuns.Load(),
		AutoclusterNoop:    e.acNoop.Load(),
		ClustersEmitted:    e.acClusters.Load(),
		CoarseningLevels:   e.acLevels.Load(),
		ClusterCacheHits:   e.acHits.Load(),
	}
}

// noteAutocluster tallies one autoclustering outcome into the engine
// counters: a cache hit, a no-op pass-through, or a fresh synthesis. A nil
// engine (a one-shot Place) tallies nothing.
func (e *Engine) noteAutocluster(stats autocluster.Stats, fresh bool) {
	switch {
	case e == nil:
	case !fresh:
		e.acHits.Add(1)
	case stats.NoOp:
		e.acNoop.Add(1)
	default:
		e.acRuns.Add(1)
		e.acClusters.Add(uint64(stats.Clusters))
		e.acLevels.Add(uint64(stats.Levels))
	}
}

// Submit enqueues a job. ctx parents the job's run context: cancelling it
// (or Ticket.Cancel) aborts the job whether queued or running, so a server
// passes a long-lived context here, not a per-request one. Submit itself
// never blocks: it returns ErrQueueFull when MaxPending jobs are already
// queued and ErrEngineClosed after Close.
func (e *Engine) Submit(ctx context.Context, job Job) (*Ticket, error) {
	return e.submit(ctx, job, false)
}

// submit enqueues one job. Bulk submissions (SubmitBatch) bypass the
// MaxPending bound: that bound sheds load from a request-at-a-time
// endpoint, while a batch is one deliberate operation whose size is known
// up front — rejecting its tail nondeterministically would make bounded
// engines unable to run any realistically sized suite.
func (e *Engine) submit(ctx context.Context, job Job, bulk bool) (*Ticket, error) {
	// Reject overload/shutdown before prepare: an engine refusing work must
	// not pay the content hash nor let rejected traffic churn warm cache
	// entries out of the LRU. The check repeats under the lock below for
	// the (rare) race where the queue fills during prepare.
	if err := e.acceptable(bulk); err != nil {
		return nil, err
	}
	t, err := e.prepare(ctx, job)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	switch {
	case e.closed:
		e.mu.Unlock()
		t.cancel()
		return nil, ErrEngineClosed
	case !bulk && e.maxPending > 0 && len(e.pending) >= e.maxPending:
		e.mu.Unlock()
		t.cancel()
		return nil, ErrQueueFull
	}
	e.pending = append(e.pending, t)
	e.cond.Signal()
	e.mu.Unlock()
	// Watch the job context while the ticket waits: a context cancelled
	// during the queued phase dequeues the ticket immediately (freeing its
	// MaxPending slot and unblocking Wait), exactly like Ticket.Cancel. The
	// watcher exits as soon as the job finishes by any path.
	//hidapvet:allow gocap per-ticket context watcher; lifetime bounded by the job, not solver fan-out
	go func() {
		select {
		case <-t.ctx.Done():
			e.dequeue(t)
		case <-t.done:
		}
	}()
	return t, nil
}

func (e *Engine) acceptable(bulk bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.closed:
		return ErrEngineClosed
	case !bulk && e.maxPending > 0 && len(e.pending) >= e.maxPending:
		return ErrQueueFull
	}
	return nil
}

// Run executes one job synchronously on the caller's goroutine, outside the
// worker pool but inside the engine's caches and scratch pool.
func (e *Engine) Run(ctx context.Context, job Job) (*JobResult, error) {
	t, err := e.prepare(ctx, job)
	if err != nil {
		return nil, err
	}
	defer t.cancel()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	// Registered under the engine lock so Close (which flips closed under
	// the same lock before waiting) cannot miss an in-flight Run.
	e.runs.Add(1)
	e.mu.Unlock()
	defer e.runs.Done()
	t.phase.Store(1)
	e.running.Add(1)
	res, err := e.execute(t)
	e.running.Add(-1)
	e.finish(err)
	return res, err
}

// finish tallies one terminal job outcome.
func (e *Engine) finish(err error) {
	e.completed.Add(1)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		e.canceled.Add(1)
	default:
		e.failed.Add(1)
	}
}

// Results returns the completion stream: tickets finished by the worker
// pool after the first Results call are delivered in completion order, at
// most once each. Consumers should drain the channel until it closes (at
// Close); a stalled consumer applies backpressure to the pool, never to
// Close — completions that race shutdown are dropped from the stream
// (Ticket.Wait/Result still return them). Tickets finished before the
// first call, cancelled while queued, or run inline are not streamed.
func (e *Engine) Results() <-chan *Ticket {
	e.resultsMu.Lock()
	defer e.resultsMu.Unlock()
	if e.results == nil {
		e.results = make(chan *Ticket, 16)
		if e.resultsClosed {
			close(e.results)
		}
	}
	return e.results
}

// Close stops accepting jobs, drains every queued and running job —
// including jobs executing inline through Run — then closes the Results
// stream. It is idempotent and safe to call concurrently; all calls block
// until the drain completes.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.quit) // release workers parked on a stalled Results consumer
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	e.wg.Wait()
	e.runs.Wait()
	e.resultsMu.Lock()
	if !e.resultsClosed {
		e.resultsClosed = true
		if e.results != nil {
			close(e.results)
		}
	}
	e.resultsMu.Unlock()
}

// Suite describes a SubmitBatch fan-out: the cross product of circuits,
// flows and seeds, one job each.
type Suite struct {
	// Circuits are the synthetic designs to evaluate.
	Circuits []CircuitSpec
	// Flows to run per circuit; nil means all three paper flows.
	Flows []Flow
	// Seeds per (circuit, flow); nil means the base config's seed.
	Seeds []int64
	// Config is the base per-job config (effort, λ defaults); the seed is
	// overridden per job. Nil means the engine default.
	Config *Config
}

// Batch tracks the tickets of one SubmitBatch call.
type Batch struct {
	// Tickets in submit order: circuits × flows × seeds, innermost seeds.
	Tickets []*Ticket

	// seeds holds each ticket's seed so Wait can normalize per seed group.
	seeds []int64
}

// SuiteResult aggregates a finished batch through the shared evaluation
// pipeline: normalized Table III rows plus the Table II summary.
type SuiteResult struct {
	Rows      []*FlowMetrics `json:"rows"`
	Summaries []FlowSummary  `json:"summary"`
}

// SubmitBatch fans a suite through the worker pool, one job per
// (circuit, flow, seed). Repeated circuits across jobs share one cached
// design and sequential graph. ctx parents every job. A batch is exempt
// from the MaxPending bound: the whole suite is accepted atomically and
// drains through the Workers-bounded pool.
func (e *Engine) SubmitBatch(ctx context.Context, s Suite) (*Batch, error) {
	if len(s.Circuits) == 0 {
		return nil, errors.New("hidap: SubmitBatch needs at least one circuit")
	}
	fl := s.Flows
	if len(fl) == 0 {
		fl = []Flow{FlowIndEDA, FlowHiDaP, FlowHandFP}
	}
	base := s.Config
	if base == nil {
		base = e.cfg
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	b := &Batch{}
	for _, spec := range s.Circuits {
		for _, f := range fl {
			for _, seed := range seeds {
				cfg := *base
				cfg.Seed = seed
				spec := spec
				t, err := e.submit(ctx, Job{
					Circuit: &spec,
					Flow:    f,
					Config:  &cfg,
					Label:   fmt.Sprintf("%s/%s/seed%d", spec.Name, f, seed),
				}, true)
				if err != nil {
					b.Cancel()
					return nil, err
				}
				b.Tickets = append(b.Tickets, t)
				b.seeds = append(b.seeds, seed)
			}
		}
	}
	return b, nil
}

// Cancel aborts every job of the batch.
func (b *Batch) Cancel() {
	for _, t := range b.Tickets {
		t.Cancel()
	}
}

// Wait blocks until every job finishes, then aggregates the rows through
// flows.Normalize/Summarize. Normalization runs per seed group, so with
// multiple seeds every row is normalized against its own seed's handFP
// reference (each handFP row is exactly 1.0) instead of cross-seed
// contamination. The first job *failure* cancels the remainder and is
// returned; an expired wait context merely returns its error — the jobs
// keep running and a later Wait picks them up.
func (b *Batch) Wait(ctx context.Context) (*SuiteResult, error) {
	rows := make([]*FlowMetrics, 0, len(b.Tickets))
	bySeed := map[int64][]*FlowMetrics{}
	for i, t := range b.Tickets {
		res, err := t.Wait(ctx)
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return nil, err // the wait expired, not the batch
			}
			b.Cancel()
			return nil, fmt.Errorf("hidap: batch job %q: %w", t.Label(), err)
		}
		rows = append(rows, res.Metrics)
		bySeed[b.seeds[i]] = append(bySeed[b.seeds[i]], res.Metrics)
	}
	//hidapvet:orderinvariant per-seed groups are disjoint; Normalize mutates each group in isolation, so visit order cannot matter
	for _, group := range bySeed {
		flows.Normalize(group)
	}
	return &SuiteResult{Rows: rows, Summaries: flows.Summarize(rows)}, nil
}

// prepare validates a job, interns its design/circuit in the engine caches
// and wraps it in a ticket.
func (e *Engine) prepare(ctx context.Context, job Job) (*Ticket, error) {
	t := &Ticket{
		id:    e.nextID.Add(1),
		label: job.Label,
		job:   job,
		eng:   e,
		done:  make(chan struct{}),
	}
	switch {
	case job.Design != nil && job.Circuit != nil:
		return nil, errors.New("hidap: job sets both Design and Circuit")
	case job.Design != nil:
		name := job.Placer
		if name == "" {
			name = "hidap"
		}
		p, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		t.placer = p
		key := job.Key
		if key == "" {
			key = hashDesign(job.Design)
		}
		d := job.Design
		t.cd = e.designs.getOrCreate("design:"+key, func() *cachedDesign {
			return &cachedDesign{d: d}
		})
	case job.Circuit != nil:
		spec := job.Circuit.Canonical()
		if spec.Macros <= 0 {
			return nil, fmt.Errorf("hidap: circuit spec %q has no macros (use circuits.SuiteSpec for the paper suite)", spec.Name)
		}
		t.cc = e.gens.getOrCreate(fmt.Sprintf("circuit:%#v", spec), func() *cachedCircuit {
			return &cachedCircuit{spec: spec}
		})
	default:
		return nil, errors.New("hidap: job needs a Design or a Circuit")
	}
	t.ctx, t.cancel = context.WithCancel(ctx)
	return t, nil
}

// worker drains the queue until Close and the queue is empty, so shutdown
// finishes every accepted job.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		t := e.next()
		if t == nil {
			return
		}
		t.phase.Store(1)
		e.running.Add(1)
		t.res, t.err = e.execute(t)
		e.running.Add(-1)
		e.finish(t.err)
		t.cancel()
		close(t.done)
		if ch := e.resultsStream(); ch != nil {
			// A stalled consumer applies backpressure to the pool, but it
			// must never wedge Close: once shutdown starts, undelivered
			// completions are dropped from the stream (Wait/Result still
			// return them). The non-blocking attempt first keeps delivery
			// reliable for a consumer that is keeping up even while quit is
			// already closed — the two-ready-cases select would otherwise
			// drop randomly during a graceful drain.
			select {
			case ch <- t:
			default:
				select {
				case ch <- t:
				case <-e.quit:
				}
			}
		}
	}
}

// dequeue removes a cancelled ticket from the pending queue and finalizes
// it without a worker: its MaxPending slot frees immediately and Wait
// unblocks with the cancellation error. A ticket already popped (or
// finished) is left to the worker path; the queue lock makes the two
// exclusive. Cancelled-while-queued tickets are not delivered to the
// Results stream, which carries worker-completed jobs only.
func (e *Engine) dequeue(t *Ticket) {
	e.mu.Lock()
	found := false
	for i, p := range e.pending {
		if p == t {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			found = true
			break
		}
	}
	e.mu.Unlock()
	if !found {
		return
	}
	t.err = t.ctx.Err()
	if t.err == nil {
		t.err = context.Canceled
	}
	e.finish(t.err)
	close(t.done)
}

func (e *Engine) next() *Ticket {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.pending) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.pending) == 0 {
		return nil
	}
	t := e.pending[0]
	e.pending[0] = nil
	e.pending = e.pending[1:]
	return t
}

func (e *Engine) resultsStream() chan *Ticket {
	e.resultsMu.Lock()
	defer e.resultsMu.Unlock()
	return e.results
}

// execute runs one job on the caller's goroutine under guard, so a
// panicking job becomes a job error rather than taking down the engine. A
// failure names the job, whichever layer (engine or placer) reported it.
func (e *Engine) execute(t *Ticket) (res *JobResult, err error) {
	err = guard(t.ctx, "job", func() (err error) {
		res, err = e.executeJob(t)
		return err
	})
	if err != nil && t.ctx.Err() == nil {
		err = fmt.Errorf("hidap: job %d (%q): %w", t.id, t.label, err)
	}
	return res, err
}

func (e *Engine) executeJob(t *Ticket) (*JobResult, error) {
	ctx := t.ctx
	cfg := t.job.Config
	if cfg == nil {
		cfg = e.cfg
	}
	cc := *cfg // shallow copy: the warm handle is per job
	if e.workers > 1 && cc.Parallelism <= 0 {
		// The engine's worker pool is the outer parallelism layer: a job's
		// internal scheduler must not default to all cores on top of it, or
		// concurrent jobs multiply into Workers × GOMAXPROCS busy
		// goroutines. Jobs run serially inside their worker slot unless they
		// ask for more; results are identical either way (placements are
		// Parallelism-independent).
		cc.Parallelism = 1
	}
	if t.cc != nil {
		return e.runCircuitJob(ctx, t, &cc)
	}
	return e.runDesignJob(ctx, t, &cc)
}

// runDesignJob places (and optionally evaluates) a cached design with a
// registered placer. The config carries the warm handle; only the hidap
// placer reads it, building the cached artifacts (and the autoclustered
// variant) on first use, so indeda and handfp jobs pay for none of them.
func (e *Engine) runDesignJob(ctx context.Context, t *Ticket, cfg *Config) (*JobResult, error) {
	cfg.warm = &warmJob{cd: t.cd, eng: e}
	pl, stats, err := t.placer.Place(ctx, t.cd.d, cfg)
	if err != nil {
		return nil, err
	}
	res := &JobResult{Label: t.job.Label, Placement: pl, Stats: stats}
	if t.job.Evaluate {
		if err := PlaceStdCells(ctx, pl); err != nil {
			return nil, err
		}
		// Measure against the design the placement was made on (the
		// autoclustered variant shares cells, nets and Gseq with t.cd).
		rep, err := eval.Evaluate(ctx, pl.D, pl, eval.Options{Graph: t.cd.graph()})
		if err != nil {
			return nil, err
		}
		stats.Annotate(rep)
		rep.Label = t.job.Label
		res.Report = rep
	}
	return res, nil
}

// runCircuitJob generates (once) a synthetic circuit and runs the full flow
// pipeline, yielding one Table III row.
func (e *Engine) runCircuitJob(ctx context.Context, t *Ticket, cfg *Config) (*JobResult, error) {
	g := t.cc.gen()
	fl := t.job.Flow
	if fl == "" {
		fl = FlowHiDaP
	}
	fopt := flows.DefaultOptions()
	fopt.Seed = cfg.Seed
	fopt.Effort = cfg.Effort
	fopt.Restarts = cfg.Restarts
	fopt.Parallelism = cfg.Parallelism
	fopt.Pool = e.pool
	if len(t.job.Lambdas) > 0 {
		fopt.Lambdas = t.job.Lambdas
	}
	if cfg.Autocluster != nil && fl == FlowHiDaP {
		// Cluster up front (the Generated memoizes per params, so the flow's
		// own lookup below is a hit) to tally the outcome into the engine
		// counters before placement starts.
		res, fresh, err := g.Autocluster(*cfg.Autocluster)
		if err != nil {
			return nil, err
		}
		e.noteAutocluster(res.Stats, fresh)
		fopt.Autocluster = cfg.Autocluster
	}
	// Parallelism rides in from the config (executeJob pinned it to 1 on
	// multi-worker engines, so the Workers bound stays the whole story of a
	// busy engine's parallelism; a single-worker engine lets the job's own
	// scheduler use the machine).
	m, pl, err := flows.Run(ctx, g, fl, fopt)
	if err != nil {
		return nil, err
	}
	m.Label = t.job.Label
	return &JobResult{
		Label:     t.job.Label,
		Placement: pl,
		Stats:     Stats{Placer: string(fl), MacroSeconds: m.MacroSeconds, Lambda: m.Lambda},
		Report:    &m.Report,
		Metrics:   m,
	}, nil
}

// warmJob is the handle an Engine puts on a design job's config: the job's
// cache entry (Gseq, hierarchy tree, bipartite graph, autoclustered
// variants) and the engine itself (scratch pool, autocluster counters). A
// one-shot hidap Place builds a throwaway handle with a nil engine.
type warmJob struct {
	cd  *cachedDesign
	eng *Engine
}

// cachedDesign is one design cache entry: the canonical parsed instance and
// its lazily built derived artifacts — sequential graph, hierarchy tree and
// cell–net bipartite graph — each built once and shared read-only by every
// job that references the design.
type cachedDesign struct {
	d        *Design
	once     sync.Once
	sg       *seqgraph.Graph
	treeOnce sync.Once
	tree     *hier.Tree
	bpOnce   sync.Once
	bp       *graph.Bipartite

	// acMu guards the clustered-design variants, keyed by the autocluster
	// knobs: the design cache is content-addressed, so one clustered variant
	// per (design hash, params) serves every job that asks for it.
	acMu sync.Mutex
	ac   map[autocluster.Params]*clusteredEntry
}

// clusteredEntry is one autoclustered variant of a cached design. A no-op
// synthesis points cd back at the original entry, so warm artifacts are
// shared rather than rebuilt.
type clusteredEntry struct {
	cd    *cachedDesign
	stats autocluster.Stats
}

// clustered returns (building once) the autoclustered variant of the design
// under the given knobs. The clustered netlist shares cells and nets with
// the original, so the variant inherits the original's sequential and
// bipartite graphs — only the hierarchy tree is rebuilt.
func (c *cachedDesign) clustered(p autocluster.Params) (*clusteredEntry, bool, error) {
	c.acMu.Lock()
	defer c.acMu.Unlock()
	if ent, ok := c.ac[p]; ok {
		return ent, false, nil
	}
	res, err := autocluster.ClusterUsing(c.d, p, c.graph())
	if err != nil {
		return nil, false, err
	}
	ent := &clusteredEntry{cd: c, stats: res.Stats}
	if !res.Stats.NoOp {
		cd := &cachedDesign{d: res.Design}
		cd.once.Do(func() { cd.sg = c.graph() })
		cd.bpOnce.Do(func() { cd.bp = c.bipartite() })
		ent.cd = cd
	}
	if c.ac == nil {
		c.ac = make(map[autocluster.Params]*clusteredEntry)
	}
	c.ac[p] = ent
	return ent, true, nil
}

func (c *cachedDesign) graph() *seqgraph.Graph {
	c.once.Do(func() {
		c.sg = seqgraph.Build(c.d, seqgraph.DefaultParams())
	})
	return c.sg
}

func (c *cachedDesign) hierTree() *hier.Tree {
	c.treeOnce.Do(func() {
		c.tree = hier.New(c.d)
	})
	return c.tree
}

func (c *cachedDesign) bipartite() *graph.Bipartite {
	c.bpOnce.Do(func() {
		c.bp = graph.BipartiteFromDesign(c.d)
	})
	return c.bp
}

// cachedCircuit is one synthetic-circuit cache entry, generated on first
// use. Generated caches its own Gseq.
type cachedCircuit struct {
	spec circuits.Spec
	once sync.Once
	g    *circuits.Generated
}

func (c *cachedCircuit) gen() *circuits.Generated {
	c.once.Do(func() {
		c.g = circuits.Generate(c.spec)
	})
	return c.g
}

// hashDesign content-addresses a design: a truncated SHA-256 over every
// field netlist.WriteJSON emits, streamed without building the document.
// Integers are fixed-width little-endian, every string carries its length
// and every list its count, so the encoding is injective: two designs with
// different interchange forms never share an input to the hash. That is
// what lets the engine dedup untrusted designs by content (hidap-serve
// hides Job.Key for this reason), so the encoding must stay injective.
func hashDesign(d *Design) string {
	w := designHasher{h: sha256.New(), buf: make([]byte, 0, 4096)}
	w.str(d.Name)
	w.i64(d.Die.X)
	w.i64(d.Die.Y)
	w.i64(d.Die.W)
	w.i64(d.Die.H)
	w.i64(d.RowHeight)
	w.i64(int64(len(d.Cells)))
	ports := 0
	for i := range d.Cells {
		c := &d.Cells[i]
		w.str(c.Name)
		w.u8(byte(c.Kind))
		w.i64(c.Width)
		w.i64(c.Height)
		w.str(d.Node(c.Hier).Path)
		if c.Kind == netlist.KindPort && d.HasPortPos(netlist.CellID(i)) {
			ports++
		}
	}
	w.i64(int64(len(d.Nets)))
	for i := range d.Nets {
		w.str(d.Nets[i].Name)
	}
	w.i64(int64(len(d.Pins)))
	for i := range d.Pins {
		p := &d.Pins[i]
		w.i32(int32(p.Cell))
		w.i32(int32(p.Net))
		// WriteJSON spells every direction but DirIn "out".
		if p.Dir == netlist.DirIn {
			w.u8(0)
		} else {
			w.u8(1)
		}
		w.i64(p.Offset.X)
		w.i64(p.Offset.Y)
	}
	w.i64(int64(ports))
	for i := range d.Cells {
		id := netlist.CellID(i)
		if d.Cells[i].Kind == netlist.KindPort && d.HasPortPos(id) {
			pp := d.PortPos(id)
			w.i64(int64(id))
			w.i64(pp.X)
			w.i64(pp.Y)
		}
	}
	w.flush()
	var key [24]byte
	hex.Encode(key[:], w.h.Sum(w.buf)[:12])
	return string(key[:])
}

// designHasher batches hashDesign's fields into one buffer per call.
type designHasher struct {
	h   hash.Hash
	buf []byte
}

func (w *designHasher) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

func (w *designHasher) i64(v int64) {
	if len(w.buf)+8 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}

func (w *designHasher) i32(v int32) {
	if len(w.buf)+4 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v))
}

func (w *designHasher) u8(v byte) {
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
	w.buf = append(w.buf, v)
}

func (w *designHasher) str(s string) {
	w.i64(int64(len(s)))
	for len(s) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}

// lruCache is a small mutex-guarded LRU of cache entries. Creation inserts
// a cheap shell; heavy initialization happens lazily inside the entry (via
// sync.Once), so the cache lock is never held across design parsing or
// graph construction. Evicted entries stay valid for jobs already holding
// them.
type lruCache[V any] struct {
	mu     sync.Mutex
	max    int
	m      map[string]*list.Element
	l      *list.List
	hits   uint64
	misses uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lruCache[V] {
	return &lruCache[V]{max: max, m: make(map[string]*list.Element), l: list.New()}
}

func (c *lruCache[V]) getOrCreate(key string, mk func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.hits++
		c.l.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	c.misses++
	v := mk()
	c.m[key] = c.l.PushFront(&lruEntry[V]{key: key, val: v})
	for c.l.Len() > c.max {
		last := c.l.Back()
		c.l.Remove(last)
		delete(c.m, last.Value.(*lruEntry[V]).key)
	}
	return v
}

func (c *lruCache[V]) stats() (length int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len(), c.hits, c.misses
}

func (c *lruCache[V]) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]*list.Element)
	c.l.Init()
}
