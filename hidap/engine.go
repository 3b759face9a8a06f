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
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/slicing"
)

// Flow harness aliases: the suite pipeline (Tables II/III) surfaced through
// the public API so a serving engine can fan a whole evaluation through its
// Workers slots.
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

// Placers lists the names Job.Placer accepts, sorted: the Name of each of
// the three flows.
func Placers() []string {
	return []string{FlowHandFP.Name(), FlowHiDaP.Name(), FlowIndEDA.Name()}
}

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

// Job describes one unit of work for an Engine: one of the paper's three
// flows, named by Placer, run on one design, named by exactly one of Design
// or Circuit. A design job places the given netlist, deduplicated by
// content hash (or by Key when set), so repeated jobs on it share one
// parsed instance and one cached Gseq. A circuit job places a synthetic
// suite circuit, generated once per canonical spec and cached, with the
// circuit's intent as Config.Intent. Both run one path: a job that does
// not evaluate places once; an evaluating job (a design job with Evaluate,
// or any circuit job) runs the paper's evaluation pipeline — macro
// placement at each λ candidate, standard-cell placement, measurement of
// the lowest-wirelength one.
type Job struct {
	// Design is the netlist to place (design jobs).
	Design *Design
	// Key optionally names the design in the engine cache, skipping the
	// content hash. Two jobs with equal keys assert content-identical
	// designs and share one canonical instance.
	Key string
	// Placer names the job's flow, one of Placers(): "hidap" (also when
	// empty), "indeda" or "handfp". Any other name is refused at submit.
	Placer string
	// Evaluate, for design jobs, runs the measurement pipeline and attaches
	// a Report. Circuit jobs always evaluate.
	Evaluate bool

	// Circuit selects a synthetic suite circuit (circuit jobs).
	Circuit *CircuitSpec
	// Lambdas is the λ sweep of an evaluating hidap job: it places once per
	// value and keeps the best post-placement wirelength, so a single value
	// pins λ. Empty, a circuit job sweeps the paper's {0.2, 0.5, 0.8} and a
	// design job places at Config.Lambda. A sweep of more than one λ
	// returns no trace and streams no progress. The other flows place once
	// at Config.Lambda, and a circuit job's indeda always runs at high effort.
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
	// Stats is the flow's bookkeeping of the placement, the winning λ
	// candidate's on an evaluating job.
	Stats Stats
	// Report is the measurement record, annotated with Stats (evaluating
	// jobs only).
	Report *Report
	// Metrics is the Table III row: Report plus the circuit's name and
	// flow (circuit jobs only).
	Metrics *FlowMetrics
}

// Ticket tracks one submitted job. Wait blocks for the result; Cancel
// aborts the job whether queued or running.
type Ticket struct {
	id   uint64
	job  Job
	eng  *Engine
	src  source
	flow Flow

	ctx    context.Context
	cancel context.CancelFunc
	phase  atomic.Int32 // phaseQueued until it leaves, exactly once
	done   chan struct{}
	res    *JobResult
	err    error
}

// A ticket's phase leaves phaseQueued exactly once, by CompareAndSwap:
// to phaseRunning when its goroutine takes a slot, or to phaseDropped when
// Ticket.Cancel or the job context gets there first. The winner finishes
// the ticket.
const (
	phaseQueued int32 = iota
	phaseRunning
	phaseDropped
)

// ID is the engine-unique job id.
func (t *Ticket) ID() uint64 { return t.id }

// Label echoes Job.Label.
func (t *Ticket) Label() string { return t.job.Label }

// Done is closed when the job finishes (successfully or not).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Cancel aborts the job. A still-queued job finishes at once — its
// MaxPending place frees and Wait returns context.Canceled without the job
// ever running; a running job stops between annealing moves. Cancel after
// completion is a no-op.
func (t *Ticket) Cancel() {
	t.cancel()
	t.eng.drop(t)
}

// State reports the job's lifecycle phase.
func (t *Ticket) State() JobState {
	select {
	case <-t.done:
		return finalState(t.err)
	default:
		if t.phase.Load() == phaseRunning {
			return JobRunning
		}
		return JobQueued
	}
}

// finalState classifies a finished job by its error.
func finalState(err error) JobState {
	switch {
	case err == nil:
		return JobDone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return JobCanceled
	}
	return JobFailed
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

// Engine is the long-lived run model of the package: jobs fed by
// Submit/SubmitBatch run at most Workers at a time, beside a design cache
// keyed by content hash (or Job.Key), a circuit cache keyed by canonical
// spec, and pooled annealing scratch, so back-to-back jobs on the same
// design run allocation-warm. Each accepted job waits on its own goroutine
// for one of Workers slots; waiting jobs start in the order they win a
// slot, not strictly in submission order. One Engine serves concurrent
// callers; all methods are safe for concurrent use.
type Engine struct {
	cfg        *Config
	workers    int
	maxPending int
	slots      chan struct{} // one token per job running in a slot

	mu     sync.Mutex // orders jobs.Add against Close setting closed
	closed atomic.Bool
	jobs   sync.WaitGroup // every accepted job: queued, in a slot or inline in Run

	pool    *slicing.EvaluatorPool
	designs *lruCache[source]
	gens    *lruCache[source]

	nextID    atomic.Uint64
	queued    atomic.Int32
	running   atomic.Int32
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64

	acRuns     atomic.Uint64 // designs clustered (non-noop syntheses)
	acNoop     atomic.Uint64 // pass-throughs on well-shaped hierarchies
	acClusters atomic.Uint64 // leaf clusters emitted, cumulative
	acLevels   atomic.Uint64 // coarsening levels run, cumulative
	acHits     atomic.Uint64 // jobs served a cached clustered design
}

// NewEngine builds an engine whose jobs default to cfg (nil means
// NewConfig() defaults). Close drains it.
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
	return &Engine{
		cfg:        cfg,
		workers:    workers,
		maxPending: opt.MaxPending,
		slots:      make(chan struct{}, workers),
		pool:       &slicing.EvaluatorPool{},
		designs:    newLRU[source](cache),
		gens:       newLRU[source](cache),
	}
}

// Workers reports the bound on concurrently running jobs.
func (e *Engine) Workers() int { return e.workers }

// Stats snapshots the engine's queue, outcome counters and cache occupancy.
func (e *Engine) Stats() EngineStats {
	dLen, dHits, dMisses := e.designs.stats()
	cLen, cHits, cMisses := e.gens.stats()
	return EngineStats{
		Queued:             int(e.queued.Load()),
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
	// entries out of the LRU. admit repeats the check for the (rare) race
	// where the queue fills during prepare.
	if err := e.refusal(!bulk); err != nil {
		return nil, err
	}
	t, err := e.prepare(ctx, job)
	if err != nil {
		return nil, err
	}
	if err := e.admit(t, true, !bulk); err != nil {
		return nil, err
	}
	//hidapvet:allow gocap one goroutine per accepted job, parked on a Workers-deep slot channel and joined by Close; not per-solve fan-out
	go e.run(t, true)
	return t, nil
}

// refusal is the error that turns a job away after Close or, for a
// MaxPending-bounded submission, when the queue is full.
func (e *Engine) refusal(bounded bool) error {
	switch {
	case e.closed.Load():
		return ErrEngineClosed
	case bounded && e.maxPending > 0 && int(e.queued.Load()) >= e.maxPending:
		return ErrQueueFull
	}
	return nil
}

// admit counts a prepared ticket into the engine — into Close's drain and,
// for a job that waits for a slot, into the queue — or releases it with the
// refusal. Admitting under e.mu keeps Close, which sets closed under the
// same lock before it waits, from missing a job.
func (e *Engine) admit(t *Ticket, slot, bounded bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refusal(bounded); err != nil {
		t.cancel()
		return err
	}
	e.jobs.Add(1)
	if slot {
		e.queued.Add(1)
	}
	return nil
}

// Run executes one job synchronously on the caller's goroutine, without
// waiting for a slot, but inside the engine's caches and scratch pool.
func (e *Engine) Run(ctx context.Context, job Job) (*JobResult, error) {
	t, err := e.prepare(ctx, job)
	if err != nil {
		return nil, err
	}
	if err := e.admit(t, false, false); err != nil {
		return nil, err
	}
	e.run(t, false)
	return t.res, t.err
}

// run carries one admitted job to its end. With slot set it first waits
// for one of the Workers slots, and drops the job instead if its context
// ends first; Run's inline job starts at once.
func (e *Engine) run(t *Ticket, slot bool) {
	defer e.jobs.Done()
	if slot {
		select {
		case e.slots <- struct{}{}:
			defer func() { <-e.slots }()
		case <-t.ctx.Done():
			e.drop(t)
			return
		}
	}
	if !t.phase.CompareAndSwap(phaseQueued, phaseRunning) {
		return // Cancel dropped it first
	}
	if slot {
		e.queued.Add(-1)
	}
	e.running.Add(1)
	res, err := e.execute(t)
	e.running.Add(-1)
	e.finish(t, res, err)
}

// drop finishes a job that is still queued with its cancellation error: its
// MaxPending place frees and Wait returns without the job ever running. A
// job already running or finished is left alone.
func (e *Engine) drop(t *Ticket) {
	if !t.phase.CompareAndSwap(phaseQueued, phaseDropped) {
		return
	}
	e.queued.Add(-1)
	e.finish(t, nil, t.ctx.Err()) // both callers saw the context end
}

// finish records a job's outcome on its ticket, tallies it, and releases
// its waiters.
func (e *Engine) finish(t *Ticket, res *JobResult, err error) {
	t.res, t.err = res, err
	e.completed.Add(1)
	switch finalState(err) {
	case JobCanceled:
		e.canceled.Add(1)
	case JobFailed:
		e.failed.Add(1)
	}
	t.cancel()
	close(t.done)
}

// Close stops accepting jobs and drains every accepted one — queued,
// running, or executing inline through Run. It is idempotent and safe to
// call concurrently; all calls block until the drain completes.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed.Store(true)
	e.mu.Unlock()
	e.jobs.Wait()
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

// SubmitBatch fans a suite through the engine, one circuit job per
// (circuit, flow, seed). Repeated circuits across jobs share one cached
// design and sequential graph. ctx parents every job. A batch is exempt
// from the MaxPending bound: the whole suite is accepted atomically and
// runs at most Workers jobs at a time. A flow outside the paper's three
// refuses the batch before any job is submitted.
func (e *Engine) SubmitBatch(ctx context.Context, s Suite) (*Batch, error) {
	if len(s.Circuits) == 0 {
		return nil, errors.New("hidap: SubmitBatch needs at least one circuit")
	}
	fl := s.Flows
	if len(fl) == 0 {
		fl = []Flow{FlowIndEDA, FlowHiDaP, FlowHandFP}
	}
	for _, f := range fl {
		if _, err := flows.FlowNamed(f.Name()); err != nil {
			return nil, fmt.Errorf("hidap: %w", err)
		}
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
					Placer:  f.Name(),
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

// source yields what a job places: a design's cached artifacts and, for a
// circuit job, the generated circuit they describe (nil for design jobs).
type source func() (*core.Artifacts, *circuits.Generated)

// prepare validates a job, interns its design or circuit in the engine
// caches and wraps it in a ticket. Nothing is cached for a refused job.
func (e *Engine) prepare(ctx context.Context, job Job) (*Ticket, error) {
	if job.Design != nil && job.Circuit != nil {
		return nil, errors.New("hidap: job sets both Design and Circuit")
	}
	if job.Design == nil && job.Circuit == nil {
		return nil, errors.New("hidap: job needs a Design or a Circuit")
	}
	name := job.Placer
	if name == "" {
		name = FlowHiDaP.Name()
	}
	flow, err := flows.FlowNamed(name)
	if err != nil {
		return nil, fmt.Errorf("hidap: job placer: %w", err)
	}
	t := &Ticket{
		id:   e.nextID.Add(1),
		job:  job,
		eng:  e,
		flow: flow,
		done: make(chan struct{}),
	}
	if d := job.Design; d != nil {
		key := job.Key
		if key == "" {
			key = hashDesign(d)
		}
		t.src = e.designs.getOrCreate("design:"+key, func() source {
			art := core.NewArtifacts(d, nil)
			return func() (*core.Artifacts, *circuits.Generated) { return art, nil }
		})
	} else {
		spec := job.Circuit.Canonical()
		if err := checkSpec(spec); err != nil {
			return nil, err
		}
		// The circuit's artifacts read Gseq from the Generated, so it is
		// built once per circuit.
		t.src = e.gens.getOrCreate(fmt.Sprintf("circuit:%#v", spec), func() source {
			return sync.OnceValues(func() (*core.Artifacts, *circuits.Generated) {
				g := circuits.Generate(spec)
				return core.NewArtifacts(g.Design, g.SeqGraph), g
			})
		})
	}
	t.ctx, t.cancel = context.WithCancel(ctx)
	return t, nil
}

// Bounds on a circuit job's spec, so that a spec from an untrusted caller
// cannot make the generator build a design of any size. Each lies above
// what the paper suite at scale 1 and every test and example ask for.
const (
	maxSpecCells         = 5_000_000 // c4 at scale 1: 4.81M
	maxSpecMacros        = 1024      // suite ≤ 133; the deep_solve bench design has 400
	maxSpecSubsystems    = 64        // suite ≤ 10; deep_solve 16
	maxSpecBusWidth      = 1024      // suite ≤ 128
	maxSpecPipelineDepth = 16        // suite ≤ 3
)

// checkSpec rejects a canonical circuit spec the generator cannot build, or
// should not: no macros, a subsystem without one, or a size beyond the
// bounds above.
func checkSpec(spec circuits.Spec) error {
	bad := func(what string, v any) error {
		return fmt.Errorf("hidap: circuit spec %q: %s %v out of range", spec.Name, what, v)
	}
	switch {
	case spec.Macros <= 0:
		return fmt.Errorf("hidap: circuit spec %q has no macros (use circuits.SuiteSpec for the paper suite)", spec.Name)
	case spec.Macros > maxSpecMacros:
		return bad("macros", spec.Macros)
	case spec.Subsystems > min(spec.Macros, maxSpecSubsystems):
		return bad("subsystems", spec.Subsystems)
	case spec.ScaledCells() > maxSpecCells:
		return bad("cells/scale", spec.ScaledCells())
	case spec.BusWidth > maxSpecBusWidth:
		return bad("bus width", spec.BusWidth)
	case spec.PipelineDepth > maxSpecPipelineDepth:
		return bad("pipeline depth", spec.PipelineDepth)
	case !(spec.Utilization > 0 && spec.Utilization <= 1):
		return bad("utilization", spec.Utilization)
	}
	return nil
}

// execute runs one job on the caller's goroutine under guard, so a
// panicking job becomes a job error rather than taking down the engine. A
// failure names the job, whichever layer (engine or flow) reported it.
func (e *Engine) execute(t *Ticket) (res *JobResult, err error) {
	cfg := t.job.Config
	if cfg == nil {
		cfg = e.cfg
	}
	cc := *cfg // shallow copy: runJob edits the intent and knobs per job
	if e.workers > 1 && cc.Parallelism <= 0 {
		// The Workers slots are the outer parallelism layer: a job's own
		// scheduler defaulting to all cores would multiply into Workers ×
		// GOMAXPROCS busy goroutines. Results never depend on Parallelism.
		cc.Parallelism = 1
	}
	err = guard(t.ctx, func() (err error) {
		res, err = e.runJob(t.ctx, t, &cc)
		return err
	})
	if err != nil && t.ctx.Err() == nil {
		err = fmt.Errorf("hidap: job %d (%q): %w", t.id, t.job.Label, err)
	}
	return res, err
}

// guard runs one job: not at all when ctx is already done, and with a
// panic (a degenerate design tripping an internal invariant, or a panicking
// progress callback) turned into an error, so one bad job cannot take down
// its caller or a server built on it.
func guard(ctx context.Context, run func() error) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hidap: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return run()
}

// runJob places the job's design with its flow through flows.Place. A job
// that does not evaluate places once, at cfg.Lambda. An evaluating job runs
// flows.Measure at flows.Sweep's λ candidates, and a circuit job adds its
// Table III row. A hidap job resolves what it places — the cached artifacts
// or their autoclustered variant, with Gseq, the hierarchy tree and the
// bipartite graph built — before any placement clock starts, so
// Stats.MacroSeconds counts none of those builds on a cold job either.
// indeda and handfp jobs build none of them.
func (e *Engine) runJob(ctx context.Context, t *Ticket, cfg *Config) (*JobResult, error) {
	art, g := t.src()
	if g != nil {
		cfg.Intent = g.Intent
	}
	placed := art
	if t.flow == FlowHiDaP {
		var err error
		if placed, err = e.cluster(art, cfg.Autocluster); err != nil {
			return nil, err
		}
		placed.SeqGraph()
		placed.Tree()
		placed.Bipartite()
	}
	placeAt := func(ctx context.Context, lambda float64, pool *sched.Pool) (*Placement, Stats, error) {
		k := cfg.Knobs
		k.Lambda = lambda
		return flows.Place(ctx, placed, t.flow, cfg.Intent, flows.Options{Knobs: k, Pool: e.pool}, pool)
	}
	res := &JobResult{Label: t.job.Label}
	var err error
	if g == nil && !t.job.Evaluate {
		res.Placement, res.Stats, err = placeAt(ctx, cfg.Lambda, nil)
	} else {
		lambdas := flows.Sweep(t.flow.Name(), &cfg.Knobs, t.job.Lambdas, g != nil)
		res.Placement, res.Stats, res.Report, err = flows.Measure(ctx, art, lambdas, cfg.Parallelism, placeAt)
	}
	switch {
	case err != nil:
		return nil, err
	case g != nil:
		res.Metrics = &FlowMetrics{Circuit: g.Spec.Name, Flow: t.flow, Report: *res.Report}
		res.Report = &res.Metrics.Report
	}
	if res.Report != nil {
		res.Report.Label = t.job.Label
	}
	return res, nil
}

// cluster returns the artifacts a hidap job places: art itself, or art's
// autoclustered variant under p when p is set, with the outcome (a cache
// hit, a no-op pass-through or a fresh synthesis) tallied into the engine
// counters.
func (e *Engine) cluster(art *core.Artifacts, p *AutoclusterParams) (*core.Artifacts, error) {
	if p == nil {
		return art, nil
	}
	v, stats, fresh, err := art.Cluster(*p)
	if err != nil {
		return nil, err
	}
	switch {
	case !fresh:
		e.acHits.Add(1)
	case stats.NoOp:
		e.acNoop.Add(1)
	default:
		e.acRuns.Add(1)
		e.acClusters.Add(uint64(stats.Clusters))
		e.acLevels.Add(uint64(stats.Levels))
	}
	return v, nil
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
