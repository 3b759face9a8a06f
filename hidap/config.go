package hidap

import (
	"repro/internal/autocluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/seqgraph"
	"repro/internal/slicing"
)

// AutoclusterParams are the hierarchy-synthesis knobs of the autoclustering
// front-end (see internal/autocluster): per-cluster instance and macro
// bounds, coarsening ratio, level cap and tolerance, mirroring the
// rtl_macro_placer knob set of OpenROAD's Hier-RTLMP.
type AutoclusterParams = autocluster.Params

// DefaultAutocluster returns the default autoclustering knobs.
func DefaultAutocluster() AutoclusterParams { return autocluster.DefaultParams() }

// Progress aliases: the per-level / per-candidate events delivered to a
// WithProgress callback while a placer runs.
type (
	// Progress is one event of a running placement.
	Progress = core.Progress
	// ProgressFunc receives progress events; callbacks must be fast and
	// may be invoked from the goroutine running the placement.
	ProgressFunc = core.ProgressFunc
)

// Progress stages.
const (
	// StageLevel reports one floorplanned recursion level.
	StageLevel = core.StageLevel
	// StageFlips reports the macro-flipping post-process.
	StageFlips = core.StageFlips
	// StageCandidate reports one evaluated candidate of a multi-candidate
	// run.
	StageCandidate = core.StageCandidate
)

// Config parameterizes a Placer run. Build one with NewConfig and functional
// options; the zero value is not a valid configuration.
type Config struct {
	// Lambda blends block flow (λ) against macro flow (1−λ); the paper
	// evaluates λ ∈ {0.2, 0.5, 0.8}.
	Lambda float64
	// K is the latency decay exponent of the affinity score (paper: 2).
	K float64
	// Effort selects the annealing budget.
	Effort Effort
	// Restarts runs this many independent annealing chains per
	// floorplanning level, keeping the best layout (<= 1 means one chain).
	// The placement is a pure function of (Seed, Restarts) regardless of
	// Parallelism.
	Restarts int
	// Parallelism sizes the work-stealing scheduler a run's whole solve
	// DAG — sibling hierarchy subtrees, per-level restart chains, and (in
	// harness runs) placement candidates — drains through: 1 keeps the run
	// on the calling goroutine, <= 0 uses all cores. It trades wall time
	// only, never the result.
	Parallelism int
	// Seed drives all stochastic steps; equal seeds give equal placements.
	Seed int64
	// Trace records the per-level block floorplans (Fig. 1 evolution) into
	// Stats.Trace.
	Trace bool
	// Flat disables the multi-level recursion (the paper's ablation).
	Flat bool
	// Intent maps macro names to intended outlines; required by the
	// "handfp" placer, ignored by the others.
	Intent Intent
	// Progress, when set, streams per-level (and, in harness runs,
	// per-candidate) events so a server can report status for long runs.
	Progress ProgressFunc
	// Autocluster, when set, runs the hierarchy-synthesis front-end before
	// HiDaP placement: flat (or badly shaped) netlists get a synthesized
	// physical hierarchy honoring the given bounds; well-shaped ones pass
	// through untouched. Engines cache the clustered design per
	// (design, params). Ignored by the "indeda" and "handfp" placers, which
	// never read the hierarchy.
	Autocluster *AutoclusterParams

	// seqGraph, tree, bipartite and pool are warm-cache plumbing set by an
	// Engine before it hands the config to a placer: prebuilt per-design
	// artifacts (Gseq, hierarchy tree, cell–net bipartite graph) and the
	// engine's shared annealing-scratch pool. Never set on configs built by
	// callers.
	seqGraph  *seqgraph.Graph
	tree      *hier.Tree
	bipartite *graph.Bipartite
	pool      *slicing.EvaluatorPool
}

// Option mutates a Config under construction.
type Option func(*Config)

// NewConfig returns the paper's default parameters (λ=0.5, k=2, medium
// effort, seed 0) with the given options applied.
func NewConfig(opts ...Option) *Config {
	base := core.DefaultOptions()
	c := &Config{Lambda: base.Lambda, K: base.K, Effort: base.Effort}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithLambda sets the block-flow/macro-flow blend λ (0 = macro flow only,
// 1 = block flow only).
func WithLambda(lambda float64) Option { return func(c *Config) { c.Lambda = lambda } }

// WithK sets the latency decay exponent of the affinity score.
func WithK(k float64) Option { return func(c *Config) { c.K = k } }

// WithEffort selects the annealing budget.
func WithEffort(e Effort) Option { return func(c *Config) { c.Effort = e } }

// WithSeed seeds every stochastic step of the run.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithRestarts runs k independent annealing chains per floorplanning level
// and keeps the best layout. The result is a pure function of (seed, k).
func WithRestarts(k int) Option { return func(c *Config) { c.Restarts = k } }

// WithParallelism sizes the work-stealing scheduler of the run (1 = fully
// serial, <= 0 = all cores). It affects wall time only; the placement never
// depends on it.
func WithParallelism(n int) Option { return func(c *Config) { c.Parallelism = n } }

// WithTrace records the per-level block floorplans into Stats.Trace.
func WithTrace() Option { return func(c *Config) { c.Trace = true } }

// WithFlat disables the multi-level recursion (ablation of the paper's
// first contribution).
func WithFlat() Option { return func(c *Config) { c.Flat = true } }

// WithIntent supplies the designer intent consumed by the "handfp" placer.
func WithIntent(intent Intent) Option { return func(c *Config) { c.Intent = intent } }

// WithProgress registers a progress callback for the run.
func WithProgress(fn ProgressFunc) Option { return func(c *Config) { c.Progress = fn } }

// WithAutocluster enables the autoclustering front-end with the given knobs
// (DefaultAutocluster() for the defaults). Flat netlists are re-hierarchized
// before placement; already well-shaped ones pass through as a no-op.
func WithAutocluster(p AutoclusterParams) Option {
	return func(c *Config) { c.Autocluster = &p }
}

// coreOptions lowers a Config to the internal HiDaP flow options.
func (c *Config) coreOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Lambda = c.Lambda
	if c.K != 0 {
		opt.K = c.K
	}
	opt.Effort = c.Effort
	opt.Restarts = c.Restarts
	opt.Parallelism = c.Parallelism
	opt.Seed = c.Seed
	opt.Trace = c.Trace
	opt.Flat = c.Flat
	opt.Progress = c.Progress
	opt.SeqGraph = c.seqGraph
	opt.Tree = c.tree
	opt.Bipartite = c.bipartite
	opt.Pool = c.pool
	return opt
}
