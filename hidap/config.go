package hidap

import (
	"fmt"

	"repro/internal/autocluster"
	"repro/internal/core"
)

// AutoclusterParams are the hierarchy-synthesis knobs of the autoclustering
// front-end (see internal/autocluster): per-cluster instance and macro
// bounds, coarsening ratio, level cap and tolerance, mirroring the
// rtl_macro_placer knob set of OpenROAD's Hier-RTLMP.
type AutoclusterParams = autocluster.Params

// DefaultAutocluster returns the default autoclustering knobs.
func DefaultAutocluster() AutoclusterParams { return autocluster.DefaultParams() }

// Progress aliases: the per-level and flipping events delivered to a
// WithProgress callback while a job places.
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
)

// Knobs are the HiDaP parameters — λ, k, effort, parallelism, seed, trace,
// flat and progress — declared once in the internal flow and embedded in
// Config. Parallelism sizes the scheduler that a placement's sibling
// hierarchy subtrees (and an evaluating job's λ candidates) run on.
type Knobs = core.Knobs

// Config parameterizes Engine jobs: the engine's default for every job
// (NewEngine) or one job's own (Job.Config). Build one with NewConfig and
// functional options; the zero value is not a valid configuration.
type Config struct {
	// Knobs are the HiDaP parameters. Parallelism trades wall time only,
	// never the result; Progress streams per-level events so a server can
	// report status for long runs.
	Knobs
	// Intent maps macro names to intended outlines; required by the
	// "handfp" flow, ignored by the others. A circuit job uses its
	// circuit's intent instead.
	Intent Intent
	// Autocluster, when set, runs the hierarchy-synthesis front-end before
	// HiDaP placement: flat (or badly shaped) netlists get a synthesized
	// physical hierarchy honoring the given bounds; well-shaped ones pass
	// through untouched. Engines cache the clustered design per
	// (design, params). Read only by the "hidap" flow.
	Autocluster *AutoclusterParams
}

// Option mutates a Config under construction.
type Option func(*Config)

// NewConfig returns the paper's default parameters (λ=0.5, k=2, medium
// effort, seed 0) with the given options applied.
func NewConfig(opts ...Option) *Config {
	c := &Config{Knobs: core.DefaultKnobs()}
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

// ParseEffort maps an effort name to its Effort. It accepts exactly "low",
// "medium" and "high"; any other value is an error that names it.
func ParseEffort(s string) (Effort, error) {
	switch s {
	case "low":
		return EffortLow, nil
	case "medium":
		return EffortMedium, nil
	case "high":
		return EffortHigh, nil
	}
	return 0, fmt.Errorf("unknown effort %q (want low, medium or high)", s)
}

// WithSeed seeds every stochastic step of the run.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithParallelism sizes the work-stealing scheduler of the run (1 = one lane
// on the calling goroutine, <= 0 = all cores). It affects wall time only;
// the placement never depends on it.
func WithParallelism(n int) Option { return func(c *Config) { c.Parallelism = n } }

// WithTrace records the per-level block floorplans into Stats.Trace.
func WithTrace() Option { return func(c *Config) { c.Trace = true } }

// WithFlat disables the multi-level recursion (ablation of the paper's
// first contribution).
func WithFlat() Option { return func(c *Config) { c.Flat = true } }

// WithIntent supplies the designer intent consumed by the "handfp" flow.
func WithIntent(intent Intent) Option { return func(c *Config) { c.Intent = intent } }

// WithProgress registers a progress callback for the run.
func WithProgress(fn ProgressFunc) Option { return func(c *Config) { c.Progress = fn } }

// WithAutocluster enables the autoclustering front-end with the given knobs
// (DefaultAutocluster() for the defaults). Flat netlists are re-hierarchized
// before placement; already well-shaped ones pass through as a no-op.
func WithAutocluster(p AutoclusterParams) Option {
	return func(c *Config) { c.Autocluster = &p }
}
