package hidap

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/seqgraph"
)

// SeqStats is the sequential-graph size summary (Table I).
type SeqStats = seqgraph.Stats

// Stats is the bookkeeping of one Placer run; an evaluating Engine job
// copies it onto its Report.
type Stats = flows.Stats

// Placer is a macro-placement flow behind the uniform entry point. The
// package registers its three flows ("hidap", "indeda", "handfp"); third
// parties add their own with Register and select them by name via Lookup.
type Placer interface {
	// Name is the registry key of the flow.
	Name() string
	// Place produces a macro placement for the design. Ports are fixed by
	// the design; standard cells are left to an evaluating Engine job,
	// which places and measures them after Place returns. A nil cfg
	// means NewConfig() defaults. A cancelled or expired ctx aborts the
	// run promptly and returns ctx.Err().
	Place(ctx context.Context, d *Design, cfg *Config) (*Placement, Stats, error)
}

// PlacerFunc adapts a placement function to the Placer interface. The
// returned placer's Place calls fn directly: it returns ctx.Err() without
// starting when ctx is already done, and turns a panic in fn into an error.
// A one-shot Place is cold — it builds every per-design artifact itself;
// run jobs on an Engine to reuse warm caches across placements.
func PlacerFunc(name string, fn func(ctx context.Context, d *Design, cfg *Config) (*Placement, Stats, error)) Placer {
	return placerFunc{name: name, fn: fn}
}

type placerFunc struct {
	name string
	fn   func(ctx context.Context, d *Design, cfg *Config) (*Placement, Stats, error)
}

func (p placerFunc) Name() string { return p.name }

func (p placerFunc) Place(ctx context.Context, d *Design, cfg *Config) (pl *Placement, stats Stats, err error) {
	if cfg == nil {
		cfg = NewConfig()
	}
	err = guard(ctx, fmt.Sprintf("placer %q", p.name), func() (err error) {
		pl, stats, err = p.fn(ctx, d, cfg)
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return pl, stats, nil
}

// guard runs one placement call: not at all when ctx is already done, and
// with a panic (a degenerate design tripping an internal invariant) turned
// into an error naming what panicked, so one bad call cannot take down its
// caller or a server built on it.
func guard(ctx context.Context, what string, run func() error) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hidap: %s panicked: %v\n%s", what, r, debug.Stack())
		}
	}()
	return run()
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Placer{}
)

// Register adds a placer to the registry. Registering an empty or duplicate
// name is an error, so flows cannot silently shadow each other.
func Register(p Placer) error {
	name := p.Name()
	if name == "" {
		return fmt.Errorf("hidap: placer has empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("hidap: placer %q already registered", name)
	}
	registry[name] = p
	return nil
}

// MustRegister is Register, panicking on error; for use from init functions.
func MustRegister(p Placer) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Lookup returns the placer registered under name.
func Lookup(name string) (Placer, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	p, ok := registry[name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("hidap: unknown placer %q (registered: %v)", name, names)
	}
	return p, nil
}

// Placers lists the registered placer names, sorted.
func Placers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	MustRegister(flowPlacer(FlowHiDaP))
	MustRegister(flowPlacer(FlowIndEDA))
	MustRegister(flowPlacer(FlowHandFP))
}

// flowPlacer is the placer, registered under flow.Name(), that places
// through flows.Place with flow: "hidap" runs the paper's flow (hierarchy
// tree, shape curves, recursive dataflow-driven block floorplanning, macro
// flipping), "indeda" the industrial baseline at high effort unless
// cfg.Effort is low (circuit jobs always run it at high effort), and
// "handfp" realizes the designer intent supplied via WithIntent. On an
// Engine job the hidap flow reads the job's cached artifacts (and
// autoclustered variant), the engine's scratch pool and the scheduler of
// the job's λ candidates; one-shot, a throwaway handle builds them cold.
func flowPlacer(flow Flow) Placer {
	return PlacerFunc(flow.Name(), func(ctx context.Context, d *Design, cfg *Config) (*Placement, Stats, error) {
		// The handle describes the job's design; a plug-in wrapping this
		// placer on another design places that one cold.
		w := cfg.warm
		if w == nil || w.art.Design() != d {
			w = (*Engine)(nil).warm(core.NewArtifacts(d, nil), cfg)
		}
		art := w.art
		if flow == FlowHiDaP {
			var err error
			if art, err = w.hidap(); err != nil {
				return nil, Stats{}, err
			}
		}
		opt := flows.Options{Knobs: cfg.Knobs}
		if w.eng != nil {
			opt.Pool = w.eng.pool
		}
		return flows.Place(ctx, art, flow, cfg.Intent, opt, w.sched)
	})
}
