// Package flows runs the three macro-placement flows of the paper's
// evaluation end to end — macro placement, standard-cell placement,
// wirelength / congestion / timing measurement — and assembles the rows of
// Tables II and III. All flows place their macros through Place and share
// the same cell placer and the eval measurement pipeline, mirroring §V
// ("Metrics are taken after placement of standard cells using the same tool
// as IndEDA").
package flows

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/handfp"
	"repro/internal/indeda"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/seqgraph"
	"repro/internal/slicing"
)

// Flow names a macro-placement flow.
type Flow string

const (
	// FlowIndEDA is the industrial-floorplanner baseline.
	FlowIndEDA Flow = "IndEDA"
	// FlowHiDaP is the paper's flow (best wirelength of three λ).
	FlowHiDaP Flow = "HiDaP"
	// FlowHandFP is the handcrafted-floorplan oracle.
	FlowHandFP Flow = "handFP"
)

// Name is the flow's registry name — "indeda", "hidap" or "handfp" — and
// the Placer its Stats and measured Reports carry.
func (f Flow) Name() string { return strings.ToLower(string(f)) }

// Options configures a flow run.
type Options struct {
	// Knobs are HiDaP's λ, k, seed, effort, parallelism, trace, flat and
	// progress switches. Seed drives every flow's stochastic stages; IndEDA
	// reads Effort too. Place places at Lambda; Run sweeps Lambdas instead
	// and returns neither a trace nor progress, so it ignores Lambda, Trace
	// and Progress. Parallelism sizes the one work-stealing scheduler the
	// whole HiDaP solve DAG drains through: candidates (one per λ) and the
	// sibling hierarchy subtrees inside each placement are tasks of the
	// same pool, so the machine stays busy without one layer multiplying
	// goroutines into the other.
	core.Knobs
	// Lambdas are the HiDaP blend values Run tries (the best post-placement
	// wirelength wins); empty means the paper's 0.2, 0.5 and 0.8.
	Lambdas []float64
	// Pool, when set, shares annealing scratch (incremental slicing
	// evaluators) across candidates and runs; a serving engine passes its
	// per-engine pool here so back-to-back jobs run allocation-warm.
	Pool *slicing.EvaluatorPool
	// Artifacts, when set, supply the design Run's HiDaP flow places and its
	// Gseq, tree and bipartite graph: the artifacts of g.Design, or of its
	// autoclustered variant (Artifacts.Cluster) to place on a synthesized
	// hierarchy. Nil builds one set from g.Design and g.SeqGraph per Run,
	// shared by every λ candidate. IndEDA and handFP ignore it.
	Artifacts *core.Artifacts
}

// paperLambdas are the λ values the paper's evaluation tries (§V).
var paperLambdas = []float64{0.2, 0.5, 0.8}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{
		Knobs:   core.DefaultKnobs(),
		Lambdas: slices.Clone(paperLambdas),
	}
}

// Stats is the bookkeeping of one macro placement.
type Stats struct {
	// Placer names the flow that produced the placement (Flow.Name).
	Placer string
	// MacroSeconds is the wall time of macro placement alone: cell
	// placement and measurement are not in it. A Run HiDaP row times the
	// macro placement of all its λ candidates, each a full placement the
	// row paid for, before any of them is cell-placed.
	MacroSeconds float64
	// Levels counts floorplanned recursion levels (HiDaP).
	Levels int
	// Flips counts orientation changes of the flipping post-process.
	Flips int
	// Lambda is the dataflow blend of the run (HiDaP).
	Lambda float64
	// SeqStats reports the Gseq size (HiDaP).
	SeqStats seqgraph.Stats
	// Trace lists the per-level block floorplans when Knobs.Trace is set.
	Trace []core.LevelTrace
}

// Annotate copies the run bookkeeping onto a measurement report, fusing
// "what the placer did" with "how good the placement is" into the single
// record a server or the bench harness emits.
func (s Stats) Annotate(r *eval.Report) {
	r.Placer = s.Placer
	r.MacroSeconds = s.MacroSeconds
	r.Levels = s.Levels
	r.Flips = s.Flips
	r.Lambda = s.Lambda
	if s.SeqStats.Nodes > 0 {
		r.SeqNodes = s.SeqStats.Nodes
		r.SeqEdges = s.SeqStats.Edges
	}
}

// Metrics is one row of Table III: the uniform eval.Report of the run plus
// the suite bookkeeping (circuit, flow, normalized wirelength).
type Metrics struct {
	Circuit string `json:"circuit"`
	Flow    Flow   `json:"flow"`
	eval.Report
	// WLnorm is WirelengthM normalized to the circuit's handFP flow (set
	// by Normalize; 0 when the circuit has no handFP reference row).
	WLnorm float64 `json:"wl_norm,omitempty"`
}

// Place places the macros of art's design with one flow, leaving standard
// cells to the cell placer. HiDaP places at opt.Lambda under the rest of
// opt.Knobs, reading Gseq, the tree and the bipartite graph from art and
// annealing scratch from opt.Pool; IndEDA runs at high effort unless
// opt.Effort is low; handFP realizes intent, and fails without one. All
// three read opt.Seed. A cancelled ctx aborts the run and returns
// ctx.Err().
func Place(ctx context.Context, art *core.Artifacts, flow Flow, intent handfp.Intent, opt Options) (*placement.Placement, Stats, error) {
	return placeOn(ctx, art, flow, intent, opt, nil)
}

// placeOn is Place with HiDaP's solve DAG forked onto pool (nil: a pool of
// opt.Parallelism lanes for this call).
func placeOn(ctx context.Context, art *core.Artifacts, flow Flow, intent handfp.Intent, opt Options, pool *sched.Pool) (*placement.Placement, Stats, error) {
	start := time.Now()
	st := Stats{Placer: flow.Name()}
	var pl *placement.Placement
	var err error
	switch flow {
	case FlowHiDaP:
		var res *core.Result
		res, err = art.Place(ctx, core.Options{Knobs: opt.Knobs, Pool: opt.Pool, Sched: pool})
		if err == nil {
			pl = res.Placement
			st.Levels, st.Flips, st.Lambda = res.Levels, res.Flips, opt.Lambda
			st.SeqStats, st.Trace = res.SeqStats, res.Trace
		}
	case FlowIndEDA:
		pl, err = indeda.Place(ctx, art.Design(), indeda.Options{
			Seed:       opt.Seed,
			HighEffort: opt.Effort != layout.EffortLow,
			WallWeight: 0.4,
		})
	case FlowHandFP:
		if intent == nil {
			return nil, Stats{}, fmt.Errorf("flows: %s needs a designer intent", flow)
		}
		pl, err = handfp.Place(ctx, art.Design(), intent, handfp.Options{Seed: opt.Seed})
	default:
		return nil, Stats{}, fmt.Errorf("flows: unknown flow %q", flow)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	st.MacroSeconds = time.Since(start).Seconds()
	return pl, st, nil
}

// Run executes one flow on a generated circuit and measures it. IndEDA
// always runs at the paper's high effort, whatever opt.Effort says (Place
// follows opt.Effort instead). HiDaP places once per opt.Lambdas entry and
// keeps the lowest post-placement wirelength, so Run ignores opt.Lambda;
// it returns no trace and streams no progress, so it ignores opt.Trace and
// opt.Progress too. A cancelled ctx aborts macro placement, candidate
// evaluation and cell placement promptly and returns ctx.Err().
func Run(ctx context.Context, g *circuits.Generated, flow Flow, opt Options) (*Metrics, *placement.Placement, error) {
	if len(opt.Lambdas) == 0 {
		opt.Lambdas = paperLambdas
	}
	opt.Trace, opt.Progress = false, nil
	if flow == FlowIndEDA {
		opt.Effort = layout.EffortHigh
	}

	var pl *placement.Placement
	var st Stats
	var err error
	if flow == FlowHiDaP {
		art := opt.Artifacts
		if art == nil {
			art = core.NewArtifacts(g.Design, g.SeqGraph)
		}
		pl, st, err = runHiDaP(ctx, art, opt)
	} else {
		pl, st, err = Place(ctx, core.NewArtifacts(g.Design, g.SeqGraph), flow, g.Intent, opt)
		if err == nil {
			err = place.Run(ctx, pl, place.DefaultOptions())
		}
	}
	if err != nil {
		return nil, nil, err
	}

	m, err := measure(ctx, g, flow, pl)
	if err != nil {
		return nil, nil, err
	}
	m.MacroSeconds = st.MacroSeconds
	m.Lambda = st.Lambda
	return m, pl, nil
}

// runHiDaP evaluates every λ candidate on one shared work-stealing pool —
// candidates and their hierarchy subtrees are all tasks of the same
// scheduler — and keeps the lowest post-placement wirelength. Selection
// scans candidates in λ order, so the result is identical at any
// Parallelism. It runs in two groups on that pool: every candidate's macro
// placement, then every candidate's cell placement and wirelength. The
// returned Stats carry the winner's λ and, as MacroSeconds, the wall time
// of the first group. Per-candidate timers would not do: a candidate
// waiting on its subtrees helps run the other candidates' tasks inside its
// own interval, so their sum counts work several times.
func runHiDaP(ctx context.Context, art *core.Artifacts, opt Options) (*placement.Placement, Stats, error) {
	type candidate struct {
		lambda float64
		pl     *placement.Placement
		wl     float64
		err    error
	}
	cands := make([]candidate, len(opt.Lambdas))
	for i, lambda := range opt.Lambdas {
		cands[i].lambda = lambda
	}
	// One pool for the whole run: candidate tasks fork subtree tasks onto
	// the same lanes, so an idle lane always finds work in some layer
	// instead of waiting for its own layer to produce more.
	pool := sched.NewPool(opt.Parallelism)
	defer pool.Close()

	// forEach runs step on every candidate still without an error and waits;
	// a cancelled ctx drains, and per-candidate errors are scanned below.
	forEach := func(step func(ctx context.Context, c *candidate)) {
		grp := pool.Group(ctx)
		for i := range cands {
			c := &cands[i]
			grp.Go(func(ctx context.Context) {
				if c.err == nil {
					if c.err = ctx.Err(); c.err == nil {
						step(ctx, c)
					}
				}
			})
		}
		grp.Wait()
	}
	start := time.Now()
	forEach(func(ctx context.Context, c *candidate) {
		o := opt
		o.Lambda = c.lambda
		c.pl, _, c.err = placeOn(ctx, art, FlowHiDaP, nil, o, pool)
	})
	secs := time.Since(start).Seconds()
	forEach(func(ctx context.Context, c *candidate) {
		if c.err = place.Run(ctx, c.pl, place.DefaultOptions()); c.err == nil {
			c.wl = metrics.WirelengthMeters(c.pl)
		}
	})
	best := -1
	for i := range cands {
		if cands[i].err != nil {
			return nil, Stats{}, cands[i].err
		}
		if best < 0 || cands[i].wl < cands[best].wl {
			best = i
		}
	}
	return cands[best].pl, Stats{MacroSeconds: secs, Lambda: cands[best].lambda}, nil
}

// measure computes the Table III metric columns for a fully placed design
// through the shared eval pipeline: congestion and timing at its defaults,
// with the wire delay calibrated to each die (see eval.CalibrateSTA).
func measure(ctx context.Context, g *circuits.Generated, flow Flow, pl *placement.Placement) (*Metrics, error) {
	rep, err := eval.Evaluate(ctx, g.Design, pl, eval.Options{Graph: g.SeqGraph()})
	if err != nil {
		return nil, err
	}
	rep.Placer = flow.Name()
	return &Metrics{Circuit: g.Spec.Name, Flow: flow, Report: *rep}, nil
}

// Normalize fills WLnorm on a result set: each circuit's rows are divided
// by its handFP wirelength (handFP rows get exactly 1.000).
func Normalize(rows []*Metrics) {
	ref := map[string]float64{}
	for _, r := range rows {
		if r.Flow == FlowHandFP {
			ref[r.Circuit] = r.WirelengthM
		}
	}
	for _, r := range rows {
		if base := ref[r.Circuit]; base > 0 {
			r.WLnorm = r.WirelengthM / base
		}
	}
}

// Summary is one row of Table II.
type Summary struct {
	Flow Flow `json:"flow"`
	// WLGeoMean is the geometric mean of WLnorm over the circuits that have
	// a handFP reference (0 when none do).
	WLGeoMean float64 `json:"wl_geomean"`
	// WNSMean is the arithmetic mean of WNS% over the suite.
	WNSMean float64 `json:"wns_mean_pct"`
	// Effort describes the solution cost: the paper's wording plus the
	// flow's summed MacroSeconds, measured as wall time here.
	Effort string `json:"effort"`
}

// Summarize aggregates per-circuit rows into Table II.
func Summarize(rows []*Metrics) []Summary {
	effortNote := map[Flow]string{
		FlowIndEDA: "tool run (paper: 10-30 mins CPU)",
		FlowHiDaP:  "tool run (paper: 0.5-2 hours CPU)",
		FlowHandFP: "planted intent + refine (paper: 2-4 weeks engineers)",
	}
	var out []Summary
	for _, f := range []Flow{FlowIndEDA, FlowHiDaP, FlowHandFP} {
		var norms []float64
		var wnsSum, secs float64
		n := 0
		for _, r := range rows {
			if r.Flow != f {
				continue
			}
			// A circuit without a handFP reference row leaves WLnorm unset
			// (0). Feeding that zero into the geometric mean would collapse
			// the whole aggregate to 0, so unset norms are skipped; the row
			// still contributes to the WNS mean and wall-time total.
			if r.WLnorm > 0 {
				norms = append(norms, r.WLnorm)
			}
			wnsSum += r.WNSPct
			secs += r.MacroSeconds
			n++
		}
		if n == 0 {
			continue
		}
		out = append(out, Summary{
			Flow:      f,
			WLGeoMean: metrics.GeoMean(norms),
			WNSMean:   wnsSum / float64(n),
			Effort:    fmt.Sprintf("%.1fs wall here; %s", secs, effortNote[f]),
		})
	}
	return out
}

// WriteCSV emits the result rows as CSV (one line per circuit × flow),
// suitable for spreadsheet import or plotting.
func WriteCSV(w io.Writer, rows []*Metrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"circuit", "flow", "wl_m", "wl_norm", "grc_pct", "wns_pct", "tns_ns", "macro_seconds", "lambda",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Circuit, string(r.Flow),
			fmt.Sprintf("%.6f", r.WirelengthM),
			fmt.Sprintf("%.4f", r.WLnorm),
			fmt.Sprintf("%.3f", r.CongestionPct),
			fmt.Sprintf("%.2f", r.WNSPct),
			fmt.Sprintf("%.2f", r.TNSns),
			fmt.Sprintf("%.2f", r.MacroSeconds),
			fmt.Sprintf("%.1f", r.Lambda),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
