// Package flows runs the three macro-placement flows of the paper's
// evaluation end to end — macro placement, standard-cell placement,
// wirelength / congestion / timing measurement — and assembles the rows of
// Tables II and III. All flows place their macros through Place, and every
// measured placement, a Table row or an evaluating engine job, goes through
// Measure: the same cell placer and the same eval measurement, mirroring
// §V ("Metrics are taken after placement of standard cells using the same
// tool as IndEDA").
package flows

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"runtime/debug"
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

// Name is the flow's lower-case name — "indeda", "hidap" or "handfp" — by
// which an engine job selects it and which its Stats and measured Reports
// carry as their Placer.
func (f Flow) Name() string { return strings.ToLower(string(f)) }

// FlowNamed returns the flow whose Name is name, and an error for any name
// outside the paper's three flows.
func FlowNamed(name string) (Flow, error) {
	for _, f := range []Flow{FlowIndEDA, FlowHiDaP, FlowHandFP} {
		if f.Name() == name {
			return f, nil
		}
	}
	return "", fmt.Errorf("unknown flow %q (want hidap, indeda or handfp)", name)
}

// Options configures a flow run.
type Options struct {
	// Knobs are HiDaP's λ, k, seed, effort, parallelism, trace, flat and
	// progress switches. Seed drives every flow's stochastic stages; IndEDA
	// reads Effort too. Place places at Lambda; Run places at Sweep's λ
	// candidates instead. Parallelism sizes the one work-stealing scheduler
	// the whole HiDaP solve DAG drains through: candidates (one per λ) and
	// the sibling hierarchy subtrees inside each placement are tasks of the
	// same pool, so the machine stays busy without one layer multiplying
	// goroutines into the other.
	core.Knobs
	// Lambdas are the HiDaP blend values Run sweeps (the best post-placement
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

// DefaultOptions mirrors the paper's setup: its knobs, and Run sweeping
// its three λ.
func DefaultOptions() Options { return Options{Knobs: core.DefaultKnobs()} }

// Stats is the bookkeeping of one macro placement.
type Stats struct {
	// Placer names the flow that produced the placement (Flow.Name).
	Placer string
	// MacroSeconds is the wall time of macro placement alone, never of
	// cell placement or measurement; an engine job builds what it places
	// from (the autoclustered variant, Gseq, the hierarchy tree, the
	// bipartite graph) before its clock starts, so a design's first job
	// reports what later ones do. Measure times the macro placement of all
	// its λ candidates together, before any of them is cell-placed. Run
	// builds nothing up front: its first HiDaP candidate builds whichever
	// of Gseq, the tree and the bipartite graph is not built yet.
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

// annotate copies the run bookkeeping onto a measurement report, fusing
// "what the placer did" with "how good the placement is" into the single
// record a server or the bench harness emits.
func (s Stats) annotate(r *eval.Report) {
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
// annealing scratch from opt.Pool, and forks its solve DAG onto pool (nil:
// a pool of opt.Parallelism lanes for this call); IndEDA runs at high
// effort unless opt.Effort is low; handFP realizes intent, and fails
// without one. All three read opt.Seed. A cancelled ctx aborts the run and
// returns ctx.Err().
func Place(ctx context.Context, art *core.Artifacts, flow Flow, intent handfp.Intent, opt Options, pool *sched.Pool) (*placement.Placement, Stats, error) {
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

// Sweep applies the evaluation policies to a measured run of the placer
// named placer, on a generated circuit when circuit is set, and returns the
// λ candidates Measure places. HiDaP sweeps lambdas; when that is empty, a
// circuit run sweeps the paper's three values and any other run places at
// k.Lambda. Every other placer places once, at k.Lambda. A circuit run's
// IndEDA runs at high effort. A sweep of more than one λ returns no trace
// and streams no progress.
func Sweep(placer string, k *core.Knobs, lambdas []float64, circuit bool) []float64 {
	if circuit && placer == FlowIndEDA.Name() {
		k.Effort = layout.EffortHigh
	}
	switch {
	case placer != FlowHiDaP.Name(), len(lambdas) == 0 && !circuit:
		return []float64{k.Lambda}
	case len(lambdas) == 0:
		lambdas = paperLambdas
	}
	if len(lambdas) > 1 {
		k.Trace, k.Progress = false, nil
	}
	return lambdas
}

// PlaceFunc places a design's macros at lambda, forking any parallel work
// onto pool.
type PlaceFunc func(ctx context.Context, lambda float64, pool *sched.Pool) (*placement.Placement, Stats, error)

// Measure is the one pipeline of every measured placement. It places one
// candidate per λ of lambdas (at least one) with placeAt, all on one
// work-stealing pool of parallelism lanes that their hierarchy subtrees
// fork onto too, cell-places each, and keeps the lowest wirelength,
// scanning in λ order so the winner is the same at any parallelism. It
// measures the winner through eval.Evaluate with art's Gseq and annotates
// the Report with the winner's Stats. Their MacroSeconds is the wall time
// of all candidates' macro placement: a candidate waiting on its subtrees
// runs other candidates' tasks, so per-candidate timers would count work
// several times. A panicking candidate fails the run. A cancelled ctx
// aborts every stage promptly and returns ctx.Err().
func Measure(ctx context.Context, art *core.Artifacts, lambdas []float64, parallelism int, placeAt PlaceFunc) (*placement.Placement, Stats, *eval.Report, error) {
	type candidate struct {
		pl  *placement.Placement
		st  Stats
		wl  float64
		err error
	}
	cands := make([]candidate, len(lambdas))
	pool := sched.NewPool(parallelism)
	defer pool.Close()

	// forEach runs step on every candidate still without an error and waits;
	// a cancelled ctx drains, and per-candidate errors are scanned below.
	forEach := func(step func(ctx context.Context, i int) error) {
		grp := pool.Group(ctx)
		for i := range cands {
			c := &cands[i]
			grp.Go(func(ctx context.Context) {
				defer func() {
					if r := recover(); r != nil {
						c.err = fmt.Errorf("flows: candidate λ %v panicked: %v\n%s", lambdas[i], r, debug.Stack())
					}
				}()
				if c.err == nil {
					if c.err = ctx.Err(); c.err == nil {
						c.err = step(ctx, i)
					}
				}
			})
		}
		grp.Wait()
	}
	start := time.Now()
	forEach(func(ctx context.Context, i int) (err error) {
		cands[i].pl, cands[i].st, err = placeAt(ctx, lambdas[i], pool)
		return err
	})
	secs := time.Since(start).Seconds()
	forEach(func(ctx context.Context, i int) error {
		c := &cands[i]
		if err := place.Run(ctx, c.pl, place.DefaultOptions()); err != nil {
			return err
		}
		c.wl = metrics.WirelengthMeters(c.pl)
		return nil
	})
	best := -1
	for i := range cands {
		if cands[i].err != nil {
			return nil, Stats{}, nil, cands[i].err
		}
		if best < 0 || cands[i].wl < cands[best].wl {
			best = i
		}
	}
	win := cands[best]
	win.st.MacroSeconds = secs
	// Measure against the design the placement was made on: an
	// autoclustered variant shares its cells, nets and Gseq with art.
	rep, err := eval.Evaluate(ctx, win.pl.D, win.pl, eval.Options{Graph: art.SeqGraph()})
	if err != nil {
		return nil, Stats{}, nil, err
	}
	win.st.annotate(rep)
	return win.pl, win.st, rep, nil
}

// Run executes one flow on a generated circuit through Measure, under
// Sweep's circuit policies, and returns its Table III row. HiDaP places the
// design of opt.Artifacts when set; IndEDA and handFP place g.Design, and
// handFP realizes g.Intent.
func Run(ctx context.Context, g *circuits.Generated, flow Flow, opt Options) (*Metrics, *placement.Placement, error) {
	art := opt.Artifacts
	if art == nil || flow != FlowHiDaP {
		art = core.NewArtifacts(g.Design, g.SeqGraph)
	}
	lambdas := Sweep(flow.Name(), &opt.Knobs, opt.Lambdas, true)
	pl, _, rep, err := Measure(ctx, art, lambdas, opt.Parallelism, func(ctx context.Context, lambda float64, pool *sched.Pool) (*placement.Placement, Stats, error) {
		o := opt
		o.Lambda = lambda
		return Place(ctx, art, flow, g.Intent, o, pool)
	})
	if err != nil {
		return nil, nil, err
	}
	return &Metrics{Circuit: g.Spec.Name, Flow: flow, Report: *rep}, pl, nil
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
