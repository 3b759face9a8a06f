package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/circuits"
	"repro/hidap"
	"repro/internal/autocluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flows"
	"repro/internal/graph"
	"repro/internal/handfp"
	"repro/internal/hier"
	"repro/internal/indeda"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/seqgraph"
	"repro/internal/slicing"
	"repro/internal/sta"
)

// size pins the input size of every workload. Sizes are constants of the
// benchmark, never flags: cost is not monotonic in them (a larger scale
// divisor shrinks the die but not the macros, so the cell placer's ring
// search grows), so a number is only comparable at the size it was taken.
type size struct {
	suite      []string // table_suite circuits
	suiteScale int
	serveJobs  int // macro_serve jobs per round, over the 8 suite designs
	serveScale int
	flatCount  int // cold_flat netlists, one job each
	flatInsts  int
	deepMacros int
	deepScale  int
	deepSeeds  int // deep_solve seeds per round, each solved at every λ
}

// fullSize is what the command measures: each round takes 1–4 s on a 2-core
// x86-64 box, so a 20 s run repeats it five times or more.
var fullSize = size{
	suite: []string{"c1", "c8"}, suiteScale: 100,
	serveJobs: 80, serveScale: 100,
	flatCount: 16, flatInsts: 50_000,
	deepMacros: 400, deepScale: 100, deepSeeds: 2,
}

// smokeSize runs every workload end to end in a few seconds, for tests.
var smokeSize = size{
	suite: []string{"c1"}, suiteScale: 2000,
	serveJobs: 8, serveScale: 400,
	flatCount: 4, flatInsts: 10_000,
	deepMacros: 40, deepScale: 2000, deepSeeds: 1,
}

// lambdas is the paper's λ sweep.
var lambdas = []float64{0.2, 0.5, 0.8}

// Seed streams: -seed derives every flow, job and generator seed through
// sched.Derive(seed, stream, index), so no two uses share a seed.
const (
	streamSuite = iota + 1
	streamServe
	streamFlatGen
	streamFlatJob
	streamDeep
	streamLayout
)

// nproc is the load of every workload: engine workers, closed-loop clients
// and scheduler lanes all equal it.
var nproc = runtime.GOMAXPROCS(0)

// inputs is what a workload's set-up generates from the seed.
type inputs struct {
	gens     []*circuits.Generated
	jobs     []jobSpec
	flowSeed int64 // table_suite: the one seed of every flow run
}

// jobSpec is one job of a round.
type jobSpec struct {
	gen    int
	flow   flows.Flow // table_suite only
	lambda float64
	seed   int64
}

// jobOut is one finished job.
type jobOut struct {
	latency time.Duration // from Submit (or Run) to the result
	submit  time.Duration // Engine.Submit alone; 0 without a queue
	placer  float64       // Stats.MacroSeconds
	pl      *placement.Placement
	row     *flows.Metrics // table_suite only
	err     error
}

// roundOut is one round through the program's own entry points.
type roundOut struct {
	jobs   []jobOut
	engine *hidap.EngineStats // nil when the workload has no engine
}

// counts are the work counters of one replay.
type counts struct {
	seqNodes, clusters, acLevels, coreLevels, placeCells int
	sched                                                sched.Stats
}

func (c *counts) addSched(s sched.Stats) {
	c.sched.Submitted += s.Submitted
	c.sched.Completed += s.Completed
	c.sched.Steals += s.Steals
	c.sched.InjectRuns += s.InjectRuns
}

// workload is one set of inputs and the load that drives them. round goes
// through the public API or flows.Run; replay makes the same layer calls one
// at a time from the calling goroutine, recording a span around each.
type workload struct {
	name   string
	setup  func(sz size, seed int64, tr *tracer) (*inputs, error)
	round  func(ctx context.Context, in *inputs) (roundOut, error)
	replay func(ctx context.Context, in *inputs, tr *tracer, c *counts) ([]jobOut, error)
}

var workloads = []workload{
	{
		name:   wTable,
		setup:  tableSetup,
		round:  tableRound,
		replay: tableReplay,
	},
	{
		name:   wServe,
		setup:  serveSetup,
		round:  serveRound,
		replay: serveReplay,
	},
	{
		name:   wFlat,
		setup:  flatSetup,
		round:  flatRound,
		replay: flatReplay,
	},
	{
		name:   wDeep,
		setup:  deepSetup,
		round:  deepRound,
		replay: deepReplay,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, allWorkloads)
}

// --- table_suite -----------------------------------------------------------

var suiteFlows = []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP}

func tableSetup(sz size, seed int64, tr *tracer) (*inputs, error) {
	in := &inputs{flowSeed: sched.Derive(seed, streamSuite)}
	for _, name := range sz.suite {
		spec, err := circuits.SuiteSpec(name)
		if err != nil {
			return nil, err
		}
		spec.Scale = sz.suiteScale
		var g *circuits.Generated
		tr.do("circuits.generate", func() { g = circuits.Generate(spec) })
		tr.do("seqgraph.build", func() { g.SeqGraph() })
		for _, f := range suiteFlows {
			in.jobs = append(in.jobs, jobSpec{gen: len(in.gens), flow: f})
		}
		in.gens = append(in.gens, g)
	}
	return in, nil
}

// tableRound runs the rows back to back from one caller, each through
// flows.Run at Parallelism nproc, as hidap-bench -table3 does.
func tableRound(ctx context.Context, in *inputs) (roundOut, error) {
	opt := flows.DefaultOptions()
	opt.Seed = in.flowSeed
	opt.Parallelism = nproc
	out := make([]jobOut, len(in.jobs))
	for i, js := range in.jobs {
		t0 := time.Now()
		m, pl, err := flows.Run(ctx, in.gens[js.gen], js.flow, opt)
		out[i] = jobOut{latency: time.Since(t0), pl: pl, row: m, err: err}
		if m != nil {
			out[i].placer = m.MacroSeconds
		}
	}
	return roundOut{jobs: out}, ctx.Err()
}

func tableReplay(ctx context.Context, in *inputs, tr *tracer, c *counts) ([]jobOut, error) {
	pool := sched.NewPool(nproc)
	defer func() {
		pool.Close()
		c.addSched(pool.Stats())
	}()
	out := make([]jobOut, len(in.jobs))
	for i, js := range in.jobs {
		g := in.gens[js.gen]
		d := g.Design
		var pl *placement.Placement
		var err error
		tr.do("row", func() {
			switch js.flow {
			case flows.FlowIndEDA:
				tr.do("indeda.place", func() {
					pl, err = indeda.Place(ctx, d, indeda.Options{Seed: in.flowSeed, HighEffort: true, WallWeight: 0.4})
				})
				if err == nil {
					err = placeCells(ctx, pl, tr, c)
				}
			case flows.FlowHandFP:
				tr.do("handfp.place", func() {
					pl, err = handfp.Place(ctx, d, g.Intent, handfp.Options{Seed: in.flowSeed})
				})
				if err == nil {
					err = placeCells(ctx, pl, tr, c)
				}
			default:
				pl, err = replayHiDaP(ctx, g, in.flowSeed, pool, tr, c)
			}
			if err == nil {
				out[i].row = evaluate(g, js.flow, pl, tr)
			}
		})
		out[i].pl, out[i].err = pl, err
	}
	return out, ctx.Err()
}

// replayHiDaP is flows.Run's HiDaP flow: one core.Place per λ, each followed
// by cell placement, keeping the lowest wirelength. Like the macro-only
// replays it also generates the shape curves once outside core.Place.
func replayHiDaP(ctx context.Context, g *circuits.Generated, seed int64, pool *sched.Pool, tr *tracer, c *counts) (*placement.Placement, error) {
	c.seqNodes += g.SeqGraph().Stats().Nodes // built during set-up
	var best *placement.Placement
	bestWL := 0.0
	for _, lambda := range lambdas {
		opt := core.DefaultOptions()
		opt.Lambda = lambda
		opt.Seed = seed
		opt.Effort = layout.EffortMedium
		opt.SeqGraph = g.SeqGraph()
		opt.Sched = pool
		tr.do("hier.tree", func() { opt.Tree = hier.New(g.Design) })
		if best == nil {
			tr.do("core.shapecurves", func() { core.GenerateShapeCurves(ctx, opt.Tree, seed) })
		}
		tr.do("graph.bipartite", func() { opt.Bipartite = graph.BipartiteFromDesign(g.Design) })
		res, err := corePlace(ctx, g.Design, opt, tr, c)
		if err != nil {
			return nil, err
		}
		if err := placeCells(ctx, res.Placement, tr, c); err != nil {
			return nil, err
		}
		var wl float64
		tr.do("metrics.wl", func() { wl = metrics.WirelengthMeters(res.Placement) })
		if best == nil || wl < bestWL {
			best, bestWL = res.Placement, wl
		}
	}
	return best, nil
}

func placeCells(ctx context.Context, pl *placement.Placement, tr *tracer, c *counts) error {
	var err error
	tr.do("place.run", func() { err = place.Run(ctx, pl, place.DefaultOptions()) })
	st := pl.D.Stats()
	c.placeCells += st.Comb + st.Flops
	return err
}

// evaluate is eval.Evaluate with one span per model.
func evaluate(g *circuits.Generated, flow flows.Flow, pl *placement.Placement, tr *tracer) *flows.Metrics {
	m := &flows.Metrics{Circuit: g.Spec.Name, Flow: flow}
	tr.do("metrics.wl", func() { m.WirelengthM = metrics.WirelengthMeters(pl) })
	tr.do("route.estimate", func() { m.CongestionPct = route.Estimate(pl, route.DefaultOptions()).OverflowPct })
	tr.do("sta.analyze", func() {
		r := sta.Analyze(g.SeqGraph(), pl, eval.CalibrateSTA(g.Design, sta.Options{}))
		m.WNSPct, m.TNSns = r.WNSPct, r.TNSns
	})
	return m
}

// --- macro-only workloads --------------------------------------------------

func serveSetup(sz size, seed int64, tr *tracer) (*inputs, error) {
	in := &inputs{}
	for _, spec := range circuits.Suite() {
		spec.Scale = sz.serveScale
		var g *circuits.Generated
		tr.do("circuits.generate", func() { g = circuits.Generate(spec) })
		in.gens = append(in.gens, g)
	}
	for j := 0; j < sz.serveJobs; j++ {
		in.jobs = append(in.jobs, jobSpec{
			gen: j % len(in.gens), lambda: lambdas[j%len(lambdas)], seed: sched.Derive(seed, streamServe, int64(j)),
		})
	}
	return in, nil
}

// serveRound: nproc closed-loop clients on a fresh engine, so each round
// pays one cache miss per design and hits on the rest.
func serveRound(ctx context.Context, in *inputs) (roundOut, error) {
	return engineRound(ctx, in, hidap.EngineOptions{Workers: nproc}, func(js jobSpec) hidap.Job {
		g := in.gens[js.gen]
		return hidap.Job{
			Design: g.Design,
			Key:    g.Spec.Name,
			Config: hidap.NewConfig(hidap.WithLambda(js.lambda), hidap.WithSeed(js.seed)),
		}
	})
}

func serveReplay(ctx context.Context, in *inputs, tr *tracer, c *counts) ([]jobOut, error) {
	return replayDesignJobs(ctx, in, layout.EffortMedium, nil, false, tr, c)
}

func flatSetup(sz size, seed int64, tr *tracer) (*inputs, error) {
	in := &inputs{}
	for i := 0; i < sz.flatCount; i++ {
		spec := circuits.Spec{
			Name: fmt.Sprintf("flat%d", i), Cells: sz.flatInsts, Macros: 24, Subsystems: 4,
			BusWidth: 32, PipelineDepth: 2, Scale: 1, Seed: sched.Derive(seed, streamFlatGen, int64(i)),
		}
		var g *circuits.Generated
		tr.do("circuits.generate", func() { g = circuits.GenFlat(spec) })
		in.gens = append(in.gens, g)
		in.jobs = append(in.jobs, jobSpec{gen: i, lambda: 0.5, seed: sched.Derive(seed, streamFlatJob, int64(i))})
	}
	return in, nil
}

// flatRound submits every netlist without a Key, so each job hashes its
// design and misses the cache.
func flatRound(ctx context.Context, in *inputs) (roundOut, error) {
	return engineRound(ctx, in, hidap.EngineOptions{Workers: nproc, CacheSize: nproc}, func(js jobSpec) hidap.Job {
		return hidap.Job{
			Design: in.gens[js.gen].Design,
			Config: hidap.NewConfig(hidap.WithLambda(js.lambda), hidap.WithSeed(js.seed),
				hidap.WithAutocluster(hidap.DefaultAutocluster())),
		}
	})
}

func flatReplay(ctx context.Context, in *inputs, tr *tracer, c *counts) ([]jobOut, error) {
	return replayDesignJobs(ctx, in, layout.EffortMedium, nil, true, tr, c)
}

func deepSetup(sz size, seed int64, tr *tracer) (*inputs, error) {
	spec := circuits.Spec{
		Name: "soc", Cells: 2_000_000, Macros: sz.deepMacros, Subsystems: 16,
		BusWidth: 64, PipelineDepth: 2, Scale: sz.deepScale, Seed: 201,
	}
	in := &inputs{}
	var g *circuits.Generated
	tr.do("circuits.generate", func() { g = circuits.Generate(spec) })
	in.gens = append(in.gens, g)
	for k := 0; k < sz.deepSeeds; k++ {
		for _, lambda := range lambdas {
			in.jobs = append(in.jobs, jobSpec{lambda: lambda, seed: sched.Derive(seed, streamDeep, int64(k))})
		}
	}
	return in, nil
}

// deepRound runs one job at a time through Engine.Run on a one-worker
// engine, so each solve's own scheduler gets all nproc lanes.
func deepRound(ctx context.Context, in *inputs) (roundOut, error) {
	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	g := in.gens[0]
	out := make([]jobOut, len(in.jobs))
	for i, js := range in.jobs {
		t0 := time.Now()
		res, err := eng.Run(ctx, hidap.Job{
			Design: g.Design,
			Key:    g.Spec.Name,
			Config: hidap.NewConfig(hidap.WithLambda(js.lambda), hidap.WithSeed(js.seed),
				hidap.WithEffort(hidap.EffortHigh), hidap.WithParallelism(nproc)),
		})
		out[i] = jobOut{latency: time.Since(t0), err: err}
		if res != nil {
			out[i].pl, out[i].placer = res.Placement, res.Stats.MacroSeconds
		}
	}
	st := eng.Stats()
	return roundOut{jobs: out, engine: &st}, ctx.Err()
}

// deepReplay hands every solve one benchmark-owned scheduler, whose
// counters are the sched.* metrics.
func deepReplay(ctx context.Context, in *inputs, tr *tracer, c *counts) ([]jobOut, error) {
	pool := sched.NewPool(nproc)
	defer func() {
		pool.Close()
		c.addSched(pool.Stats())
	}()
	return replayDesignJobs(ctx, in, layout.EffortHigh, pool, false, tr, c)
}

// engineRound drives a fresh engine with nproc closed-loop clients: each
// client submits its next job only after the previous one's result arrives.
func engineRound(ctx context.Context, in *inputs, opt hidap.EngineOptions, job func(jobSpec) hidap.Job) (roundOut, error) {
	eng := hidap.NewEngine(nil, opt)
	defer eng.Close()
	out := make([]jobOut, len(in.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.jobs) {
					return
				}
				t0 := time.Now()
				t, err := eng.Submit(ctx, job(in.jobs[i]))
				o := jobOut{submit: time.Since(t0)}
				var res *hidap.JobResult
				if err == nil {
					res, err = t.Wait(ctx)
				}
				o.latency, o.err = time.Since(t0), err
				if res != nil {
					o.pl, o.placer = res.Placement, res.Stats.MacroSeconds
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	st := eng.Stats()
	return roundOut{jobs: out, engine: &st}, ctx.Err()
}

// replayDesignJobs is the engine's design-job path, one call at a time. Per
// distinct design it builds what the engine caches: Gseq, the autoclustered
// design when cluster is set (which keeps the original's Gseq and bipartite
// graph and gets a new tree), the hierarchy tree and the bipartite graph. Per
// job it runs core.Place with them. Shape curves are also generated once per
// design outside core.Place, which derives the same curves internally, so
// their cost shows on its own.
func replayDesignJobs(ctx context.Context, in *inputs, effort layout.Effort, pool *sched.Pool, cluster bool, tr *tracer, c *counts) ([]jobOut, error) {
	type artifacts struct {
		d    *netlist.Design
		sg   *seqgraph.Graph
		tree *hier.Tree
		bp   *graph.Bipartite
	}
	built := map[int]*artifacts{}
	scratch := &slicing.EvaluatorPool{}
	out := make([]jobOut, len(in.jobs))
	for i, js := range in.jobs {
		tr.do("job", func() {
			a := built[js.gen]
			if a == nil {
				orig := in.gens[js.gen].Design
				a = &artifacts{d: orig}
				tr.do("seqgraph.build", func() { a.sg = seqgraph.Build(orig, seqgraph.DefaultParams()) })
				c.seqNodes += a.sg.Stats().Nodes
				if cluster {
					var res *autocluster.Result
					var err error
					tr.do("autocluster.cluster", func() { res, err = autocluster.ClusterUsing(orig, autocluster.DefaultParams(), a.sg) })
					if err != nil {
						out[i].err = err
						return
					}
					c.clusters += res.Stats.Clusters
					c.acLevels += res.Stats.Levels
					if !res.Stats.NoOp {
						a.d = res.Design
					}
				}
				tr.do("hier.tree", func() { a.tree = hier.New(a.d) })
				tr.do("graph.bipartite", func() { a.bp = graph.BipartiteFromDesign(orig) })
				tr.do("core.shapecurves", func() { core.GenerateShapeCurves(ctx, a.tree, js.seed) })
				built[js.gen] = a
			}
			opt := core.DefaultOptions()
			opt.Lambda = js.lambda
			opt.Seed = js.seed
			opt.Effort = effort
			opt.SeqGraph, opt.Tree, opt.Bipartite, opt.Pool = a.sg, a.tree, a.bp, scratch
			opt.Parallelism = 1
			opt.Sched = pool
			res, err := corePlace(ctx, a.d, opt, tr, c)
			if err != nil {
				out[i].err = err
				return
			}
			out[i].pl = res.Placement
		})
	}
	return out, ctx.Err()
}

func corePlace(ctx context.Context, d *netlist.Design, opt core.Options, tr *tracer, c *counts) (*core.Result, error) {
	var res *core.Result
	var err error
	tr.do("core.place", func() { res, err = core.Place(ctx, d, opt) })
	if err == nil {
		c.coreLevels += res.Levels
	}
	return res, err
}
