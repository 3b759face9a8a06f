// Command hidap-bench regenerates the paper's experimental evaluation:
// Table I (graph sizes), Table II (flow summary), Table III (per-circuit
// metrics) and the Fig. 9 artifacts (density maps and the top-level
// dataflow floorplan).
//
// Usage:
//
//	hidap-bench -table1                 # abstraction sizes for one circuit
//	hidap-bench -table2 -table3         # the headline comparison
//	hidap-bench -fig9 -outdir artifacts # density maps + Gdf SVG for c3
//	hidap-bench -circuits c1,c3 -scale 100 -effort low
//	hidap-bench -cluster-smoke -smoke-insts 50000 -json BENCH_smoke.json
//	hidap-bench -emit flat.json -smoke-insts 100000   # flat netlist for cmd/hidap
//	hidap-bench -sched-bench -json BENCH_PR7.json     # scheduler scaling record
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/circuits"
	"repro/internal/autocluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/flows"
	"repro/internal/geom"
	"repro/internal/hier"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/render"
	"repro/internal/sched"
	"repro/internal/seqgraph"
	"repro/internal/shape"
	"repro/internal/slicing"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "print Table I (circuit abstraction sizes)")
		table2  = flag.Bool("table2", false, "print Table II (summary of the three flows)")
		table3  = flag.Bool("table3", false, "print Table III (per-circuit metrics)")
		fig9    = flag.Bool("fig9", false, "emit Fig. 9 artifacts (density maps, dataflow SVG) for -fig9ckt")
		fig9ckt = flag.String("fig9ckt", "c3", "circuit for -fig9")
		ckts    = flag.String("circuits", "all", "comma-separated circuit names or 'all'")
		scale   = flag.Int("scale", 50, "cell-count divisor vs the paper's sizes")
		effort  = flag.String("effort", "medium", "HiDaP annealing effort: low|medium|high")
		seed    = flag.Int64("seed", 1, "base random seed")
		outdir  = flag.String("outdir", "artifacts", "output directory for SVG/asciimap artifacts")
		csvOut  = flag.String("csv", "", "also write per-circuit rows as CSV to this path")
		jsonOut = flag.String("json", "", "also write rows + summary as JSON to this path ('-' for stdout), for BENCH_*.json trajectory tracking")

		smoke      = flag.Bool("cluster-smoke", false, "run the autoclustering smoke: cluster a flat netlist and solve it e2e, flat vs born-hierarchical")
		smokeInsts = flag.Int("smoke-insts", 50_000, "instance count of the smoke/-emit netlist")
		emit       = flag.String("emit", "", "write the flat smoke netlist as design JSON to this path (for cmd/hidap -cluster) and exit")

		schedBench  = flag.Bool("sched-bench", false, "time one multi-start level solve across GOMAXPROCS/parallelism settings and verify identical results")
		schedBlocks = flag.Int("sched-blocks", 24, "block count of the -sched-bench level")
		schedChains = flag.Int("sched-chains", 8, "restart chains of the -sched-bench solve")
		minSpeedup  = flag.Float64("min-speedup", 0, "with -sched-bench: fail unless speedup_vs_serial at parallelism 4 reaches this (gate skipped, with a note, when the machine has < 4 cores)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this path")
	)
	flag.Parse()
	if !*table1 && !*table2 && !*table3 && !*fig9 {
		*table2, *table3 = true, true
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	if *emit != "" {
		if err := emitFlat(*emit, *smokeInsts); err != nil {
			fatal(err)
		}
		return
	}
	if *smoke {
		if err := runClusterSmoke(ctx, *jsonOut, *smokeInsts, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *schedBench {
		if err := runSchedBench(ctx, *jsonOut, *schedBlocks, *schedChains, *seed, *minSpeedup); err != nil {
			fatal(err)
		}
		return
	}

	specs, err := selectSpecs(*ckts, *scale)
	if err != nil {
		fatal(err)
	}
	opt := flows.DefaultOptions()
	opt.Seed = *seed
	switch *effort {
	case "low":
		opt.Effort = layout.EffortLow
	case "high":
		opt.Effort = layout.EffortHigh
	}

	if *table1 {
		printTable1(specs[0])
	}

	if *table2 || *table3 {
		rows := runSuite(ctx, specs, opt)
		flows.Normalize(rows)
		if *table3 {
			printTable3(rows)
		}
		if *table2 {
			printTable2(rows)
		}
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			if err := flows.WriteCSV(f, rows); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "# wrote %s\n", *csvOut)
		}
		if *jsonOut != "" {
			if err := writeBenchJSON(*jsonOut, rows, *scale, *effort, *seed); err != nil {
				fatal(err)
			}
		}
	}

	if *fig9 {
		if err := emitFig9(ctx, *fig9ckt, *scale, opt, *outdir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hidap-bench:", err)
	os.Exit(1)
}

// benchJSON is the machine-readable benchmark record: the run parameters,
// every Table III row and the Table II summary. Committing one of these per
// milestone (BENCH_<date>.json) tracks the perf/quality trajectory.
type benchJSON struct {
	Scale   int              `json:"scale"`
	Effort  string           `json:"effort"`
	Seed    int64            `json:"seed"`
	Rows    []*flows.Metrics `json:"rows"`
	Summary []flows.Summary  `json:"summary"`
}

func writeBenchJSON(path string, rows []*flows.Metrics, scale int, effort string, seed int64) error {
	var out io.Writer = os.Stdout
	var f *os.File
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err := enc.Encode(benchJSON{
		Scale: scale, Effort: effort, Seed: seed,
		Rows: rows, Summary: flows.Summarize(rows),
	})
	if f != nil {
		// Close errors surface buffered-writeback failures (disk full): a
		// truncated trajectory record must not be reported as written.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
	}
	return nil
}

func selectSpecs(names string, scale int) ([]circuits.Spec, error) {
	var specs []circuits.Spec
	if names == "all" {
		specs = circuits.Suite()
	} else {
		for _, n := range strings.Split(names, ",") {
			s, err := circuits.SuiteSpec(strings.TrimSpace(n))
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	for i := range specs {
		specs[i].Scale = scale
	}
	return specs, nil
}

func runSuite(ctx context.Context, specs []circuits.Spec, opt flows.Options) []*flows.Metrics {
	var rows []*flows.Metrics
	for _, spec := range specs {
		g := circuits.Generate(spec)
		st := g.Design.Stats()
		fmt.Fprintf(os.Stderr, "# %s: %d cells, %d macros, die %.1fx%.1f mm\n",
			spec.Name, st.Cells, st.MacroCells,
			float64(g.Design.Die.W)/1e6, float64(g.Design.Die.H)/1e6)
		for _, f := range []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP} {
			m, _, err := flows.Run(ctx, g, f, opt)
			if err != nil {
				fatal(fmt.Errorf("%s/%s: %w", spec.Name, f, err))
			}
			rows = append(rows, m)
		}
	}
	return rows
}

// printTable1 mirrors the paper's Table I: sizes of the circuit
// abstractions (HT, Gnet, Gseq, Gdf) for one suite circuit.
func printTable1(spec circuits.Spec) {
	g := circuits.Generate(spec)
	d := g.Design
	st := d.Stats()
	tr := hier.New(d)
	sg := seqgraph.Build(d, seqgraph.DefaultParams())
	sgst := sg.Stats()
	decl := tr.Decluster(d.Root(), hier.DefaultParams())
	gdf := dataflow.Build(sg, decl)
	gst := gdf.Stats()

	fmt.Printf("TABLE I: circuit abstractions for %s (scale 1/%d)\n", spec.Name, spec.Scale)
	fmt.Printf("%-6s %-10s %s\n", "Graph", "Size", "Vertices")
	fmt.Printf("%-6s %-10d hierarchy nodes\n", "HT", st.HierNodes)
	fmt.Printf("%-6s %-10d macros, ports, sequential and combinational cells (%d nets)\n",
		"Gnet", st.Cells, st.Nets)
	fmt.Printf("%-6s %-10d macros, multi-bit ports and registers (%d edges)\n",
		"Gseq", sgst.Nodes, sgst.Edges)
	fmt.Printf("%-6s %-10d blocks and multi-bit ports (%d block-flow + %d macro-flow edges)\n",
		"Gdf", gst.Nodes, gst.BlockEdges, gst.MacroEdges)
	fmt.Println()
}

// printTable3 mirrors the paper's Table III.
func printTable3(rows []*flows.Metrics) {
	fmt.Println("TABLE III: metrics after placement using the three flows")
	fmt.Printf("%-4s %-8s %10s %8s %8s %9s %10s %8s\n",
		"ckt", "flow", "WL(m)", "norm", "GRC%", "WNS%", "TNS(ns)", "time(s)")
	var last string
	for _, r := range rows {
		if r.Circuit != last {
			fmt.Println(strings.Repeat("-", 72))
			last = r.Circuit
		}
		lam := ""
		if r.Flow == flows.FlowHiDaP {
			lam = fmt.Sprintf(" λ=%.1f", r.Lambda)
		}
		fmt.Printf("%-4s %-8s %10.3f %8.3f %8.2f %9.1f %10.1f %8.1f%s\n",
			r.Circuit, r.Flow, r.WirelengthM, r.WLnorm, r.CongestionPct, r.WNSPct, r.TNSns, r.MacroSeconds, lam)
	}
	fmt.Println()
}

// printTable2 mirrors the paper's Table II.
func printTable2(rows []*flows.Metrics) {
	fmt.Println("TABLE II: average WL, WNS and effort for the three flows")
	fmt.Printf("%-8s %12s %10s   %s\n", "flow", "WL(geomean)", "WNS(mean)", "effort")
	for _, s := range flows.Summarize(rows) {
		fmt.Printf("%-8s %12.3f %9.1f%%   %s\n", s.Flow, s.WLGeoMean, s.WNSMean, s.Effort)
	}
	fmt.Println()
}

// emitFig9 renders the density maps of one circuit under the three flows
// plus the top-level Gdf block floorplan (Fig. 9a-d).
func emitFig9(ctx context.Context, name string, scale int, opt flows.Options, outdir string) error {
	spec, err := circuits.SuiteSpec(name)
	if err != nil {
		return err
	}
	spec.Scale = scale
	g := circuits.Generate(spec)
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}

	for _, f := range []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP} {
		m, pl, err := flows.Run(ctx, g, f, opt)
		if err != nil {
			return err
		}
		dm := metrics.Density(pl, 32)
		path := filepath.Join(outdir, fmt.Sprintf("fig9_%s_%s_density.svg", name, f))
		fd, err := os.Create(path)
		if err != nil {
			return err
		}
		render.DensityMap(fd, pl, dm, 640)
		fd.Close()
		fmt.Printf("Fig9 %-7s WL=%.3fm peak-density=%.2f -> %s\n", f, m.WirelengthM, dm.Peak(), path)
		fmt.Println(render.DensityASCII(metrics.Density(pl, 24)))
	}

	// Fig 9d: top-level Gdf floorplan from the HiDaP trace.
	coreOpt := core.DefaultOptions()
	coreOpt.Seed = opt.Seed
	coreOpt.Trace = true
	res, err := core.Place(ctx, g.Design, coreOpt)
	if err != nil {
		return err
	}
	d := g.Design
	tr := hier.New(d)
	decl := tr.Decluster(d.Root(), hier.DefaultParams())
	sg := seqgraph.Build(d, seqgraph.DefaultParams())
	gdf := dataflow.Build(sg, decl)
	aff := gdf.Affinity(dataflow.DefaultParams())
	if len(res.Trace) > 0 {
		top := res.Trace[0]
		rs := make([]geom.Rect, 0, len(top.Blocks))
		for _, b := range top.Blocks {
			rs = append(rs, b.Rect)
		}
		path := filepath.Join(outdir, fmt.Sprintf("fig9d_%s_gdf.svg", name))
		fd, err := os.Create(path)
		if err != nil {
			return err
		}
		render.Dataflow(fd, d.Die, gdf, aff, rs, nil, 640)
		fd.Close()
		fmt.Printf("Fig9d dataflow floorplan -> %s\n", path)
	}
	return nil
}

// smokeSpec is the synthetic flat netlist of the clustering smoke: Scale 1,
// so -smoke-insts is the actual instance count.
func smokeSpec(insts int, seed int64) circuits.Spec {
	return circuits.Spec{
		Name: fmt.Sprintf("smoke%dk", insts/1000), Cells: insts, Macros: 12,
		Subsystems: 3, BusWidth: 32, PipelineDepth: 2, Scale: 1, Seed: seed,
		Flat: true,
	}
}

// emitFlat writes the flat smoke netlist in the design JSON interchange form,
// ready for `hidap -in flat.json -cluster`.
func emitFlat(path string, insts int) error {
	g := circuits.Generate(smokeSpec(insts, 7))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = netlist.WriteJSON(f, g.Design)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st := g.Design.Stats()
	fmt.Fprintf(os.Stderr, "# wrote %s: %d cells, %d macros, flat\n", path, st.Cells, st.MacroCells)
	return nil
}

// clusterSmokeJSON is the machine-readable record of one clustering smoke:
// synthesis cost and tree shape, plus the end-to-end HiDaP solve time on the
// clustered flat netlist vs the same netlist born hierarchical.
type clusterSmokeJSON struct {
	Insts          int     `json:"insts"`
	ClusterSeconds float64 `json:"cluster_seconds"`
	Levels         int     `json:"levels"`
	Clusters       int     `json:"clusters"`
	TreeNodes      int     `json:"tree_nodes"`
	E2EFlatSeconds float64 `json:"e2e_flat_seconds"`
	E2EHierSeconds float64 `json:"e2e_hier_seconds"`
	FlatWL         float64 `json:"flat_wl_m"`
	HierWL         float64 `json:"hier_wl_m"`
}

func runClusterSmoke(ctx context.Context, jsonPath string, insts int, seed int64) error {
	spec := smokeSpec(insts, seed)
	gFlat := circuits.Generate(spec)
	st := gFlat.Design.Stats()
	fmt.Fprintf(os.Stderr, "# smoke: %d cells, %d macros, %d nets, flat\n",
		st.Cells, st.MacroCells, st.Nets)

	p := autocluster.DefaultParams()
	gFlat.SeqGraph() // prebuild so the timing below is the synthesis alone
	t0 := time.Now()
	res, fresh, err := gFlat.Autocluster(p)
	if err != nil {
		return err
	}
	clusterSecs := time.Since(t0).Seconds()
	if !fresh || res.Stats.NoOp {
		return fmt.Errorf("smoke expected a fresh synthesis, got fresh=%v stats=%+v", fresh, res.Stats)
	}
	if err := autocluster.CheckTree(res.Design, p); err != nil {
		return fmt.Errorf("smoke tree violates bounds: %w", err)
	}
	fmt.Printf("cluster: %.3fs for %d insts -> %d clusters, %d grouping levels, %d tree nodes\n",
		clusterSecs, res.Stats.Instances, res.Stats.Clusters, res.Stats.Levels, res.Stats.TreeNodes)

	// End-to-end solve, autoclustered flat netlist vs the same netlist with
	// its native hierarchy. Low effort and a pinned λ keep this CI-sized.
	opt := flows.DefaultOptions()
	opt.Seed = seed
	opt.Effort = layout.EffortLow
	opt.Lambdas = []float64{0.5}
	opt.Autocluster = &p
	t0 = time.Now()
	mFlat, _, err := flows.Run(ctx, gFlat, flows.FlowHiDaP, opt)
	if err != nil {
		return fmt.Errorf("smoke flat solve: %w", err)
	}
	flatSecs := time.Since(t0).Seconds()

	spec.Flat = false
	gHier := circuits.Generate(spec)
	opt.Autocluster = nil
	t0 = time.Now()
	mHier, _, err := flows.Run(ctx, gHier, flows.FlowHiDaP, opt)
	if err != nil {
		return fmt.Errorf("smoke hierarchical solve: %w", err)
	}
	hierSecs := time.Since(t0).Seconds()
	fmt.Printf("e2e: flat+autocluster %.1fs (WL %.3fm), born-hierarchical %.1fs (WL %.3fm)\n",
		flatSecs, mFlat.WirelengthM, hierSecs, mHier.WirelengthM)

	if jsonPath == "" {
		return nil
	}
	rec := clusterSmokeJSON{
		Insts: res.Stats.Instances, ClusterSeconds: clusterSecs,
		Levels: res.Stats.Levels, Clusters: res.Stats.Clusters,
		TreeNodes:      res.Stats.TreeNodes,
		E2EFlatSeconds: flatSecs, E2EHierSeconds: hierSecs,
		FlatWL: mFlat.WirelengthM, HierWL: mHier.WirelengthM,
	}
	var out io.Writer = os.Stdout
	var f *os.File
	if jsonPath != "-" {
		if f, err = os.Create(jsonPath); err != nil {
			return err
		}
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err = enc.Encode(rec)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && jsonPath != "-" {
		fmt.Fprintf(os.Stderr, "# wrote %s\n", jsonPath)
	}
	return err
}

// schedLevelProblem builds the scheduler benchmark level: n mixed
// macro/soft blocks with a sparse affinity ring plus two corner
// terminals — the same shape as a real HiDaP level (and as the layout
// package's Go benchmarks, so the numbers line up).
func schedLevelProblem(n int) *layout.Problem {
	rng := rand.New(rand.NewSource(99))
	blocks := make([]layout.BlockSpec, n)
	for i := range blocks {
		at := int64(40_000 + rng.Intn(60_000))
		b := slicing.Block{TargetArea: at, MinArea: at / 2}
		if i%3 == 0 {
			w := int64(100 + rng.Intn(150))
			h := int64(80 + rng.Intn(120))
			b.Curve = shape.FromBoxRotatable(w, h)
			b.MinArea = w * h
			b.TargetArea = w * h * 3 / 2
		}
		blocks[i] = layout.BlockSpec{Block: b}
	}
	aff := make([][]float64, n+2)
	for i := range aff {
		aff[i] = make([]float64, n+2)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		aff[i][j], aff[j][i] = float64(1+rng.Intn(20)), float64(1+rng.Intn(20))
	}
	aff[0][n], aff[n][0] = 30, 30
	aff[n-1][n+1], aff[n+1][n-1] = 30, 30
	return &layout.Problem{
		Region: geom.RectXYWH(0, 0, 1500, 1200),
		Blocks: blocks,
		Terminals: []layout.Terminal{
			{Name: "sw", Pos: geom.Pt(0, 0)},
			{Name: "ne", Pos: geom.Pt(1500, 1200)},
		},
		Affinity: aff,
	}
}

// schedRunJSON is one timed setting of the scheduler benchmark.
type schedRunJSON struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Parallelism int     `json:"parallelism"`
	Seconds     float64 `json:"seconds"`
	Speedup     float64 `json:"speedup_vs_serial"`
}

// schedBenchJSON is the machine-readable scheduler scaling record
// (BENCH_PR7.json). Cores records the physical budget of the machine
// that produced the numbers: speedups beyond it are not expected, and
// a 1-core box legitimately reports ~1.0 across the board while still
// proving the identical-result property.
type schedBenchJSON struct {
	Bench    string         `json:"bench"`
	Blocks   int            `json:"blocks"`
	Chains   int            `json:"chains"`
	Seed     int64          `json:"seed"`
	Cores    int            `json:"cores"`
	Runs     []schedRunJSON `json:"runs"`
	SameCost bool           `json:"identical_results"`
}

// runSchedBench times one multi-start level solve (the scheduler's hot
// path) at GOMAXPROCS/parallelism 1, 4 and 16, checks the results are
// identical, and reports wall-clock seconds per setting (best of 3).
func runSchedBench(ctx context.Context, jsonPath string, blocks, chains int, seed int64, minSpeedup float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := schedLevelProblem(blocks)
	rec := schedBenchJSON{
		Bench: "sched", Blocks: blocks, Chains: chains, Seed: seed,
		Cores: runtime.NumCPU(), SameCost: true,
	}
	fmt.Printf("sched-bench: %d blocks, %d chains, %d cores\n", blocks, chains, rec.Cores)

	var refExpr string
	var refCost float64
	for _, par := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(par)
		opt := layout.DefaultOptions()
		opt.Effort = layout.EffortHigh // long chains: scheduling overhead amortizes, stealing matters
		opt.Seed = seed
		opt.Restarts = chains
		opt.Pool = &slicing.EvaluatorPool{}
		var pool *sched.Pool
		if par > 1 {
			pool = sched.NewPool(par)
			opt.Sched = pool
		}
		best := 0.0
		var r *layout.Result
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			r = layout.Solve(ctx, p, opt)
			if s := time.Since(t0).Seconds(); rep == 0 || s < best {
				best = s
			}
			if err := ctx.Err(); err != nil {
				if pool != nil {
					pool.Close()
				}
				return err
			}
		}
		if pool != nil {
			pool.Close()
		}
		if refExpr == "" {
			refExpr, refCost = r.Expr.String(), r.Cost
		} else if r.Expr.String() != refExpr || r.Cost != refCost {
			rec.SameCost = false
		}
		rec.Runs = append(rec.Runs, schedRunJSON{GOMAXPROCS: par, Parallelism: par, Seconds: best})
		fmt.Printf("  gomaxprocs=%-2d parallelism=%-2d  %.3fs  cost=%.4g legal=%v\n",
			par, par, best, r.Cost, r.Legal)
	}
	serial := rec.Runs[0].Seconds
	for i := range rec.Runs {
		rec.Runs[i].Speedup = serial / rec.Runs[i].Seconds
	}
	if !rec.SameCost {
		return fmt.Errorf("sched-bench: results differ across parallelism settings")
	}
	fmt.Printf("  identical results across settings: %v\n", rec.SameCost)
	if minSpeedup > 0 {
		if rec.Cores < 4 {
			fmt.Printf("  speedup gate skipped: %d cores cannot demonstrate multi-core scaling\n", rec.Cores)
		} else if s := rec.Runs[1].Speedup; s < minSpeedup {
			return fmt.Errorf("sched-bench: speedup %.2fx at parallelism 4 below the %.2fx gate", s, minSpeedup)
		} else {
			fmt.Printf("  speedup gate passed: %.2fx >= %.2fx at parallelism 4\n", s, minSpeedup)
		}
	}

	if jsonPath == "" {
		return nil
	}
	var out io.Writer = os.Stdout
	var f *os.File
	if jsonPath != "-" {
		var err error
		if f, err = os.Create(jsonPath); err != nil {
			return err
		}
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err := enc.Encode(rec)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && jsonPath != "-" {
		fmt.Fprintf(os.Stderr, "# wrote %s\n", jsonPath)
	}
	return err
}
