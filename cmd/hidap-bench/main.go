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
//	hidap-bench -circuits c1,c3 -scale 100 -effort low -csv rows.csv
//	hidap-bench -emit flat.json -smoke-insts 100000   # flat netlist for cmd/hidap
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/circuits"
	"repro/hidap"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/flows"
	"repro/internal/geom"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/outfile"
	"repro/internal/render"
	"repro/internal/seqgraph"
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

		smokeInsts = flag.Int("smoke-insts", 50_000, "instance count of the -emit netlist")
		emit       = flag.String("emit", "", "write a flat synthetic netlist as design JSON to this path (for cmd/hidap -cluster) and exit")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this path")
	)
	flag.Parse()
	if !*table1 && !*table2 && !*table3 && !*fig9 {
		*table2, *table3 = true, true
	}
	eff, err := hidap.ParseEffort(*effort)
	if err != nil {
		fatal(err)
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
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := outfile.Write(*memProfile, pprof.WriteHeapProfile); err != nil {
				fatal(err)
			}
		}()
	}

	if *emit != "" {
		if err := emitFlat(*emit, *smokeInsts); err != nil {
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
	opt.Effort = eff

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
			if err := outfile.Write(*csvOut, func(w io.Writer) error { return flows.WriteCSV(w, rows) }); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "# wrote %s\n", *csvOut)
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

	var lambda float64 // the HiDaP row's chosen λ
	for _, f := range []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP} {
		m, pl, err := flows.Run(ctx, g, f, opt)
		if err != nil {
			return err
		}
		if f == flows.FlowHiDaP {
			lambda = m.Lambda
		}
		dm := metrics.Density(pl, 32)
		path := filepath.Join(outdir, fmt.Sprintf("fig9_%s_%s_density.svg", name, f))
		if err := outfile.Write(path, func(w io.Writer) error {
			render.DensityMap(w, pl, dm, 640)
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("Fig9 %-7s WL=%.3fm peak-density=%.2f -> %s\n", f, m.WirelengthM, dm.Peak(), path)
		fmt.Println(render.DensityASCII(metrics.Density(pl, 24)))
	}

	// Fig 9d: top-level Gdf floorplan of the HiDaP row above, with the
	// affinity at the row's λ.
	res, err := traceHiDaP(ctx, g, opt, lambda)
	if err != nil {
		return err
	}
	d := g.Design
	decl := hier.New(d).Decluster(d.Root(), hier.DefaultParams())
	gdf := dataflow.Build(g.SeqGraph(), decl)
	ap := dataflow.DefaultParams()
	ap.Lambda = lambda
	pairs := gdf.Pairs(ap)
	if len(res.Trace) > 0 {
		top := res.Trace[0]
		rs := make([]geom.Rect, 0, len(top.Blocks))
		for _, b := range top.Blocks {
			rs = append(rs, b.Rect)
		}
		path := filepath.Join(outdir, fmt.Sprintf("fig9d_%s_gdf.svg", name))
		if err := outfile.Write(path, func(w io.Writer) error {
			render.Dataflow(w, d.Die, gdf, pairs, rs, nil, 640)
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("Fig9d dataflow floorplan -> %s\n", path)
	}
	return nil
}

// traceHiDaP re-runs the HiDaP placement flows.Run kept for the row — the
// candidate at lambda, with the run's seed, effort and restarts — with the
// level trace on, so the traced floorplan is the row's placement.
func traceHiDaP(ctx context.Context, g *circuits.Generated, opt flows.Options, lambda float64) (*core.Result, error) {
	coreOpt := core.DefaultOptions()
	coreOpt.Lambda = lambda
	coreOpt.Seed = opt.Seed
	coreOpt.Effort = opt.Effort
	coreOpt.Restarts = opt.Restarts
	coreOpt.SeqGraph = g.SeqGraph()
	coreOpt.Trace = true
	return core.Place(ctx, g.Design, coreOpt)
}

// emitFlat writes a synthetic flat netlist of insts instances in the design
// JSON interchange form, ready for `hidap -in flat.json -cluster`. Scale 1
// makes insts the actual instance count.
func emitFlat(path string, insts int) error {
	g := circuits.Generate(circuits.Spec{
		Name: fmt.Sprintf("smoke%dk", insts/1000), Cells: insts, Macros: 12,
		Subsystems: 3, BusWidth: 32, PipelineDepth: 2, Scale: 1, Seed: 7,
		Flat: true,
	})
	if err := outfile.Write(path, func(w io.Writer) error { return netlist.WriteJSON(w, g.Design) }); err != nil {
		return err
	}
	st := g.Design.Stats()
	fmt.Fprintf(os.Stderr, "# wrote %s: %d cells, %d macros, flat\n", path, st.Cells, st.MacroCells)
	return nil
}
