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
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/outfile"
	"repro/internal/placement"
	"repro/internal/render"
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

	var fig9Spec circuits.Spec
	if *fig9 {
		if fig9Spec, err = circuits.SuiteSpec(*fig9ckt); err != nil {
			fatal(err)
		}
		fig9Spec.Scale = *scale
	}
	// Each circuit is generated once per invocation: Table I reads the
	// first selected circuit, the suite runs every one, and -fig9 reuses
	// its circuit's Table rows when the suite placed it.
	var (
		rows  []*flows.Metrics
		fig9c *circuit
		fig9r []flowRun
	)
	suite := *table2 || *table3
	for i, spec := range specs {
		if !suite && (i > 0 || !*table1) {
			break
		}
		c := newCircuit(spec)
		if i == 0 && *table1 {
			printTable1(c)
		}
		var runs []flowRun
		if suite {
			st := c.g.Design.Stats()
			fmt.Fprintf(os.Stderr, "# %s: %d cells, %d macros, die %.1fx%.1f mm\n",
				spec.Name, st.Cells, st.MacroCells,
				float64(c.g.Design.Die.W)/1e6, float64(c.g.Design.Die.H)/1e6)
			runs = runFlows(ctx, c, opt)
			for _, r := range runs {
				rows = append(rows, r.m)
			}
		}
		if *fig9 && spec.Name == fig9Spec.Name {
			fig9c, fig9r = c, runs
		}
	}

	if suite {
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
		if fig9c == nil {
			fig9c = newCircuit(fig9Spec)
		}
		if fig9r == nil {
			fig9r = runFlows(ctx, fig9c, opt)
		}
		if err := emitFig9(ctx, fig9c, fig9r, opt, *outdir); err != nil {
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

// circuit is one generated suite circuit with the artifacts every HiDaP
// placement of it shares.
type circuit struct {
	g   *circuits.Generated
	art *core.Artifacts
}

func newCircuit(spec circuits.Spec) *circuit {
	g := circuits.Generate(spec)
	return &circuit{g: g, art: core.NewArtifacts(g.Design, g.SeqGraph)}
}

// flowRun is one flow's Table row and the placement it measured.
type flowRun struct {
	m  *flows.Metrics
	pl *placement.Placement
}

// runFlows runs the three flows on c, in Table order.
func runFlows(ctx context.Context, c *circuit, opt flows.Options) []flowRun {
	opt.Artifacts = c.art
	var runs []flowRun
	for _, f := range []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP} {
		m, pl, err := flows.Run(ctx, c.g, f, opt)
		if err != nil {
			fatal(fmt.Errorf("%s/%s: %w", c.g.Spec.Name, f, err))
		}
		runs = append(runs, flowRun{m, pl})
	}
	return runs
}

// printTable1 mirrors the paper's Table I: sizes of the circuit
// abstractions (HT, Gnet, Gseq, Gdf) for one suite circuit.
func printTable1(c *circuit) {
	d := c.g.Design
	st := d.Stats()
	sg := c.art.SeqGraph()
	sgst := sg.Stats()
	decl := c.art.Tree().Decluster(d.Root())
	gdf := dataflow.Build(sg, decl)
	gst := gdf.Stats()

	fmt.Printf("TABLE I: circuit abstractions for %s (scale 1/%d)\n", c.g.Spec.Name, c.g.Spec.Scale)
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
// (runs, in Table order) plus the top-level Gdf block floorplan
// (Fig. 9a-d).
func emitFig9(ctx context.Context, c *circuit, runs []flowRun, opt flows.Options, outdir string) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	name := c.g.Spec.Name
	var lambda float64 // the HiDaP row's chosen λ
	for _, r := range runs {
		f, pl := r.m.Flow, r.pl
		if f == flows.FlowHiDaP {
			lambda = r.m.Lambda
		}
		dm := metrics.Density(pl, 32)
		path := filepath.Join(outdir, fmt.Sprintf("fig9_%s_%s_density.svg", name, f))
		if err := outfile.Write(path, func(w io.Writer) error {
			render.DensityMap(w, pl, dm, 640)
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("Fig9 %-7s WL=%.3fm peak-density=%.2f -> %s\n", f, r.m.WirelengthM, dm.Peak(), path)
		fmt.Println(render.DensityASCII(metrics.Density(pl, 24)))
	}

	// Fig 9d: top-level Gdf floorplan of the HiDaP row above, with the
	// affinity at the row's λ.
	_, st, err := traceHiDaP(ctx, c.art, opt, lambda)
	if err != nil {
		return err
	}
	d := c.g.Design
	decl := c.art.Tree().Decluster(d.Root())
	gdf := dataflow.Build(c.art.SeqGraph(), decl)
	ap := dataflow.DefaultParams()
	ap.Lambda = lambda
	pairs := gdf.Pairs(ap)
	if len(st.Trace) > 0 {
		top := st.Trace[0]
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
// candidate at lambda, with the run's knobs — with the level trace on, so
// the traced floorplan is the row's placement.
func traceHiDaP(ctx context.Context, art *core.Artifacts, opt flows.Options, lambda float64) (*placement.Placement, flows.Stats, error) {
	opt.Lambda = lambda
	opt.Trace = true
	return flows.Place(ctx, art, flows.FlowHiDaP, nil, opt, nil)
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
