// Benchmarks regenerating the paper's tables and figures, one target per
// exhibit. These run scaled-down circuits so that `go test -bench=.`
// terminates quickly; the full-scale tables come from cmd/hidap-bench.
// Metrics are attached via b.ReportMetric, so each bench both measures the
// runtime of its pipeline and reports the paper-facing quantities
// (wirelength, GRC%, WNS%, ...).
package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/circuits"
	"repro/hidap"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/flows"
	"repro/internal/geom"
	"repro/internal/hier"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/render"
	"repro/internal/seqgraph"
	"repro/internal/slicing"
)

// benchScale divides the paper's cell counts for benchmark-speed circuits.
const benchScale = 500

func benchSpec(b *testing.B, name string) circuits.Spec {
	b.Helper()
	spec, err := circuits.SuiteSpec(name)
	if err != nil {
		b.Fatal(err)
	}
	spec.Scale = benchScale
	return spec
}

func fastFlowOpts() flows.Options {
	o := flows.DefaultOptions()
	o.Effort = layout.EffortLow
	o.Lambdas = []float64{0.5}
	return o
}

// BenchmarkTableI builds every circuit abstraction of Table I (HT, Gnet,
// Gseq, Gdf) for a c4-class design and reports their sizes.
func BenchmarkTableI(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c4"))
	b.ResetTimer()
	var sizes [4]int
	for i := 0; i < b.N; i++ {
		d := g.Design
		tr := hier.New(d)
		sg := seqgraph.Build(d, seqgraph.DefaultParams())
		decl := tr.Decluster(d.Root())
		gdf := dataflow.Build(sg, decl)
		sizes = [4]int{len(d.Hier), d.NumCells(), len(sg.Nodes), len(gdf.Nodes)}
	}
	b.ReportMetric(float64(sizes[0]), "HT_nodes")
	b.ReportMetric(float64(sizes[1]), "Gnet_cells")
	b.ReportMetric(float64(sizes[2]), "Gseq_nodes")
	b.ReportMetric(float64(sizes[3]), "Gdf_nodes")
}

// BenchmarkTableII runs the three flows over a two-circuit mini-suite and
// reports the Table II aggregates (WL geomean vs handFP, mean WNS%).
func BenchmarkTableII(b *testing.B) {
	gens := []*circuits.Generated{
		circuits.Generate(benchSpec(b, "c1")),
		circuits.Generate(benchSpec(b, "c8")),
	}
	opt := fastFlowOpts()
	b.ResetTimer()
	var sums []flows.Summary
	for i := 0; i < b.N; i++ {
		var rows []*flows.Metrics
		for _, g := range gens {
			for _, f := range []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP} {
				m, _, err := flows.Run(context.Background(), g, f, opt)
				if err != nil {
					b.Fatal(err)
				}
				rows = append(rows, m)
			}
		}
		flows.Normalize(rows)
		sums = flows.Summarize(rows)
	}
	for _, s := range sums {
		b.ReportMetric(s.WLGeoMean, "wlnorm_"+strings.ToLower(string(s.Flow)))
	}
}

// BenchmarkTableIII runs one flow on one circuit per sub-benchmark and
// reports the Table III row metrics.
func BenchmarkTableIII(b *testing.B) {
	for _, name := range []string{"c1", "c3", "c5", "c8"} {
		g := circuits.Generate(benchSpec(b, name))
		for _, f := range []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP} {
			b.Run(fmt.Sprintf("%s/%s", name, f), func(b *testing.B) {
				opt := fastFlowOpts()
				var m *flows.Metrics
				for i := 0; i < b.N; i++ {
					var err error
					m, _, err = flows.Run(context.Background(), g, f, opt)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(m.WirelengthM, "wl_m")
				b.ReportMetric(m.CongestionPct, "grc_pct")
				b.ReportMetric(-m.WNSPct, "neg_wns_pct")
				b.ReportMetric(-m.TNSns, "neg_tns_ns")
			})
		}
	}
}

// BenchmarkFig1 runs the multi-level floorplan of the 16-macro running
// example and reports the level count of the evolution.
func BenchmarkFig1(b *testing.B) {
	g := circuits.Fig1Design()
	opt := core.DefaultOptions()
	opt.Trace = true
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Place(context.Background(), g.Design, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Trace)), "levels")
	b.ReportMetric(float64(res.Flips), "flips")
}

// BenchmarkFig2 infers the ABCDX dataflow graph and reports the block-flow
// and macro-flow edge counts of Fig. 2.
func BenchmarkFig2(b *testing.B) {
	g := circuits.ABCDX()
	var bf, mf int
	for i := 0; i < b.N; i++ {
		blockFlow, macroFlow := hidap.DataflowEdges(g.Design, 2)
		bf, mf = len(blockFlow), len(macroFlow)
	}
	b.ReportMetric(float64(bf), "blockflow_edges")
	b.ReportMetric(float64(mf), "macroflow_edges")
}

// BenchmarkFig3 lays out ABCDX under the three lenses and reports the
// macro-chain span for each λ — the quantity Fig. 3 illustrates.
func BenchmarkFig3(b *testing.B) {
	g := circuits.ABCDX()
	d := g.Design
	chainIDs := []string{"A/ram0/mem", "B/ram0/mem", "C/ram0/mem", "D/ram0/mem"}
	for _, lambda := range []float64{1.0, 0.0, 0.5} {
		b.Run(fmt.Sprintf("lambda=%.1f", lambda), func(b *testing.B) {
			var span int64
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions()
				opt.Lambda = lambda
				opt.Seed = 7
				res, err := core.Place(context.Background(), d, opt)
				if err != nil {
					b.Fatal(err)
				}
				span = 0
				for j := 1; j < len(chainIDs); j++ {
					a := res.Placement.Center(d.CellByName(chainIDs[j-1]))
					c := res.Placement.Center(d.CellByName(chainIDs[j]))
					span += a.ManhattanDist(c)
				}
			}
			b.ReportMetric(float64(span)/1000, "chain_um")
		})
	}
}

// BenchmarkFig4 generates the shape curves of the Fig. 1 design (the block
// area model of Fig. 4) and reports the corner count of one group curve.
func BenchmarkFig4(b *testing.B) {
	g := circuits.Fig1Design()
	tr := hier.New(g.Design)
	grp := g.Design.NodeByPath("left/grp0")
	var corners int
	for i := 0; i < b.N; i++ {
		sc := core.GenerateShapeCurves(context.Background(), tr, 1)
		corners = sc.ByNode[grp].Len()
	}
	b.ReportMetric(float64(corners), "pareto_corners")
}

// BenchmarkFig7 builds Gseq and Gdf for a suite circuit — the inference
// pipeline of Fig. 7 — and reports histogram mass.
func BenchmarkFig7(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c1"))
	d := g.Design
	tr := hier.New(d)
	decl := tr.Decluster(d.Root())
	b.ResetTimer()
	var bits int64
	for i := 0; i < b.N; i++ {
		sg := seqgraph.Build(d, seqgraph.DefaultParams())
		gdf := dataflow.Build(sg, decl)
		bits = 0
		for _, h := range gdf.BlockFlow {
			bits += h.TotalBits()
		}
	}
	b.ReportMetric(float64(bits), "blockflow_bits")
}

// BenchmarkFig8 evaluates the top-down area-budgeting layout generation on
// the Fig. 8 three-leaf example.
func BenchmarkFig8(b *testing.B) {
	blocks := []slicing.Block{
		{TargetArea: 3, MinArea: 3},
		{TargetArea: 3, MinArea: 3},
		{TargetArea: 3, MinArea: 3},
	}
	e := slicing.NewChain(3)
	budget := geom.RectXYWH(0, 0, 300, 300)
	var tiled int64
	for i := 0; i < b.N; i++ {
		ev := slicing.NewEvaluator(&e, blocks, slicing.DefaultEvalParams()).Eval(budget)
		tiled = 0
		for _, r := range ev.Rects {
			tiled += r.Area()
		}
	}
	b.ReportMetric(float64(tiled), "tiled_area")
}

// BenchmarkFig9 produces the density map of a c3-class circuit under HiDaP
// and reports the peak standard-cell density near macros (the quantity
// Fig. 9 compares across flows).
func BenchmarkFig9(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c3"))
	opt := fastFlowOpts()
	var peak float64
	for i := 0; i < b.N; i++ {
		_, pl, err := flows.Run(context.Background(), g, flows.FlowHiDaP, opt)
		if err != nil {
			b.Fatal(err)
		}
		dm := metrics.Density(pl, 32)
		peak = dm.Peak()
		if len(render.DensityASCII(dm)) == 0 {
			b.Fatal("empty density map")
		}
	}
	b.ReportMetric(peak, "peak_density")
}

// BenchmarkAblationLambda sweeps the block/macro flow blend on a c8-class
// circuit: the design choice behind the paper's best-of-three policy.
func BenchmarkAblationLambda(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c8"))
	for _, lambda := range []float64{0.0, 0.2, 0.5, 0.8, 1.0} {
		b.Run(fmt.Sprintf("lambda=%.1f", lambda), func(b *testing.B) {
			opt := fastFlowOpts()
			opt.Lambdas = []float64{lambda}
			var wl float64
			for i := 0; i < b.N; i++ {
				m, _, err := flows.Run(context.Background(), g, flows.FlowHiDaP, opt)
				if err != nil {
					b.Fatal(err)
				}
				wl = m.WirelengthM
			}
			b.ReportMetric(wl, "wl_m")
		})
	}
}

// BenchmarkAblationK sweeps the latency decay exponent of score(h, k).
func BenchmarkAblationK(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c1"))
	for _, k := range []float64{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("k=%.0f", k), func(b *testing.B) {
			var wl float64
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions()
				opt.K = k
				opt.Effort = layout.EffortLow
				res, err := core.Place(context.Background(), g.Design, opt)
				if err != nil {
					b.Fatal(err)
				}
				pl := res.Placement
				if err := place.Run(context.Background(), pl, place.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
				wl = metrics.WirelengthMeters(pl)
			}
			b.ReportMetric(wl, "wl_m")
		})
	}
}

// BenchmarkAblationEffort compares the annealing budgets.
func BenchmarkAblationEffort(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c1"))
	for _, eff := range []struct {
		name string
		e    layout.Effort
	}{{"low", layout.EffortLow}, {"medium", layout.EffortMedium}, {"high", layout.EffortHigh}} {
		b.Run(eff.name, func(b *testing.B) {
			var wl float64
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions()
				opt.Effort = eff.e
				res, err := core.Place(context.Background(), g.Design, opt)
				if err != nil {
					b.Fatal(err)
				}
				pl := res.Placement
				if err := place.Run(context.Background(), pl, place.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
				wl = metrics.WirelengthMeters(pl)
			}
			b.ReportMetric(wl, "wl_m")
		})
	}
}

// BenchmarkAblationMinBits sweeps the Gseq array-width filter (step 4 of
// the paper's §IV-D) and reports graph size against placement quality.
func BenchmarkAblationMinBits(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c1"))
	for _, mb := range []int32{0, 2, 8, 16} {
		b.Run(fmt.Sprintf("minbits=%d", mb), func(b *testing.B) {
			var wl float64
			var nodes int
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions()
				opt.SeqGraph = seqgraph.Build(g.Design, seqgraph.Params{MinBits: mb})
				opt.Effort = layout.EffortLow
				res, err := core.Place(context.Background(), g.Design, opt)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.SeqStats.Nodes
				pl := res.Placement
				if err := place.Run(context.Background(), pl, place.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
				wl = metrics.WirelengthMeters(pl)
			}
			b.ReportMetric(wl, "wl_m")
			b.ReportMetric(float64(nodes), "gseq_nodes")
		})
	}
}

// BenchmarkAblationFlat compares multi-level placement against the flat
// single-level ablation (the paper's first contribution isolated).
func BenchmarkAblationFlat(b *testing.B) {
	g := circuits.Generate(benchSpec(b, "c1"))
	for _, mode := range []struct {
		name string
		flat bool
	}{{"multilevel", false}, {"flat", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var wl float64
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions()
				opt.Flat = mode.flat
				opt.Effort = layout.EffortLow
				res, err := core.Place(context.Background(), g.Design, opt)
				if err != nil {
					b.Fatal(err)
				}
				pl := res.Placement
				if err := place.Run(context.Background(), pl, place.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
				wl = metrics.WirelengthMeters(pl)
			}
			b.ReportMetric(wl, "wl_m")
		})
	}
}
