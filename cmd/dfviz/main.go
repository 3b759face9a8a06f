// Command dfviz renders the dataflow graph Gdf of a circuit as SVG — the
// static counterpart of the paper's interactive dataflow visualization
// (Fig. 9d). It declusters the requested hierarchy level, infers block and
// macro flow, and draws blocks at their HiDaP positions with
// affinity-weighted edges.
//
// Usage:
//
//	dfviz -circuit c3 -out c3_gdf.svg
//	dfviz -circuit c5 -node sub2 -lambda 0.8 -out sub2.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/flows"
	"repro/internal/geom"
	"repro/internal/outfile"
	"repro/internal/render"
)

func main() {
	var (
		ckt    = flag.String("circuit", "c3", "suite circuit name")
		scale  = flag.Int("scale", 50, "cell-count divisor")
		node   = flag.String("node", "", "hierarchy path to visualize (default: top)")
		lambda = flag.Float64("lambda", 0.5, "affinity blend λ")
		k      = flag.Float64("k", 2, "latency decay exponent")
		out    = flag.String("out", "gdf.svg", "output SVG path")
		seed   = flag.Int64("seed", 1, "seed for the block layout")
	)
	flag.Parse()

	spec, err := circuits.SuiteSpec(*ckt)
	if err != nil {
		fatal(err)
	}
	spec.Scale = *scale
	g := circuits.Generate(spec)
	d := g.Design

	nh := d.Root()
	if *node != "" {
		if nh = d.NodeByPath(*node); nh == -1 {
			fatal(fmt.Errorf("hierarchy node %q not found", *node))
		}
	}

	// The Gdf and the placement below read one Gseq and hierarchy tree.
	art := core.NewArtifacts(d, g.SeqGraph)
	decl := art.Tree().Decluster(nh)
	gdf := dataflow.Build(art.SeqGraph(), decl)
	pairs := gdf.Pairs(dataflow.Params{Lambda: *lambda, K: *k})

	// Block positions from a traced HiDaP run (the floorplan of Fig. 9d).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := flows.DefaultOptions()
	opt.Lambda = *lambda
	opt.K = *k
	opt.Seed = *seed
	opt.Trace = true
	_, run, err := flows.Place(ctx, art, flows.FlowHiDaP, nil, opt, nil)
	if err != nil {
		fatal(err)
	}
	var rects []geom.Rect
	region := d.Die
	for _, lv := range run.Trace {
		if (lv.Path == "" && *node == "") || lv.Path == *node {
			region = lv.Region
			for _, b := range lv.Blocks {
				rects = append(rects, b.Rect)
			}
			break
		}
	}
	if rects == nil {
		// Level was not floorplanned (single block): tile uniformly.
		for i := range decl.Blocks {
			w := region.W / int64(len(decl.Blocks))
			rects = append(rects, geom.RectXYWH(region.X+int64(i)*w, region.Y, w, region.H))
		}
	}

	if err := outfile.Write(*out, func(w io.Writer) error {
		render.Dataflow(w, region, gdf, pairs, rects, nil, 800)
		return nil
	}); err != nil {
		fatal(err)
	}

	st := gdf.Stats()
	fmt.Printf("dfviz: %s level %q: %d blocks, %d ports, %d ext macros, %d block-flow + %d macro-flow edges -> %s\n",
		spec.Name, *node, st.Blocks, st.Ports, st.ExtMacros, st.BlockEdges, st.MacroEdges, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfviz:", err)
	os.Exit(1)
}
