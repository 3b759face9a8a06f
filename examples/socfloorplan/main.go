// Socfloorplan: the three placement flows compared on a mid-size SoC.
//
// A c5-class synthetic SoC (133 macros) is floorplanned by each flow of
// hidap.Placers() — the handcrafted oracle, HiDaP and the industrial-style
// baseline — as one evaluating job each on a single Engine, so the design's
// Gseq is built once; each job places the standard cells with the shared
// quadratic placer and measures the paper's Table III metrics. SVG
// floorplans and ASCII density maps (Fig. 9) come out alongside.
//
//	go run ./examples/socfloorplan
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/circuits"
	"repro/hidap"
)

func main() {
	ctx := context.Background()
	spec, err := circuits.SuiteSpec("c5")
	if err != nil {
		log.Fatal(err)
	}
	spec.Scale = 100 // keep the example snappy
	g := circuits.Generate(spec)
	d := g.Design
	st := d.Stats()
	fmt.Printf("SoC %s: %d cells, %d macros, die %.2f x %.2f mm\n\n",
		spec.Name, st.Cells, st.MacroCells,
		float64(d.Die.W)/1e6, float64(d.Die.H)/1e6)

	// The handfp flow needs the designer intent; the others ignore it.
	// Jobs run one at a time, each free to use every core.
	cfg := hidap.NewConfig(hidap.WithSeed(1), hidap.WithIntent(g.Intent))
	eng := hidap.NewEngine(cfg, hidap.EngineOptions{Workers: 1})
	defer eng.Close()

	fmt.Printf("%-8s %10s %8s %9s %10s\n", "flow", "WL(m)", "GRC%", "WNS%", "TNS(ns)")
	for _, name := range hidap.Placers() {
		res, err := eng.Run(ctx, hidap.Job{Design: d, Placer: name, Evaluate: true})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		pl, rep := res.Placement, res.Report
		fmt.Printf("%-8s %10.4f %8.2f %9.1f %10.1f\n",
			name, rep.WirelengthM, rep.CongestionPct, rep.WNSPct, rep.TNSns)

		svg := fmt.Sprintf("soc_%s.svg", name)
		f, err := os.Create(svg)
		if err != nil {
			log.Fatal(err)
		}
		hidap.WriteFloorplanSVG(f, pl)
		f.Close()

		fmt.Printf("\n%s standard-cell density (M = macro):\n%s\n",
			name, hidap.DensityASCII(pl, 20))
	}
	fmt.Println("wrote soc_handfp.svg, soc_hidap.svg, soc_indeda.svg")
}
