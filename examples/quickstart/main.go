// Quickstart: the paper's running example (Fig. 1) end to end, as one
// evaluating Engine job.
//
// A sixteen-macro design is floorplanned with the "hidap" flow; the
// program streams per-level progress, prints the multi-level evolution of
// the block floorplan (first partition, recursive partitions, final macro
// coordinates) and writes one SVG per level plus the final floorplan,
// ending with the unified evaluation report.
//
//	go run ./examples/quickstart
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
	g := circuits.Fig1Design()
	d := g.Design
	fmt.Printf("design %s: %d macros, %d cells, die %.1f x %.1f mm\n",
		d.Name, len(d.Macros()), d.NumCells(),
		float64(d.Die.W)/1e6, float64(d.Die.H)/1e6)

	// Step 1 of the flow: what does the first partition see? (Fig. 1a)
	names, counts := hidap.TopBlocks(d)
	fmt.Println("\nfirst partition (hierarchical declustering):")
	for i := range names {
		kind := "standard cells"
		if counts[i] > 0 {
			kind = fmt.Sprintf("%d macros", counts[i])
		}
		fmt.Printf("  block %-8s %s\n", names[i], kind)
	}

	// Run the full flow with per-level tracing and progress streaming, then
	// place the standard cells and measure: one evaluating Engine job. The
	// one-worker engine leaves the job's scheduler free to use every core.
	cfg := hidap.NewConfig(
		hidap.WithSeed(1),
		hidap.WithTrace(),
		hidap.WithProgress(func(ev hidap.Progress) {
			if ev.Stage == hidap.StageLevel {
				fmt.Printf("  [progress] level %d: %q (%d blocks)\n", ev.Level, ev.Path, ev.Blocks)
			}
		}),
	)
	eng := hidap.NewEngine(cfg, hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	res, err := eng.Run(ctx, hidap.Job{Design: d, Placer: "hidap", Evaluate: true})
	if err != nil {
		log.Fatal(err)
	}
	pl, stats, rep := res.Placement, res.Stats, res.Report
	fmt.Printf("\nHiDaP placed %d macros across %d levels (%d flips) in %.2fs\n",
		len(d.Macros()), stats.Levels, stats.Flips, stats.MacroSeconds)

	// The Fig. 1 evolution: one SVG per recursion level.
	for i, lv := range stats.Trace {
		path := fmt.Sprintf("quickstart_level%d.svg", i)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		hidap.WriteTraceSVG(f, d.Die, lv)
		f.Close()
		fmt.Printf("  level %d (depth %d, %q): %d blocks -> %s\n",
			i, lv.Depth, lv.Path, len(lv.Blocks), path)
	}

	// Final coordinates (Fig. 1d).
	fmt.Println("\nfinal macro placement:")
	for _, m := range d.Macros() {
		r := pl.Rect(m)
		fmt.Printf("  %-22s at (%7d,%7d) %s\n",
			d.Cell(m).Name, r.X, r.Y, pl.Orient[m])
	}

	f, err := os.Create("quickstart_floorplan.svg")
	if err != nil {
		log.Fatal(err)
	}
	hidap.WriteFloorplanSVG(f, pl)
	f.Close()

	// Metrics after standard-cell placement: one Report for everything.
	fmt.Printf("\nafter cell placement: WL %.4f m, GRC %.2f%%, WNS %.1f%%, TNS %.1f ns\n",
		rep.WirelengthM, rep.CongestionPct, rep.WNSPct, rep.TNSns)
	fmt.Println("report as JSON:")
	if err := rep.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart_floorplan.svg")
}
