// Engine: the long-lived run model, end to end.
//
// One hidap.Engine fans a mini evaluation suite (two circuits × three
// flows) through its Workers-bounded slots with SubmitBatch, reports each
// job once the batch is done, and then shows the warm-cache effect: a second
// job on an already-served design skips Gseq construction and reuses the
// engine's pooled annealing scratch.
//
//	go run ./examples/engine
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/circuits"
	"repro/hidap"
)

func main() {
	ctx := context.Background()
	eng := hidap.NewEngine(
		hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1)),
		hidap.EngineOptions{Workers: 4},
	)
	defer eng.Close()

	// A mini suite: two scaled-down paper circuits, all three flows.
	c1, err := circuits.SuiteSpec("c1")
	if err != nil {
		log.Fatal(err)
	}
	c1.Scale = 1000
	c8, err := circuits.SuiteSpec("c8")
	if err != nil {
		log.Fatal(err)
	}
	c8.Scale = 1000

	fmt.Println("submitting 2 circuits x 3 flows through the engine:")
	batch, err := eng.SubmitBatch(ctx, hidap.Suite{Circuits: []circuits.Spec{c1, c8}})
	if err != nil {
		log.Fatal(err)
	}
	res, err := batch.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, tk := range batch.Tickets {
		fmt.Printf("  [done] %-18s state=%s\n", tk.Label(), tk.State())
	}

	fmt.Println("\nTable II over the mini suite:")
	for _, s := range res.Summaries {
		fmt.Printf("  %-8s WLnorm geomean %.3f, WNS mean %.1f%%\n", s.Flow, s.WLGeoMean, s.WNSMean)
	}

	// Warm-cache demo: two identical jobs on one design. The second one
	// finds the design and its sequential graph in the engine cache and
	// draws annealing scratch from the shared pool.
	d := circuits.Generate(c1).Design
	for _, run := range []string{"cold", "warm"} {
		start := time.Now()
		t, err := eng.Submit(ctx, hidap.Job{
			Design: d, Key: "demo", Placer: "hidap", Label: run,
			Config: hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(7)),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := t.Wait(ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s same-design job: %v", run, time.Since(start).Round(time.Millisecond))
	}
	st := eng.Stats()
	fmt.Printf("\n\nengine served %d jobs; %d cached designs, %d cached circuits\n",
		st.Completed, st.CachedDesigns, st.CachedCircuits)
}
