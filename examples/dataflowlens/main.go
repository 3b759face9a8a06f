// Dataflowlens: block flow vs macro flow (the paper's Figs. 2 and 3).
//
// The ABCDX system has four 2-macro blocks that all exchange data with a
// central standard-cell block X, while the macro dataflow chains
// A -> B -> C -> D through X's registers. Looking at the system through the
// block-flow lens alone (λ=1) the chain is invisible; through the
// macro-flow lens alone (λ=0) X's position is unconstrained. The blended
// affinity (λ=0.5) recovers the paper's Fig. 3c layout. This program prints
// both edge lists and compares the three placements.
//
//	go run ./examples/dataflowlens
package main

import (
	"context"
	"fmt"
	"log"

	"repro/circuits"
	"repro/hidap"
)

func main() {
	ctx := context.Background()
	g := circuits.ABCDX()
	d := g.Design

	blockFlow, macroFlow := hidap.DataflowEdges(d, 2)
	fmt.Println("block flow (Fig. 2a) — physical connections between blocks:")
	for _, e := range blockFlow {
		fmt.Printf("  %-4s -> %-4s %4d bits, latency %d, score %.1f\n",
			e.From, e.To, e.Bits, e.MinLatency, e.Score)
	}
	fmt.Println("\nmacro flow (Fig. 2b) — global dataflow between macros:")
	for _, e := range macroFlow {
		fmt.Printf("  %-4s -> %-4s %4d bits, latency %d, score %.1f\n",
			e.From, e.To, e.Bits, e.MinLatency, e.Score)
	}

	// One evaluating job per lens on one Engine, so the design's Gseq and
	// hierarchy tree are built once for all three.
	fmt.Println("\nlayouts under the three lenses (Fig. 3):")
	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	for _, lambda := range []float64{1.0, 0.0, 0.5} {
		cfg := hidap.NewConfig(hidap.WithLambda(lambda), hidap.WithSeed(7))
		res, err := eng.Run(ctx, hidap.Job{Design: d, Placer: "hidap", Evaluate: true, Config: cfg})
		if err != nil {
			log.Fatal(err)
		}
		chain := chainLength(d, res.Placement)
		fmt.Printf("  λ=%.1f  WL=%.4f m   A->B->C->D chain span %.0f µm  %s\n",
			lambda, res.Report.WirelengthM, float64(chain)/1000, lensName(lambda))
	}
}

// chainLength sums the macro-chain distances A->B->C->D (centers of the
// first macro of each block).
func chainLength(d *hidap.Design, pl *hidap.Placement) int64 {
	pos := func(name string) hidap.Point {
		id := d.CellByName(name)
		return pl.Center(id)
	}
	chain := []string{"A/ram0/mem", "B/ram0/mem", "C/ram0/mem", "D/ram0/mem"}
	var sum int64
	for i := 1; i < len(chain); i++ {
		sum += pos(chain[i-1]).ManhattanDist(pos(chain[i]))
	}
	return sum
}

func lensName(lambda float64) string {
	switch lambda {
	case 1.0:
		return "(block flow only: blocks hug X, chain order ignored — Fig. 3a)"
	case 0.0:
		return "(macro flow only: chain tight, X placement unconstrained — Fig. 3b)"
	default:
		return "(blended: chain follows dataflow around X — Fig. 3c)"
	}
}
