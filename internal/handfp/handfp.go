// Package handfp is the "handcrafted floorplan" oracle of the paper's
// evaluation (the handFP flow of Tables II/III). The weeks of expert
// iteration are simulated by starting from the designer's planted intent —
// the synthetic circuit generator records where its architect meant every
// macro to go — followed by local refinement of macro positions on real
// netlist wirelength and a flipping pass.
package handfp

import (
	"context"
	"fmt"

	"repro/internal/anneal"
	"repro/internal/geom"
	"repro/internal/legalize"
	"repro/internal/mbonds"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// Intent maps macro cell names to their intended placed outline.
type Intent map[string]geom.Rect

// Options tunes the refinement.
type Options struct {
	Seed int64
}

// refineRounds is the annealing budget of the local refinement.
const refineRounds = 80

// Place realizes the handcrafted floorplan. A cancelled ctx aborts the
// refinement anneal and returns ctx.Err().
func Place(ctx context.Context, d *netlist.Design, intent Intent, opt Options) (*placement.Placement, error) {
	pl, err := pinIntent(d, intent)
	if err != nil {
		return nil, err
	}
	macros := d.Macros()
	refine(ctx, pl, macros, opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	legalize.Macros(pl, d.Die)
	pl.FlipMacros(macros, nil, nil, 1)
	return pl, nil
}

// pinIntent places every macro at its intended outline, rotated when the
// outline is the macro's transpose, and legalizes the result.
func pinIntent(d *netlist.Design, intent Intent) (*placement.Placement, error) {
	pl := placement.New(d)
	for _, m := range d.Macros() {
		r, ok := intent[d.Cell(m).Name]
		if !ok {
			return nil, fmt.Errorf("handfp: no intent for macro %s", d.Cell(m).Name)
		}
		o := geom.R0
		c := d.Cell(m)
		if r.W == c.Height && r.H == c.Width && c.Width != c.Height {
			o = geom.R90
		}
		pl.PlaceOriented(m, geom.Pt(r.X, r.Y), o)
	}
	legalize.Macros(pl, d.Die)
	return pl, nil
}

// refine locally improves macro positions on macro-incident netlist
// wirelength: swaps and small slides (three draws in four), so the
// expert's global structure is kept.
func refine(ctx context.Context, pl *placement.Placement, macros []netlist.CellID, opt Options) {
	die := pl.D.Die
	mbonds.Refine(ctx, pl, macros, mbonds.Extract(pl.D), mbonds.RefineParams{
		OverlapW: float64(die.W+die.H) / 32,
		Step:     die.W / 16, // experts move things around freely
		Slides:   3,
	}, anneal.Options{
		Seed: opt.Seed, MovesPerRound: 48, MaxRounds: refineRounds, Alpha: 0.95, StallRounds: 40,
	})
}
