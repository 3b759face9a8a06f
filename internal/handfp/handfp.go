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
	"math/rand"

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
	// RefineRounds is the annealing budget of the local refinement
	// (default 160 rounds; experts iterate for weeks).
	RefineRounds int
}

// DefaultOptions returns the standard expert effort.
func DefaultOptions() Options { return Options{RefineRounds: 160} }

// Place realizes the handcrafted floorplan. A cancelled ctx aborts the
// refinement anneal and returns ctx.Err().
func Place(ctx context.Context, d *netlist.Design, intent Intent, opt Options) (*placement.Placement, error) {
	pl := placement.New(d)
	macros := d.Macros()
	for _, m := range macros {
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
	refine(ctx, pl, macros, opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	legalize.Macros(pl, d.Die)
	pl.FlipForPinWL(macros)
	return pl, nil
}

// refine locally improves macro positions on macro-incident netlist
// wirelength: small slides only, so the expert's global structure is kept.
func refine(ctx context.Context, pl *placement.Placement, macros []netlist.CellID, opt Options) {
	if len(macros) == 0 {
		return
	}
	d := pl.D
	die := d.Die
	rounds := opt.RefineRounds
	if rounds <= 0 {
		rounds = 80
	}

	bonds := mbonds.Extract(d, mbonds.DefaultParams())
	overlapW := float64(die.W+die.H) / 32
	cost := func() float64 {
		sum := mbonds.WL(pl, bonds)
		for i, m := range macros {
			rm := pl.Rect(m)
			for _, o := range macros[i+1:] {
				if ov := rm.Intersect(pl.Rect(o)).Area(); ov > 0 {
					sum += overlapW * float64(ov) / float64(die.W)
				}
			}
		}
		return sum
	}

	step := die.W / 16 // experts move things around freely
	perturb := func(rng *rand.Rand) func() {
		switch rng.Intn(4) {
		case 0: // swap two macros (positions exchanged, clamped)
			mi := macros[rng.Intn(len(macros))]
			mj := macros[rng.Intn(len(macros))]
			oi, oj := pl.Orient[mi], pl.Orient[mj]
			pi, pj := pl.Pos[mi], pl.Pos[mj]
			ri := geom.RectXYWH(pj.X, pj.Y, pl.Rect(mi).W, pl.Rect(mi).H).ClampInside(die)
			rj := geom.RectXYWH(pi.X, pi.Y, pl.Rect(mj).W, pl.Rect(mj).H).ClampInside(die)
			pl.PlaceOriented(mi, geom.Pt(ri.X, ri.Y), oi)
			pl.PlaceOriented(mj, geom.Pt(rj.X, rj.Y), oj)
			return func() {
				pl.PlaceOriented(mi, pi, oi)
				pl.PlaceOriented(mj, pj, oj)
			}
		default: // slide one macro
			m := macros[rng.Intn(len(macros))]
			old := pl.Pos[m]
			o := pl.Orient[m] // slides never change orientation
			dx := rng.Int63n(2*step+1) - step
			dy := rng.Int63n(2*step+1) - step
			r := pl.Rect(m).Translate(dx, dy).ClampInside(die)
			pl.PlaceOriented(m, geom.Pt(r.X, r.Y), o)
			return func() { pl.PlaceOriented(m, old, o) }
		}
	}

	bestPos := make([]geom.Point, len(macros))
	bestOri := make([]geom.Orient, len(macros))
	snapshot := func() {
		for i, m := range macros {
			bestPos[i] = pl.Pos[m]
			bestOri[i] = pl.Orient[m]
		}
	}
	anneal.Run(ctx, anneal.Options{
		Seed: opt.Seed, MovesPerRound: 48, MaxRounds: rounds, Alpha: 0.95, StallRounds: 40,
	}, cost, perturb, snapshot)
	for i, m := range macros {
		pl.PlaceOriented(m, bestPos[i], bestOri[i])
	}
}
