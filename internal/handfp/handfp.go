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

	r := refiner{
		pl: pl, macros: macros, die: die,
		bonds:    mbonds.Extract(d, mbonds.DefaultParams()),
		overlapW: float64(die.W+die.H) / 32,
		step:     die.W / 16, // experts move things around freely
		best:     make([]geom.Point, len(macros)),
	}
	anneal.RunModel(ctx, anneal.Options{
		Seed: opt.Seed, MovesPerRound: 48, MaxRounds: rounds, Alpha: 0.95, StallRounds: 40,
	}, &r)
	// Refinement never changes an orientation, so the current one is the
	// best state's.
	for i, m := range macros {
		pl.PlaceOriented(m, r.best[i], pl.Orient[m])
	}
}

// refiner is the refine anneal as an anneal.Model over the placement.
// Propose journals the (macro, old position) pairs its move overwrote, so
// Undo restores them in reverse. Moves keep every orientation.
type refiner struct {
	pl       *placement.Placement
	macros   []netlist.CellID
	bonds    []mbonds.Bond
	die      geom.Rect
	overlapW float64
	step     int64

	moved [2]movedMacro
	n     int
	best  []geom.Point
}

// movedMacro is one journaled position overwrite.
type movedMacro struct {
	m   netlist.CellID
	old geom.Point
}

func (rf *refiner) Cost() float64 {
	pl := rf.pl
	sum := mbonds.WL(pl, rf.bonds)
	for i, m := range rf.macros {
		r := pl.Rect(m)
		for _, o := range rf.macros[i+1:] {
			if ov := r.Intersect(pl.Rect(o)).Area(); ov > 0 {
				sum += rf.overlapW * float64(ov) / float64(rf.die.W)
			}
		}
	}
	return sum
}

func (rf *refiner) Propose(rng *rand.Rand) float64 {
	pl, die, macros := rf.pl, rf.die, rf.macros
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
		rf.moved, rf.n = [2]movedMacro{{mi, pi}, {mj, pj}}, 2
	default: // slide one macro
		m := macros[rng.Intn(len(macros))]
		old := pl.Pos[m]
		o := pl.Orient[m] // slides never change orientation
		dx := rng.Int63n(2*rf.step+1) - rf.step
		dy := rng.Int63n(2*rf.step+1) - rf.step
		r := pl.Rect(m).Translate(dx, dy).ClampInside(die)
		pl.PlaceOriented(m, geom.Pt(r.X, r.Y), o)
		rf.moved[0], rf.n = movedMacro{m, old}, 1
	}
	return rf.Cost()
}

func (rf *refiner) Undo() {
	for k := rf.n - 1; k >= 0; k-- {
		mv := rf.moved[k]
		rf.pl.PlaceOriented(mv.m, mv.old, rf.pl.Orient[mv.m])
	}
	rf.n = 0
}

func (rf *refiner) Snapshot() {
	for i, m := range rf.macros {
		rf.best[i] = rf.pl.Pos[m]
	}
}
