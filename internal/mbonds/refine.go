package mbonds

import (
	"context"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// RefineParams weighs and moves the refinement anneal.
type RefineParams struct {
	// OverlapW weighs each macro pair's overlap area, divided by the die
	// width.
	OverlapW float64
	// Step bounds a slide's displacement on each axis.
	Step int64
	// Slides is how many of a move's equally likely kinds slide one macro;
	// one more kind swaps two macros.
	Slides int
	// WallW, when nonzero, adds WallW × the distance to the nearest die edge
	// for every macro, and one more move kind that snaps a macro to that
	// edge.
	WallW float64
}

// Refine anneals the positions of macros on bond wirelength plus the
// overlap (and wall) terms of p, and leaves the best state found on pl.
// Moves keep every orientation. A cancelled ctx stops the anneal early;
// the caller checks ctx.Err().
func Refine(ctx context.Context, pl *placement.Placement, macros []netlist.CellID, bonds []Bond, p RefineParams, sa anneal.Options) {
	if len(macros) == 0 {
		return
	}
	rf := newRefiner(pl, macros, bonds, p)
	anneal.RunModel(ctx, sa, rf)
	for i, m := range macros {
		pl.PlaceOriented(m, rf.best[i], pl.Orient[m])
	}
}

// refiner is the refinement anneal as an anneal.Model over the placement.
// Propose journals the (macro, old position) pairs its move overwrote, so
// Undo restores them in reverse.
type refiner struct {
	pl     *placement.Placement
	macros []netlist.CellID
	bonds  []Bond
	die    geom.Rect
	p      RefineParams
	kinds  int // move kinds drawn: swap, Slides slides, and snap with a wall term

	moved [2]movedMacro
	n     int
	best  []geom.Point
	rects []geom.Rect // Cost's macro outlines, one per macro
}

// movedMacro is one journaled position overwrite.
type movedMacro struct {
	m   netlist.CellID
	old geom.Point
}

func newRefiner(pl *placement.Placement, macros []netlist.CellID, bonds []Bond, p RefineParams) *refiner {
	kinds := 1 + p.Slides
	if p.WallW != 0 {
		kinds++
	}
	return &refiner{
		pl: pl, macros: macros, bonds: bonds, die: pl.D.Die, p: p, kinds: kinds,
		best: make([]geom.Point, len(macros)), rects: make([]geom.Rect, len(macros)),
	}
}

// Cost reads each macro's outline once, then sums the wall terms and the
// all-pairs overlap scan over those outlines.
func (rf *refiner) Cost() float64 {
	pl, die, rects := rf.pl, rf.die, rf.rects
	sum := WL(pl, rf.bonds)
	for i, m := range rf.macros {
		rects[i] = pl.Rect(m)
	}
	if rf.p.WallW != 0 {
		for _, r := range rects {
			edge := min(r.X-die.X, die.X2()-r.X2(), r.Y-die.Y, die.Y2()-r.Y2())
			sum += rf.p.WallW * float64(edge)
		}
	}
	for i, r := range rects {
		for _, o := range rects[i+1:] {
			if ov := r.Intersect(o).Area(); ov > 0 {
				sum += rf.p.OverlapW * float64(ov) / float64(die.W)
			}
		}
	}
	return sum
}

//hidapvet:hotpath
func (rf *refiner) Propose(rng *rand.Rand) float64 {
	pl, die, macros := rf.pl, rf.die, rf.macros
	switch k := rng.Intn(rf.kinds); {
	case k == 0: // swap two macros (clamped: outlines differ)
		mi := macros[rng.Intn(len(macros))]
		mj := macros[rng.Intn(len(macros))]
		pi, pj := pl.Pos[mi], pl.Pos[mj]
		ri := geom.RectXYWH(pj.X, pj.Y, pl.Rect(mi).W, pl.Rect(mi).H).ClampInside(die)
		rj := geom.RectXYWH(pi.X, pi.Y, pl.Rect(mj).W, pl.Rect(mj).H).ClampInside(die)
		rf.place(mi, ri)
		rf.place(mj, rj)
		rf.moved, rf.n = [2]movedMacro{{mi, pi}, {mj, pj}}, 2
	case k <= rf.p.Slides: // slide one macro
		m := macros[rng.Intn(len(macros))]
		old := pl.Pos[m]
		dx := rng.Int63n(2*rf.p.Step+1) - rf.p.Step
		dy := rng.Int63n(2*rf.p.Step+1) - rf.p.Step
		rf.place(m, pl.Rect(m).Translate(dx, dy).ClampInside(die))
		rf.moved[0], rf.n = movedMacro{m, old}, 1
	default: // snap one macro to the nearest wall
		m := macros[rng.Intn(len(macros))]
		old := pl.Pos[m]
		r := pl.Rect(m)
		dl := r.X - die.X
		dr := die.X2() - r.X2()
		db := r.Y - die.Y
		dt := die.Y2() - r.Y2()
		switch min(dl, dr, db, dt) {
		case dl:
			r.X = die.X
		case dr:
			r.X = die.X2() - r.W
		case db:
			r.Y = die.Y
		default:
			r.Y = die.Y2() - r.H
		}
		rf.place(m, r)
		rf.moved[0], rf.n = movedMacro{m, old}, 1
	}
	return rf.Cost()
}

// place moves macro m to the lower-left corner of r, keeping its
// orientation.
func (rf *refiner) place(m netlist.CellID, r geom.Rect) {
	rf.pl.PlaceOriented(m, geom.Pt(r.X, r.Y), rf.pl.Orient[m])
}

//hidapvet:hotpath
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
