// Package indeda is the "industrial EDA floorplanner" baseline of the
// paper's evaluation (the IndEDA flow of Tables II/III): a competent but
// RTL-blind macro placer. It sees only the flat netlist — no hierarchy, no
// array/dataflow information — and follows the de-facto industrial recipe
// the paper describes: macros packed against the die walls, refined by
// simulated annealing on netlist wirelength with the standard-cell mass
// approximated at the die center.
package indeda

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/anneal"
	"repro/internal/geom"
	"repro/internal/legalize"
	"repro/internal/mbonds"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/sched"
)

// refineStream tags the seed stream of the annealing refinement under the
// user seed (see sched.Derive).
const refineStream int64 = 1

// Options tunes the baseline.
type Options struct {
	// Seed drives the annealing.
	Seed int64
	// HighEffort enables the paper's "high effort settings".
	HighEffort bool
	// WallWeight is the attraction of macros to the nearest die edge,
	// relative to wirelength (industrial tools strongly prefer wall
	// positions to keep the core area open).
	WallWeight float64
}

// DefaultOptions mirrors the paper's setup (high effort).
func DefaultOptions() Options {
	return Options{HighEffort: true, WallWeight: 0.4}
}

// Place produces a macro placement. Ports must already be fixed (they are
// read from the design); standard cells are left to the cell placer. A
// cancelled ctx aborts the annealing refinement and returns ctx.Err().
func Place(ctx context.Context, d *netlist.Design, opt Options) (*placement.Placement, error) {
	pl := placement.New(d)
	macros := d.Macros()
	if len(macros) == 0 {
		return pl, nil
	}
	if opt.WallWeight == 0 {
		opt.WallWeight = 0.4
	}

	packPeriphery(pl, macros)
	refine(ctx, pl, macros, opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	legalize.Macros(pl, d.Die)
	pl.FlipForPinWL(macros)
	return pl, nil
}

// packPeriphery places macros greedily along the four die walls, biggest
// first, leaving the core open for standard cells — the initial layout an
// industrial floorplanner produces.
func packPeriphery(pl *placement.Placement, macros []netlist.CellID) {
	d := pl.D
	die := d.Die
	order := append([]netlist.CellID(nil), macros...)
	sort.Slice(order, func(i, j int) bool {
		ai, aj := d.Cell(order[i]).Area(), d.Cell(order[j]).Area()
		if ai != aj {
			return ai > aj
		}
		return order[i] < order[j]
	})

	// Wall cursors: how far along each wall has been consumed, and the
	// strip depth of the current wall.
	type wall struct {
		used  int64
		depth int64
	}
	walls := [4]wall{} // 0=S, 1=N, 2=W, 3=E
	wallLen := [4]int64{die.W, die.W, die.H, die.H}

	wi := 0
	for _, m := range order {
		c := d.Cell(m)
		// Try walls round-robin until the macro fits along one.
		placed := false
		for try := 0; try < 4 && !placed; try++ {
			w := (wi + try) % 4
			horiz := w < 2
			ext := c.Width
			dep := c.Height
			if !horiz {
				ext = c.Height
				dep = c.Width
			}
			if walls[w].used+ext > wallLen[w] {
				continue
			}
			var pos geom.Point
			switch w {
			case 0: // south wall, left to right
				pos = geom.Pt(die.X+walls[w].used, die.Y)
			case 1: // north wall
				pos = geom.Pt(die.X+walls[w].used, die.Y2()-c.Height)
			case 2: // west wall, bottom to top
				pos = geom.Pt(die.X, die.Y+walls[w].used)
			case 3: // east wall
				pos = geom.Pt(die.X2()-c.Width, die.Y+walls[w].used)
			}
			pl.Place(m, pos)
			walls[w].used += ext
			if dep > walls[w].depth {
				walls[w].depth = dep
			}
			placed = true
			wi = (w + 1) % 4
		}
		if !placed {
			// Walls exhausted: drop into the core near the center; the
			// annealer and legalizer will sort it out.
			ctr := die.Center()
			pl.Place(m, geom.Pt(ctr.X-c.Width/2, ctr.Y-c.Height/2))
		}
	}
}

// refine anneals macro positions on netlist-derived connectivity: macro
// bonds extracted from the flat netlist (a few register hops, bus-width
// weighted — see package mbonds), plus the industrial wall preference and
// an overlap penalty. This is the connectivity picture a commercial,
// RTL-blind floorplanner optimizes before cell placement.
func refine(ctx context.Context, pl *placement.Placement, macros []netlist.CellID, opt Options) {
	d := pl.D
	die := d.Die
	bonds := mbonds.Extract(d, mbonds.DefaultParams())
	meanBondW := 1.0
	if len(bonds) > 0 {
		var t float64
		for i := range bonds {
			t += bonds[i].W
		}
		meanBondW = t / float64(len(bonds))
	}

	// A commercial floorplanner's "high effort" is still a quick generic
	// pass relative to a dedicated optimizer; the schedules are sized so
	// that runtimes stay in the paper's 10-30 minute class proportionally.
	// The refine stage gets its own derived stream (stream 1 under the
	// user seed) so adding another randomized stage later cannot silently
	// correlate with — or shift — this one.
	sa := anneal.Options{Seed: sched.Derive(opt.Seed, refineStream), MovesPerRound: 12, MaxRounds: 25, Alpha: 0.88, StallRounds: 8}
	if opt.HighEffort {
		sa.MovesPerRound = 24
		sa.MaxRounds = 50
		sa.Alpha = 0.9
		sa.StallRounds = 12
	}
	r := refiner{
		pl: pl, macros: macros, bonds: bonds, die: die,
		// Wall distance is scaled to compete with a typical bond; overlap
		// area to the die's perimeter.
		wallW:    opt.WallWeight * meanBondW,
		overlapW: float64(die.W+die.H) / 64 * meanBondW,
		step:     die.W / 10,
		best:     make([]geom.Point, len(macros)),
	}
	anneal.RunModel(ctx, sa, &r)
	for i, m := range macros {
		pl.Place(m, r.best[i])
	}
}

// refiner is the refine anneal as an anneal.Model over the placement.
// Propose journals the (macro, old position) pairs its move overwrote, so
// Undo restores them in reverse.
type refiner struct {
	pl       *placement.Placement
	macros   []netlist.CellID
	bonds    []mbonds.Bond
	die      geom.Rect
	wallW    float64
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
	pl, die := rf.pl, rf.die
	sum := mbonds.WL(pl, rf.bonds)
	// Wall preference: distance to nearest edge.
	for _, m := range rf.macros {
		r := pl.Rect(m)
		edge := min4(r.X-die.X, die.X2()-r.X2(), r.Y-die.Y, die.Y2()-r.Y2())
		sum += rf.wallW * float64(edge)
	}
	// Overlap penalty.
	for i, m := range rf.macros {
		r := pl.Rect(m)
		for _, o := range rf.macros[i+1:] {
			if ov := r.Intersect(pl.Rect(o)).Area(); ov > 0 {
				sum += rf.overlapW * float64(ov) / float64(die.W)
			}
		}
	}
	return sum
}

func (rf *refiner) Propose(rng *rand.Rand) float64 {
	pl, die, macros := rf.pl, rf.die, rf.macros
	switch rng.Intn(3) {
	case 0: // swap two macros (clamped: outlines differ)
		i, j := rng.Intn(len(macros)), rng.Intn(len(macros))
		mi, mj := macros[i], macros[j]
		pi, pj := pl.Pos[mi], pl.Pos[mj]
		ri := geom.RectXYWH(pj.X, pj.Y, pl.Rect(mi).W, pl.Rect(mi).H).ClampInside(die)
		rj := geom.RectXYWH(pi.X, pi.Y, pl.Rect(mj).W, pl.Rect(mj).H).ClampInside(die)
		pl.Place(mi, geom.Pt(ri.X, ri.Y))
		pl.Place(mj, geom.Pt(rj.X, rj.Y))
		rf.moved, rf.n = [2]movedMacro{{mi, pi}, {mj, pj}}, 2
	case 1: // translate one macro
		m := macros[rng.Intn(len(macros))]
		old := pl.Pos[m]
		dx := rng.Int63n(2*rf.step+1) - rf.step
		dy := rng.Int63n(2*rf.step+1) - rf.step
		r := pl.Rect(m).Translate(dx, dy).ClampInside(die)
		pl.Place(m, geom.Pt(r.X, r.Y))
		rf.moved[0], rf.n = movedMacro{m, old}, 1
	default: // snap one macro to the nearest wall
		m := macros[rng.Intn(len(macros))]
		old := pl.Pos[m]
		r := pl.Rect(m)
		dl := r.X - die.X
		dr := die.X2() - r.X2()
		db := r.Y - die.Y
		dt := die.Y2() - r.Y2()
		switch min4(dl, dr, db, dt) {
		case dl:
			r.X = die.X
		case dr:
			r.X = die.X2() - r.W
		case db:
			r.Y = die.Y
		default:
			r.Y = die.Y2() - r.H
		}
		pl.Place(m, geom.Pt(r.X, r.Y))
		rf.moved[0], rf.n = movedMacro{m, old}, 1
	}
	return rf.Cost()
}

func (rf *refiner) Undo() {
	for k := rf.n - 1; k >= 0; k-- {
		rf.pl.Place(rf.moved[k].m, rf.moved[k].old)
	}
	rf.n = 0
}

func (rf *refiner) Snapshot() {
	for i, m := range rf.macros {
		rf.best[i] = rf.pl.Pos[m]
	}
}

func min4(a, b, c, d int64) int64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	if d < m {
		m = d
	}
	return m
}
