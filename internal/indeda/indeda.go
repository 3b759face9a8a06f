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
	// positions to keep the core area open; the paper's setup uses 0.4).
	// Zero drops the wall term and the snap-to-wall move.
	WallWeight float64
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
	packPeriphery(pl, macros)
	refine(ctx, pl, macros, opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	legalize.Macros(pl, d.Die)
	pl.FlipMacros(macros, nil, nil, 1)
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
	die := pl.D.Die
	bonds := mbonds.Extract(pl.D)
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
	// Wall distance is scaled to compete with a typical bond; overlap area
	// to the die's perimeter. Macros hold R0 here (packPeriphery places
	// them so), which the refinement keeps.
	mbonds.Refine(ctx, pl, macros, bonds, mbonds.RefineParams{
		OverlapW: float64(die.W+die.H) / 64 * meanBondW,
		Step:     die.W / 10,
		Slides:   1,
		WallW:    opt.WallWeight * meanBondW,
	}, sa)
}
