package place

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// spreadRef and bestNeighborRef are the straightforward forms of spread and
// bestNeighbor: every eviction order is sorted by recomputing cell centers,
// and every neighbor search restarts at radius 1. The differential test
// below requires the optimized forms to reproduce them exactly.
func (g *grid) spreadRef(pl *placement.Placement, movable []netlist.CellID) {
	d := pl.D
	const rounds = 3
	binCells := make([][]netlist.CellID, len(g.cap))
	for r := 0; r < rounds; r++ {
		for i := range g.load {
			g.load[i] = 0
			binCells[i] = binCells[i][:0]
		}
		for _, id := range movable {
			bx, by := g.binOf(pl.Center(id))
			bi := by*g.nx + bx
			g.load[bi] += float64(d.Cell(id).Area())
			binCells[bi] = append(binCells[bi], id)
		}
		moved := false
		for by := 0; by < g.ny; by++ {
			for bx := 0; bx < g.nx; bx++ {
				bi := by*g.nx + bx
				if g.load[bi] <= g.cap[bi] {
					continue
				}
				cells := binCells[bi]
				c := g.binRect(bx, by).Center()
				sort.Slice(cells, func(a, b int) bool {
					da := pl.Center(cells[a]).ManhattanDist(c)
					db := pl.Center(cells[b]).ManhattanDist(c)
					if da != db {
						return da > db
					}
					return cells[a] < cells[b]
				})
				for _, id := range cells {
					if g.load[bi] <= g.cap[bi] {
						break
					}
					tx, ty, ok := g.bestNeighborRef(bx, by)
					if !ok {
						break
					}
					ti := ty*g.nx + tx
					target := g.binRect(tx, ty).Center()
					area := float64(d.Cell(id).Area())
					pl.Place(id, geom.Pt(target.X-d.Cell(id).Width/2, target.Y-d.Cell(id).Height/2))
					g.load[bi] -= area
					g.load[ti] += area
					moved = true
				}
			}
		}
		if !moved {
			break
		}
	}
}

func (g *grid) bestNeighborRef(bx, by int) (int, int, bool) {
	maxR := g.nx
	if g.ny > maxR {
		maxR = g.ny
	}
	for r := 1; r <= maxR; r++ {
		bestSpare := 0.0
		bestX, bestY := -1, -1
		visit := func(nx, ny int) {
			if nx < 0 || nx >= g.nx || ny < 0 || ny >= g.ny {
				return
			}
			ni := ny*g.nx + nx
			if spare := g.cap[ni] - g.load[ni]; spare > bestSpare {
				bestSpare = spare
				bestX, bestY = nx, ny
			}
		}
		for dx := -r; dx <= r; dx++ {
			visit(bx+dx, by-r)
			visit(bx+dx, by+r)
		}
		for dy := -r + 1; dy <= r-1; dy++ {
			visit(bx-r, by+dy)
			visit(bx+r, by+dy)
		}
		if bestX >= 0 {
			return bestX, bestY, true
		}
	}
	return -1, -1, false
}

// randomSpreadCase builds a design with 1–6 macros, some covering most of
// the die, and a few hundred cells crowded around a few hotspots, so that
// overfull bins must reach past rings of blocked or full bins.
func randomSpreadCase(rng *rand.Rand) (*placement.Placement, []netlist.CellID, Options) {
	b := netlist.NewBuilder("spread")
	die := geom.RectXYWH(0, 0, 40_000+rng.Int63n(160_000), 40_000+rng.Int63n(160_000))
	b.SetDie(die)
	type outline struct{ w, h int64 }
	var macros []netlist.CellID
	var sizes []outline
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		lo, span := 0.05, 0.3
		if rng.Intn(3) == 0 {
			lo, span = 0.7, 0.25 // covers most of the die
		}
		w := int64(float64(die.W) * (lo + span*rng.Float64()))
		h := int64(float64(die.H) * (lo + span*rng.Float64()))
		macros = append(macros, b.AddMacro(fmt.Sprintf("m%d", i), w, h, ""))
		sizes = append(sizes, outline{w, h})
	}
	var movable []netlist.CellID
	for i, n := 0, 200+rng.Intn(300); i < n; i++ {
		movable = append(movable, b.AddComb(fmt.Sprintf("c%d", i), 500+rng.Int63n(20_000), ""))
	}
	d := b.MustBuild()
	pl := placement.New(d)
	for i, m := range macros {
		pl.Place(m, geom.Pt(rng.Int63n(die.W-sizes[i].w+1), rng.Int63n(die.H-sizes[i].h+1)))
	}
	hot := make([]geom.Point, 1+rng.Intn(4))
	for i := range hot {
		hot[i] = geom.Pt(rng.Int63n(die.W), rng.Int63n(die.H))
	}
	for _, id := range movable {
		p := geom.Pt(rng.Int63n(die.W), rng.Int63n(die.H))
		if rng.Intn(5) != 0 {
			h := hot[rng.Intn(len(hot))]
			p = geom.Pt(h.X+rng.Int63n(die.W/20+1), h.Y+rng.Int63n(die.H/20+1))
		}
		pl.Place(id, p)
	}
	opt := Options{GridBins: 8 + rng.Intn(41), TargetUtil: 0.35 + 0.45*rng.Float64()}
	return pl, movable, opt
}

// TestSpreadMatchesRef runs spread and spreadRef from the same start state on
// seeded random designs and requires identical cell positions and bin loads.
// Each design is spread twice, so the second call reuses the scratch.
func TestSpreadMatchesRef(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		pl, movable, opt := randomSpreadCase(rand.New(rand.NewSource(seed)))
		ref := pl.Clone()
		g, gRef := newGrid(pl.D, pl, opt), newGrid(pl.D, ref, opt)
		s := newScratch(pl.D, len(g.cap))
		for call := 0; call < 2; call++ {
			g.spread(pl, movable, s)
			gRef.spreadRef(ref, movable)
			if !slices.Equal(pl.Pos, ref.Pos) {
				t.Fatalf("seed %d call %d: cell positions differ from spreadRef", seed, call)
			}
			if !slices.Equal(g.load, gRef.load) {
				t.Fatalf("seed %d call %d: bin loads differ from spreadRef", seed, call)
			}
		}
	}
}
