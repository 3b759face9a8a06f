package place

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// runRef is the straightforward form of Run: it keeps every center in pl,
// placing cells as it goes, and runs solveRef, spreadRef and the reference
// cleanups on it.
func runRef(pl *placement.Placement, opt Options) {
	d := pl.D
	if opt.GridBins <= 0 {
		opt = DefaultOptions()
	}
	var movable []netlist.CellID
	for i := range d.Cells {
		switch d.Cells[i].Kind {
		case netlist.KindComb, netlist.KindFlop:
			movable = append(movable, netlist.CellID(i))
		}
	}
	for _, id := range movable {
		pl.Place(id, d.Die.Center())
	}
	if opt.TargetUtil <= 0 {
		opt.TargetUtil = deriveTargetUtil(d, pl)
	}
	g := newGrid(d, pl, opt)
	for iter := 0; iter < opt.Iterations; iter++ {
		keep := float64(iter) / float64(opt.Iterations+1)
		solveRef(pl, movable, opt.SolveSweeps, keep)
		g.spreadRef(pl, movable)
	}
	g.evictFromMacrosRef(pl, movable)
	for _, id := range movable {
		r := pl.Rect(id).ClampInside(d.Die)
		pl.Place(id, geom.Pt(r.X, r.Y))
	}
}

// evictFromMacrosRef pushes any cell centered on a macro to the nearest
// macro edge inside the die, placing it on pl.
func (g *grid) evictFromMacrosRef(pl *placement.Placement, movable []netlist.CellID) {
	for _, id := range movable {
		c := pl.Center(id)
		for _, mr := range g.macros {
			if !mr.Contains(c) {
				continue
			}
			bestDist := int64(-1)
			var best geom.Point
			for _, cand := range []geom.Point{
				{X: mr.X - 1, Y: c.Y}, {X: mr.X2() + 1, Y: c.Y},
				{X: c.X, Y: mr.Y - 1}, {X: c.X, Y: mr.Y2() + 1},
			} {
				if dist := c.ManhattanDist(cand); g.die.Contains(cand) && (bestDist < 0 || dist < bestDist) {
					bestDist, best = dist, cand
				}
			}
			if bestDist >= 0 {
				cell := pl.D.Cell(id)
				pl.Place(id, geom.Pt(best.X-cell.Width/2, best.Y-cell.Height/2))
			}
			break
		}
	}
}

// load sets the centers from pl, whose movable cells must all be placed R0.
func (s *scratch) load(pl *placement.Placement) {
	for i, id := range s.movable {
		s.cur[i] = pl.Center(id)
	}
}

// spreadRef and bestNeighborRef are the straightforward forms of spread and
// its ring search: every eviction order is fully sorted by recomputing cell
// centers, and every neighbor search rescans each ring from radius 1. The
// differential tests below require the optimized forms to reproduce them
// exactly.
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
			bi := g.binOf(pl.Center(id))
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

// solveRef is the straightforward form of solve: every sweep sums every
// placed pin of d.Pins into its net and divides a net's sums once per pin
// that reads its centroid.
func solveRef(pl *placement.Placement, movable []netlist.CellID, sweeps int, keep float64) {
	d := pl.D
	cx := make([]int64, len(d.Nets))
	cy := make([]int64, len(d.Nets))
	cn := make([]int64, len(d.Nets))
	centers := make([]geom.Point, len(d.Cells))
	for sweep := 0; sweep < sweeps; sweep++ {
		clear(cx)
		clear(cy)
		clear(cn)
		for i := range d.Cells {
			if pl.Placed[i] {
				centers[i] = pl.Center(netlist.CellID(i))
			}
		}
		for i := range d.Pins {
			pin := &d.Pins[i]
			if !pl.Placed[pin.Cell] {
				continue
			}
			c := centers[pin.Cell]
			cx[pin.Net] += c.X
			cy[pin.Net] += c.Y
			cn[pin.Net]++
		}
		for _, id := range movable {
			cell := d.Cell(id)
			var sx, sy, n int64
			for _, pid := range cell.Pins {
				nid := d.Pin(pid).Net
				if cn[nid] < 2 {
					continue
				}
				sx += cx[nid] / cn[nid]
				sy += cy[nid] / cn[nid]
				n++
			}
			if n == 0 {
				continue
			}
			target := geom.Pt(sx/n, sy/n)
			cur := centers[id]
			nx := int64(keep*float64(cur.X) + (1-keep)*float64(target.X))
			ny := int64(keep*float64(cur.Y) + (1-keep)*float64(target.Y))
			pl.Place(id, geom.Pt(nx-cell.Width/2, ny-cell.Height/2))
		}
	}
}

// randomSolveCase builds a design of placed macros, ports (some left
// unplaced) and scattered flops and combinational cells, wired by random
// nets of one to six pins over all of them; some cells hold two pins of one
// net.
func randomSolveCase(rng *rand.Rand) (*placement.Placement, []netlist.CellID) {
	b := netlist.NewBuilder("solve")
	die := geom.RectXYWH(0, 0, 20_000+rng.Int63n(200_000), 20_000+rng.Int63n(200_000))
	b.SetDie(die)
	var cells, fixed []netlist.CellID
	for i, n := 0, rng.Intn(5); i < n; i++ {
		fixed = append(fixed, b.AddMacro(fmt.Sprintf("m%d", i), 1+rng.Int63n(die.W/4), 1+rng.Int63n(die.H/4), ""))
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		p := b.AddPort(fmt.Sprintf("p%d", i))
		b.SetPortPos(p, geom.Pt(rng.Int63n(die.W), rng.Int63n(die.H)))
		fixed = append(fixed, p)
	}
	for i, n := 0, 20+rng.Intn(300); i < n; i++ {
		if rng.Intn(4) == 0 {
			cells = append(cells, b.AddFlop(fmt.Sprintf("f%d", i), ""))
		} else {
			cells = append(cells, b.AddComb(fmt.Sprintf("c%d", i), 500+rng.Int63n(20_000), ""))
		}
	}
	all := append(slices.Clone(fixed), cells...)
	for i, n := 0, len(cells)+rng.Intn(2*len(cells)); i < n; i++ {
		net := b.Net(fmt.Sprintf("n%d", i))
		b.Connect(all[rng.Intn(len(all))], net, netlist.DirOut)
		for j, pins := 0, rng.Intn(6); j < pins; j++ {
			sink := all[rng.Intn(len(all))]
			b.Connect(sink, net, netlist.DirIn)
			if rng.Intn(8) == 0 {
				b.Connect(sink, net, netlist.DirIn)
			}
		}
	}
	d := b.MustBuild()
	pl := placement.New(d)
	for _, id := range fixed {
		switch {
		case d.Cell(id).Kind == netlist.KindMacro:
			pl.Place(id, geom.Pt(rng.Int63n(die.W), rng.Int63n(die.H)))
		case rng.Intn(3) == 0:
			pl.Placed[id] = false
		}
	}
	for _, id := range cells {
		pl.Place(id, geom.Pt(rng.Int63n(die.W), rng.Int63n(die.H)))
	}
	return pl, cells
}

// TestSolveMatchesRef runs solve and solveRef from the same start state on
// seeded random designs and requires identical cell positions after every
// call, each with its own sweep count and damping.
func TestSolveMatchesRef(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl, movable := randomSolveCase(rng)
		ref := pl.Clone()
		s := newScratch(pl, movable, 1)
		s.load(pl)
		for call := 0; call < 4; call++ {
			sweeps, keep := 1+rng.Intn(4), rng.Float64()
			s.solve(sweeps, keep)
			s.store(pl)
			solveRef(ref, movable, sweeps, keep)
			if !slices.Equal(pl.Pos, ref.Pos) {
				t.Fatalf("seed %d call %d: cell positions differ from solveRef", seed, call)
			}
		}
	}
}

// spreadCase sizes a randomSpreadCase design.
type spreadCase struct {
	macros   int     // macros; about a third cover most of the die
	cells    int     // movable cells
	hotspots int     // points most cells crowd around
	bins     int     // spreading grid bins per axis
	util     float64 // bin utilization target
}

// randomSpreadCase builds a design of c.macros macros, some covering most of
// the die, and c.cells cells crowded around c.hotspots hotspots, so that
// overfull bins must reach past rings of blocked or full bins.
func randomSpreadCase(rng *rand.Rand, c spreadCase) (*placement.Placement, []netlist.CellID, Options) {
	b := netlist.NewBuilder("spread")
	die := geom.RectXYWH(0, 0, 40_000+rng.Int63n(160_000), 40_000+rng.Int63n(160_000))
	b.SetDie(die)
	type outline struct{ w, h int64 }
	var macros []netlist.CellID
	var sizes []outline
	for i := 0; i < c.macros; i++ {
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
	for i := 0; i < c.cells; i++ {
		movable = append(movable, b.AddComb(fmt.Sprintf("c%d", i), 500+rng.Int63n(20_000), ""))
	}
	d := b.MustBuild()
	pl := placement.New(d)
	for i, m := range macros {
		pl.Place(m, geom.Pt(rng.Int63n(die.W-sizes[i].w+1), rng.Int63n(die.H-sizes[i].h+1)))
	}
	hot := make([]geom.Point, c.hotspots)
	for i := range hot {
		hot[i] = geom.Pt(rng.Int63n(die.W), rng.Int63n(die.H))
	}
	for _, id := range movable {
		p := geom.Pt(rng.Int63n(die.W), rng.Int63n(die.H))
		if len(hot) > 0 && rng.Intn(5) != 0 {
			h := hot[rng.Intn(len(hot))]
			p = geom.Pt(h.X+rng.Int63n(die.W/20+1), h.Y+rng.Int63n(die.H/20+1))
		}
		pl.Place(id, p)
	}
	return pl, movable, Options{GridBins: c.bins, TargetUtil: c.util}
}

// checkSpreadMatchesRef spreads the design twice with spread and spreadRef
// from the same start state, so the second call reuses the scratch, and
// requires identical cell positions and bin loads after each call.
func checkSpreadMatchesRef(t *testing.T, pl *placement.Placement, movable []netlist.CellID, opt Options) {
	t.Helper()
	ref := pl.Clone()
	g, gRef := newGrid(pl.D, pl, opt), newGrid(pl.D, ref, opt)
	s := newScratch(pl, movable, len(g.cap))
	s.load(pl)
	for call := 0; call < 2; call++ {
		g.spread(s)
		s.store(pl)
		gRef.spreadRef(ref, movable)
		if !slices.Equal(pl.Pos, ref.Pos) {
			t.Fatalf("call %d: cell positions differ from spreadRef", call)
		}
		if !slices.Equal(g.load, gRef.load) {
			t.Fatalf("call %d: bin loads differ from spreadRef", call)
		}
	}
}

// TestSpreadMatchesRef compares spread with spreadRef on seeded random
// designs with 1–6 macros, a few hundred cells and 8–48 bins per axis.
func TestSpreadMatchesRef(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pl, movable, opt := randomSpreadCase(rng, spreadCase{
				macros:   1 + rng.Intn(6),
				cells:    200 + rng.Intn(300),
				hotspots: 1 + rng.Intn(4),
				bins:     8 + rng.Intn(41),
				util:     0.35 + 0.45*rng.Float64(),
			})
			checkSpreadMatchesRef(t, pl, movable, opt)
		})
	}
}

// FuzzSpreadMatchesRef compares spread with spreadRef on designs sized by the
// fuzz input: up to 7 macros, 1000 cells and 4 hotspots, 1–130 bins per
// axis (so the spare bitsets span several words) and a 0.05–0.95 target.
func FuzzSpreadMatchesRef(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(400), uint8(2), uint8(40), uint8(128))
	f.Add(int64(2), uint8(6), uint16(900), uint8(1), uint8(100), uint8(20))
	f.Add(int64(3), uint8(0), uint16(300), uint8(4), uint8(129), uint8(255))
	f.Add(int64(4), uint8(2), uint16(50), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, macros uint8, cells uint16, hotspots, bins, util uint8) {
		pl, movable, opt := randomSpreadCase(rand.New(rand.NewSource(seed)), spreadCase{
			macros:   int(macros % 8),
			cells:    1 + int(cells%1000),
			hotspots: int(hotspots % 5),
			bins:     1 + int(bins%130),
			util:     0.05 + 0.9*float64(util)/255,
		})
		checkSpreadMatchesRef(t, pl, movable, opt)
	})
}

// FuzzRunMatchesRef compares Run with runRef on randomSolveCase designs,
// with the grid, round and sweep counts and the target (0 derives it) drawn
// from the fuzz input. Both start from the same placement, so ports left
// unplaced and macros reaching past the die are shared.
func FuzzRunMatchesRef(f *testing.F) {
	f.Add(int64(1), uint8(48), uint8(6), uint8(4), uint8(0))
	f.Add(int64(2), uint8(7), uint8(3), uint8(1), uint8(200))
	f.Add(int64(3), uint8(1), uint8(1), uint8(2), uint8(30))
	f.Add(int64(4), uint8(130), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, bins, iterations, sweeps, util uint8) {
		pl, _ := randomSolveCase(rand.New(rand.NewSource(seed)))
		opt := Options{
			GridBins:    1 + int(bins%130),
			Iterations:  int(iterations % 8),
			SolveSweeps: int(sweeps % 5),
		}
		if util > 0 {
			opt.TargetUtil = 0.05 + 0.9*float64(util)/255
		}
		ref := pl.Clone()
		if err := Run(context.Background(), pl, opt); err != nil {
			t.Fatal(err)
		}
		runRef(ref, opt)
		if !slices.Equal(pl.Pos, ref.Pos) || !slices.Equal(pl.Orient, ref.Orient) || !slices.Equal(pl.Placed, ref.Placed) {
			t.Fatal("placement differs from runRef")
		}
	})
}
