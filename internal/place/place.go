// Package place implements the standard-cell global placer used to measure
// every macro-placement flow, standing in for the commercial place tool of
// the paper's evaluation (§V: "Metrics are taken after placement of
// standard cells using the same tool as IndEDA").
//
// The placer is a classic quadratic scheme: Gauss–Seidel sweeps pull every
// movable cell to the centroid of its nets (fixed macros and ports anchor
// the system), interleaved with grid-based spreading that respects macro
// blockage and a density target. It is fully deterministic.
package place

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// Options tunes the placer.
type Options struct {
	// GridBins is the spreading grid resolution per axis (default 48).
	GridBins int
	// Iterations is the number of solve+spread rounds (default 6).
	Iterations int
	// SolveSweeps is the number of Gauss–Seidel sweeps per round (default 4).
	SolveSweeps int
	// TargetUtil is the bin utilization ceiling during spreading. When 0
	// it is derived from the design: 1.3 × (cell area / free area),
	// clamped to [0.35, 0.8] — the uniform-density target a production
	// global placer spreads toward.
	TargetUtil float64
}

// DefaultOptions returns the standard settings (TargetUtil auto-derived).
func DefaultOptions() Options {
	return Options{GridBins: 48, Iterations: 6, SolveSweeps: 4}
}

// Run places all movable cells (flops and combinational cells) of pl's
// design. Macros and ports must already be placed; their positions are not
// modified. A cancelled ctx aborts between solve/spread rounds and returns
// ctx.Err().
func Run(ctx context.Context, pl *placement.Placement, opt Options) error {
	d := pl.D
	if opt.GridBins <= 0 {
		opt = DefaultOptions()
	}
	if !pl.AllMacrosPlaced() {
		return fmt.Errorf("place: macros must be placed first")
	}

	movable := make([]netlist.CellID, 0, len(d.Cells))
	for i := range d.Cells {
		id := netlist.CellID(i)
		switch d.Cells[i].Kind {
		case netlist.KindComb, netlist.KindFlop:
			movable = append(movable, id)
		}
	}
	if len(movable) == 0 {
		return nil
	}

	center := d.Die.Center()
	for _, id := range movable {
		pl.Place(id, center)
	}

	if opt.TargetUtil <= 0 {
		opt.TargetUtil = deriveTargetUtil(d, pl)
	}
	grid := newGrid(d, pl, opt)
	s := newScratch(d, len(grid.cap))
	for iter := 0; iter < opt.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Damping grows over the rounds so late spreading is not undone by
		// the next quadratic solve (a light-weight stand-in for the anchor
		// pseudo-nets of production placers).
		keep := float64(iter) / float64(opt.Iterations+1)
		solve(pl, movable, opt.SolveSweeps, keep, s)
		grid.spread(pl, movable, s)
	}
	// Final cleanups: keep cells inside the die and off macros.
	grid.evictFromMacros(pl, movable)
	clampAll(pl, movable)
	return nil
}

// deriveTargetUtil computes the uniform spreading density: the design's
// standard-cell area over the macro-free area, with 30% headroom.
func deriveTargetUtil(d *netlist.Design, pl *placement.Placement) float64 {
	var cellArea, macroArea int64
	for i := range d.Cells {
		switch d.Cells[i].Kind {
		case netlist.KindComb, netlist.KindFlop:
			cellArea += d.Cells[i].Area()
		case netlist.KindMacro:
			macroArea += d.Cells[i].Area()
		}
	}
	free := d.Die.Area() - macroArea
	if free <= 0 {
		return 0.8
	}
	t := 1.3 * float64(cellArea) / float64(free)
	if t < 0.35 {
		t = 0.35
	}
	if t > 0.8 {
		t = 0.8
	}
	return t
}

// scratch is the working memory of solve and spread, allocated once per Run
// and reused by every round.
type scratch struct {
	centers    []geom.Point       // cell centers, snapshotted per sweep and per spread round
	cx, cy, cn []int64            // per-net sums of placed pin centers, and their count
	binCells   [][]netlist.CellID // movable cells per spreading bin
	keys       []spreadKey        // one overfull bin's cells in eviction order
}

// spreadKey orders an overfull bin's cells for eviction: farthest from the
// bin center first, ties by cell ID.
type spreadKey struct {
	dist int64
	id   netlist.CellID
}

func newScratch(d *netlist.Design, bins int) *scratch {
	return &scratch{
		centers:  make([]geom.Point, len(d.Cells)),
		cx:       make([]int64, len(d.Nets)),
		cy:       make([]int64, len(d.Nets)),
		cn:       make([]int64, len(d.Nets)),
		binCells: make([][]netlist.CellID, bins),
	}
}

// solve runs Gauss–Seidel sweeps of the star net model: each pass computes
// per-net centroids, then moves every movable cell toward the mean of its
// nets' centroids, retaining a `keep` fraction of its current position.
// Fixed cells (macros, ports) keep the system anchored.
func solve(pl *placement.Placement, movable []netlist.CellID, sweeps int, keep float64, s *scratch) {
	d := pl.D
	cx, cy, cn, centers := s.cx, s.cy, s.cn, s.centers
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := range d.Nets {
			cx[i], cy[i], cn[i] = 0, 0, 0
		}
		// A sweep reads the positions from before its first move, so one
		// snapshot of the centers serves every pin.
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

// grid is the spreading structure: bin loads and capacities with macro
// blockage subtracted.
type grid struct {
	die        geom.Rect
	nx, ny     int
	binW, binH int64
	macros     []geom.Rect // placed macro outlines, fixed for the whole Run
	cap        []float64   // usable area per bin × target utilization
	load       []float64
}

func newGrid(d *netlist.Design, pl *placement.Placement, opt Options) *grid {
	g := &grid{die: d.Die, nx: opt.GridBins, ny: opt.GridBins}
	g.binW = (d.Die.W + int64(g.nx) - 1) / int64(g.nx)
	g.binH = (d.Die.H + int64(g.ny) - 1) / int64(g.ny)
	for _, m := range d.Macros() {
		g.macros = append(g.macros, pl.Rect(m))
	}
	g.cap = make([]float64, g.nx*g.ny)
	g.load = make([]float64, g.nx*g.ny)
	for by := 0; by < g.ny; by++ {
		for bx := 0; bx < g.nx; bx++ {
			r := g.binRect(bx, by)
			usable := r.Area()
			for _, mr := range g.macros {
				usable -= r.Intersect(mr).Area()
			}
			g.cap[by*g.nx+bx] = float64(usable) * opt.TargetUtil
		}
	}
	return g
}

func (g *grid) binRect(bx, by int) geom.Rect {
	r := geom.RectXYWH(g.die.X+int64(bx)*g.binW, g.die.Y+int64(by)*g.binH, g.binW, g.binH)
	return r.Intersect(g.die)
}

func (g *grid) binOf(p geom.Point) (int, int) {
	bx := int((p.X - g.die.X) / g.binW)
	by := int((p.Y - g.die.Y) / g.binH)
	if bx < 0 {
		bx = 0
	}
	if bx >= g.nx {
		bx = g.nx - 1
	}
	if by < 0 {
		by = 0
	}
	if by >= g.ny {
		by = g.ny - 1
	}
	return bx, by
}

// spread relieves overfull bins by relocating their outermost cells to the
// least-loaded neighboring bin, repeating a few rounds. Deterministic: bins
// scan in row order, cells ordered by distance from the bin center.
func (g *grid) spread(pl *placement.Placement, movable []netlist.CellID, s *scratch) {
	d := pl.D
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for i := range g.load {
			g.load[i] = 0
			s.binCells[i] = s.binCells[i][:0]
		}
		for _, id := range movable {
			c := pl.Center(id)
			s.centers[id] = c
			bx, by := g.binOf(c)
			bi := by*g.nx + bx
			g.load[bi] += float64(d.Cell(id).Area())
			s.binCells[bi] = append(s.binCells[bi], id)
		}
		moved := false
		for by := 0; by < g.ny; by++ {
			for bx := 0; bx < g.nx; bx++ {
				bi := by*g.nx + bx
				if g.load[bi] <= g.cap[bi] {
					continue
				}
				// A bin's cells move only when the bin itself is relieved,
				// so their centers are still the ones snapshotted above.
				c := g.binRect(bx, by).Center()
				keys := s.keys[:0]
				for _, id := range s.binCells[bi] {
					keys = append(keys, spreadKey{s.centers[id].ManhattanDist(c), id})
				}
				slices.SortFunc(keys, func(a, b spreadKey) int {
					if a.dist != b.dist {
						return cmp.Compare(b.dist, a.dist)
					}
					return cmp.Compare(a.id, b.id)
				})
				s.keys = keys
				ring := 1
				for _, k := range keys {
					if g.load[bi] <= g.cap[bi] {
						break
					}
					tx, ty, r, ok := g.bestNeighbor(bx, by, ring)
					if !ok {
						break
					}
					ring = r
					ti := ty*g.nx + tx
					target := g.binRect(tx, ty).Center()
					cell := d.Cell(k.id)
					area := float64(cell.Area())
					pl.Place(k.id, geom.Pt(target.X-cell.Width/2, target.Y-cell.Height/2))
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

// bestNeighbor finds the nearest bin with spare capacity, scanning rings of
// growing Chebyshev radius from r0 (macro blockages can zero out whole
// neighborhoods, so adjacent-only relief deadlocks next to big macros). It
// returns the target bin and the radius r it was found at.
//
// While one bin is relieved, a search may resume at the radius where the
// previous one succeeded: every ring inside it had no spare capacity then,
// and since only the source bin (radius 0) lost load and the target gained
// some, none has now.
func (g *grid) bestNeighbor(bx, by, r0 int) (int, int, int, bool) {
	maxR := max(g.nx, g.ny)
	for r := r0; r <= maxR; r++ {
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
			return bestX, bestY, r, true
		}
	}
	return -1, -1, maxR, false
}

// evictFromMacros pushes any cell sitting on a macro to the nearest macro
// edge.
func (g *grid) evictFromMacros(pl *placement.Placement, movable []netlist.CellID) {
	d := pl.D
	for _, id := range movable {
		c := pl.Center(id)
		for _, mr := range g.macros {
			if !mr.Contains(c) {
				continue
			}
			// Push to the nearest macro edge that stays inside the die.
			cands := []geom.Point{
				{X: mr.X - 1, Y: c.Y},
				{X: mr.X2() + 1, Y: c.Y},
				{X: c.X, Y: mr.Y - 1},
				{X: c.X, Y: mr.Y2() + 1},
			}
			best := geom.Point{}
			bestDist := int64(-1)
			for _, cand := range cands {
				if !g.die.Contains(cand) {
					continue
				}
				if dist := c.ManhattanDist(cand); bestDist < 0 || dist < bestDist {
					bestDist = dist
					best = cand
				}
			}
			if bestDist < 0 {
				break // macro covers the die; leave the cell be
			}
			cell := d.Cell(id)
			pl.Place(id, geom.Pt(best.X-cell.Width/2, best.Y-cell.Height/2))
			break
		}
	}
}

func clampAll(pl *placement.Placement, movable []netlist.CellID) {
	for _, id := range movable {
		r := pl.Rect(id).ClampInside(pl.D.Die)
		pl.Place(id, geom.Pt(r.X, r.Y))
	}
}
