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
	"context"
	"fmt"
	"math/bits"

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
	s := newScratch(pl, movable, len(grid.cap))
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
	centers []geom.Point // cell centers, snapshotted per sweep and per spread round
	// netOf[netOff[i]:netOff[i+1]] are the nets of movable[i]'s pins that
	// have a centroid (at least two placed pins), one entry per pin: a cell
	// with two pins on a net lists it twice.
	netOff []int32
	netOf  []netlist.NetID
	// pinCell[pinOff[n]:pinOff[n+1]] are the movable cells of net n's pins,
	// one entry per pin.
	pinOff  []int32
	pinCell []netlist.CellID
	// fixed sums each net's fixed placed pins (macros and ports) and counts
	// all of its placed pins; neither changes during a Run.
	fixed    []netSum
	centroid []geom.Point // per-net centroid of one sweep, where fixed[n].n ≥ 2
	// binCell[binOff[b]:binOff[b+1]] are the movable cells in spreading bin
	// b at the start of a spread round, in movable order; binNext is the
	// counting sort's fill cursor per bin.
	binOff  []int32
	binNext []int32
	binCell []netlist.CellID
	keys    []spreadKey // one overfull bin's cells, a heap in eviction order
	ring    []ringBin   // one ring's bins with spare capacity, a heap
}

// netSum is the sum of a net's fixed pin centers and its placed pin count.
type netSum struct{ x, y, n int64 }

// spreadKey orders an overfull bin's cells for eviction: farthest from the
// bin center first, ties by cell ID.
type spreadKey struct {
	dist int64
	id   netlist.CellID
}

func (a spreadKey) before(b spreadKey) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.id < b.id
}

// ringBin is a bin of the ring being searched for relief, ordered by most
// spare capacity first, ties by the ring's scan order.
type ringBin struct {
	spare float64
	ord   int32 // position in the ring's scan order
	bin   int32
}

func (a ringBin) before(b ringBin) bool {
	if a.spare != b.spare {
		return a.spare > b.spare
	}
	return a.ord < b.ord
}

// newScratch sizes the working memory for placing movable on pl with the
// given number of spreading bins. It indexes the nets of the movable cells
// both ways and sums the fixed pins, which stay put for the whole Run. Every
// movable cell must already be placed.
func newScratch(pl *placement.Placement, movable []netlist.CellID, bins int) *scratch {
	d := pl.D
	s := &scratch{
		centers:  make([]geom.Point, len(d.Cells)),
		netOff:   make([]int32, len(movable)+1),
		pinOff:   make([]int32, len(d.Nets)+1),
		fixed:    make([]netSum, len(d.Nets)),
		centroid: make([]geom.Point, len(d.Nets)),
		binOff:   make([]int32, bins+1),
		binNext:  make([]int32, bins),
		binCell:  make([]netlist.CellID, len(movable)),
	}
	isMovable := make([]bool, len(d.Cells))
	pins := 0
	for _, id := range movable {
		isMovable[id] = true
		pins += len(d.Cell(id).Pins)
	}
	s.pinCell = make([]netlist.CellID, 0, pins)
	s.netOf = make([]netlist.NetID, 0, pins)
	for nid := range d.Nets {
		f := &s.fixed[nid]
		for _, pid := range d.Nets[nid].Pins {
			pin := d.Pin(pid)
			switch {
			case isMovable[pin.Cell]:
				s.pinCell = append(s.pinCell, pin.Cell)
			case pl.Placed[pin.Cell]:
				c := pl.Center(pin.Cell)
				f.x += c.X
				f.y += c.Y
			default:
				continue
			}
			f.n++
		}
		s.pinOff[nid+1] = int32(len(s.pinCell))
	}
	for i, id := range movable {
		for _, pid := range d.Cell(id).Pins {
			if nid := d.Pin(pid).Net; s.fixed[nid].n >= 2 {
				s.netOf = append(s.netOf, nid)
			}
		}
		s.netOff[i+1] = int32(len(s.netOf))
	}
	return s
}

// solve runs Gauss–Seidel sweeps of the star net model: each pass computes
// per-net centroids, then moves every movable cell toward the mean of its
// nets' centroids, retaining a `keep` fraction of its current position.
// Fixed cells (macros, ports) keep the system anchored.
func solve(pl *placement.Placement, movable []netlist.CellID, sweeps int, keep float64, s *scratch) {
	d := pl.D
	centers, centroid := s.centers, s.centroid
	for sweep := 0; sweep < sweeps; sweep++ {
		// A sweep reads the positions from before its first move, so one
		// snapshot of the centers serves every pin. The sums are integers,
		// so adding a net's movable pins to its fixed ones in another order
		// than d.Pins gives the same centroid.
		for _, id := range movable {
			centers[id] = pl.Center(id)
		}
		for nid := range s.fixed {
			f := &s.fixed[nid]
			if f.n < 2 {
				continue
			}
			x, y := f.x, f.y
			for _, c := range s.pinCell[s.pinOff[nid]:s.pinOff[nid+1]] {
				x += centers[c].X
				y += centers[c].Y
			}
			centroid[nid] = geom.Pt(x/f.n, y/f.n)
		}
		for i, id := range movable {
			nets := s.netOf[s.netOff[i]:s.netOff[i+1]]
			if len(nets) == 0 {
				continue
			}
			var sx, sy int64
			for _, nid := range nets {
				sx += centroid[nid].X
				sy += centroid[nid].Y
			}
			n := int64(len(nets))
			cell := d.Cell(id)
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
	// rowSpare and colSpare both hold the set of bins with spare capacity
	// (cap > load) during spread, as one bitset of wx words per row and one
	// of wy words per column, so a ring search tests or walks a side of its
	// ring a word at a time instead of visiting every bin.
	wx, wy   int
	rowSpare []uint64
	colSpare []uint64
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
	g.wx, g.wy = (g.nx+63)/64, (g.ny+63)/64
	g.rowSpare = make([]uint64, g.ny*g.wx)
	g.colSpare = make([]uint64, g.nx*g.wy)
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
// scan in row order, cells leave in order of distance from the bin center.
func (g *grid) spread(pl *placement.Placement, movable []netlist.CellID, s *scratch) {
	d := pl.D
	const rounds = 3
	maxR := max(g.nx, g.ny)
	for round := 0; round < rounds; round++ {
		clear(g.load)
		clear(s.binOff)
		for _, id := range movable {
			c := pl.Center(id)
			s.centers[id] = c
			bx, by := g.binOf(c)
			bi := by*g.nx + bx
			g.load[bi] += float64(d.Cell(id).Area())
			s.binOff[bi+1]++
		}
		// Counting sort of the cells into their bins, in movable order.
		for bi := range g.load {
			s.binOff[bi+1] += s.binOff[bi]
		}
		copy(s.binNext, s.binOff)
		for _, id := range movable {
			bx, by := g.binOf(s.centers[id])
			bi := by*g.nx + bx
			s.binCell[s.binNext[bi]] = id
			s.binNext[bi]++
		}
		for i := range g.load {
			g.markSpare(i)
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
				// Usually only a prefix of them has to leave, so the keys
				// are heapified and popped one per move rather than sorted.
				c := g.binRect(bx, by).Center()
				keys := s.keys[:0]
				for _, id := range s.binCell[s.binOff[bi]:s.binOff[bi+1]] {
					keys = append(keys, spreadKey{s.centers[id].ManhattanDist(c), id})
				}
				heapify(keys)
				s.keys = keys
				ring, r := s.ring[:0], 0
				for len(keys) > 0 && g.load[bi] > g.cap[bi] {
					// While one bin is relieved, only the source (radius 0)
					// loses load and only the targets gain it, so a ring
					// found without spare capacity stays so and the next
					// search resumes at the current ring.
					for len(ring) == 0 && r < maxR {
						r++
						ring = g.ringSpare(bx, by, r, ring)
					}
					if len(ring) == 0 {
						break
					}
					id := keys[0].id
					keys = pop(keys)
					ti := int(ring[0].bin)
					target := g.binRect(ti%g.nx, ti/g.nx).Center()
					cell := d.Cell(id)
					area := float64(cell.Area())
					pl.Place(id, geom.Pt(target.X-cell.Width/2, target.Y-cell.Height/2))
					g.load[bi] -= area
					g.load[ti] += area
					g.markSpare(bi)
					g.markSpare(ti)
					moved = true
					// The target is the only ring bin whose spare changed.
					if spare := g.cap[ti] - g.load[ti]; spare > 0 {
						ring[0].spare = spare
						siftDown(ring, 0)
					} else {
						ring = pop(ring)
					}
				}
				s.ring = ring
			}
		}
		if !moved {
			break
		}
	}
}

// markSpare records in the spare bitsets whether bin i has spare capacity.
func (g *grid) markSpare(i int) {
	x, y := i%g.nx, i/g.nx
	row, col := &g.rowSpare[y*g.wx+(x>>6)], &g.colSpare[x*g.wy+(y>>6)]
	if g.cap[i]-g.load[i] > 0 {
		*row |= 1 << (x & 63)
		*col |= 1 << (y & 63)
	} else {
		*row &^= 1 << (x & 63)
		*col &^= 1 << (y & 63)
	}
}

// ringSpare appends to dst[:0] the bins of the ring of Chebyshev radius r
// around (bx, by) that have spare capacity, as a heap whose top is the bin
// with the most spare, ties by the ring's scan order: the top and bottom
// rows interleaved column by column, then the left and right columns
// interleaved row by row. The ring is searched because macro blockages can
// zero out whole neighborhoods, so adjacent-only relief deadlocks next to
// big macros.
func (g *grid) ringSpare(bx, by, r int, dst []ringBin) []ringBin {
	dst = dst[:0]
	x0, x1 := max(bx-r, 0), min(bx+r, g.nx-1)
	for k, y := range [2]int{by - r, by + r} {
		if y < 0 || y >= g.ny {
			continue
		}
		row := g.rowSpare[y*g.wx : (y+1)*g.wx]
		for x := nextBit(row, x0, x1); x <= x1; x = nextBit(row, x+1, x1) {
			dst = g.appendSpare(dst, y*g.nx+x, 2*(x-bx+r)+k)
		}
	}
	y0, y1 := max(by-r+1, 0), min(by+r-1, g.ny-1)
	for k, x := range [2]int{bx - r, bx + r} {
		if x < 0 || x >= g.nx {
			continue
		}
		col := g.colSpare[x*g.wy : (x+1)*g.wy]
		for y := nextBit(col, y0, y1); y <= y1; y = nextBit(col, y+1, y1) {
			dst = g.appendSpare(dst, y*g.nx+x, 2*(2*r+1)+2*(y-by+r-1)+k)
		}
	}
	heapify(dst)
	return dst
}

func (g *grid) appendSpare(dst []ringBin, bin, ord int) []ringBin {
	return append(dst, ringBin{g.cap[bin] - g.load[bin], int32(ord), int32(bin)})
}

// nextBit returns the index of the first set bit of w at or after i, or a
// value above hi if none is set in [i, hi].
func nextBit(w []uint64, i, hi int) int {
	for i <= hi {
		if word := w[i>>6] >> (i & 63); word != 0 {
			return i + bits.TrailingZeros64(word)
		}
		i = (i | 63) + 1
	}
	return hi + 1
}

// heapify, siftDown and pop keep h a binary heap whose top comes before
// every other element.
func heapify[T interface{ before(T) bool }](h []T) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown[T interface{ before(T) bool }](h []T, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func pop[T interface{ before(T) bool }](h []T) []T {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDown(h, 0)
	return h
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
