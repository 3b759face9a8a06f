// Package place implements the standard-cell global placer used to measure
// every macro-placement flow, standing in for the commercial place tool of
// the paper's evaluation (§V: "Metrics are taken after placement of
// standard cells using the same tool as IndEDA").
//
// The placer is a classic quadratic scheme: Jacobi sweeps pull every movable
// cell to the centroid of its nets (fixed macros and ports anchor the
// system), interleaved with grid-based spreading that respects macro
// blockage and a density target. It is fully deterministic.
//
// A Run works on one dense array of the movable cells' centers, indexed by
// position in the movable list (cell ID order), and writes the placement
// once at the end. Nets, bins and eviction keys refer to cells by that
// index, so the hot loops never go through the design or the placement.
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
	// SolveSweeps is the number of Jacobi sweeps per round (default 4).
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
// ctx.Err(), leaving the movable cells where they were.
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

	if opt.TargetUtil <= 0 {
		opt.TargetUtil = deriveTargetUtil(d, pl)
	}
	grid := newGrid(d, pl, opt)
	s := newScratch(pl, movable, len(grid.cap))
	// Every cell starts with its lower-left corner at the die center.
	start := d.Die.Center()
	for i, id := range movable {
		c := d.Cell(id)
		s.cur[i] = geom.Pt(start.X+c.Width/2, start.Y+c.Height/2)
	}
	for iter := 0; iter < opt.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Damping grows over the rounds so late spreading is not undone by
		// the next quadratic solve (a light-weight stand-in for the anchor
		// pseudo-nets of production placers).
		keep := float64(iter) / float64(opt.Iterations+1)
		s.solve(opt.SolveSweeps, keep)
		grid.spread(s)
	}
	// Final cleanups: keep cells inside the die and off macros.
	grid.evictFromMacros(s)
	s.clamp(d)
	s.store(pl)
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

// scratch is the state of one Run: the movable cells' centers and the
// working memory of solve and spread, allocated once and reused by every
// round. A movable cell is named by its index i into movable, so cur[i] is
// the center of movable[i]; movable is in cell ID order, so ordering by
// index is ordering by cell ID. Every center is the one the placement would
// report: movable cells are placed R0, so Center is Pos + (Width/2,
// Height/2) exactly and store writes the centers back without rounding.
type scratch struct {
	movable []netlist.CellID
	// cur holds the centers; next receives a solve sweep's new centers and
	// is swapped with cur after the sweep.
	cur, next []geom.Point
	area      []float64 // area of each movable cell
	// netOf[netOff[i]:netOff[i+1]] are the nets of movable[i]'s pins that
	// have a centroid (at least two placed pins), one entry per pin: a cell
	// with two pins on a net lists it twice.
	netOff []int32
	netOf  []netlist.NetID
	// pinCell[pinOff[n]:pinOff[n+1]] are the movable indices of net n's
	// pins, one entry per pin.
	pinOff  []int32
	pinCell []int32
	// fixed sums each net's fixed placed pins (macros and ports) and counts
	// all of its placed pins; neither changes during a Run.
	fixed    []netSum
	centroid []geom.Point // per-net centroid of one sweep, where fixed[n].n ≥ 2
	// bin is each cell's spreading bin at the start of a spread round, and
	// binCell[binOff[b]:binOff[b+1]] are the cells in bin b, in index
	// order; binNext is the counting sort's fill cursor per bin.
	bin     []int32
	binOff  []int32
	binNext []int32
	binCell []int32
	keys    []spreadKey // one overfull bin's cells, a heap in eviction order
	ring    []ringBin   // one ring's bins with spare capacity, a heap
}

// netSum is the sum of a net's fixed pin centers and its placed pin count.
type netSum struct{ x, y, n int64 }

// newScratch sizes the state for placing movable on pl with the given
// number of spreading bins. It indexes the nets of the movable cells both
// ways and sums the fixed pins, which stay put for the whole Run. The
// centers are left zero for the caller to set.
func newScratch(pl *placement.Placement, movable []netlist.CellID, bins int) *scratch {
	d := pl.D
	n := len(movable)
	s := &scratch{
		movable:  movable,
		cur:      make([]geom.Point, n),
		next:     make([]geom.Point, n),
		area:     make([]float64, n),
		netOff:   make([]int32, n+1),
		pinOff:   make([]int32, len(d.Nets)+1),
		fixed:    make([]netSum, len(d.Nets)),
		centroid: make([]geom.Point, len(d.Nets)),
		bin:      make([]int32, n),
		binOff:   make([]int32, bins+1),
		binNext:  make([]int32, bins),
		binCell:  make([]int32, n),
	}
	index := make([]int32, len(d.Cells)) // movable index + 1, 0 if fixed
	pins := 0
	for i, id := range movable {
		c := d.Cell(id)
		index[id] = int32(i + 1)
		s.area[i] = float64(c.Area())
		pins += len(c.Pins)
	}
	s.pinCell = make([]int32, 0, pins)
	s.netOf = make([]netlist.NetID, 0, pins)
	for nid := range d.Nets {
		f := &s.fixed[nid]
		for _, pid := range d.Nets[nid].Pins {
			cell := d.Pin(pid).Cell
			switch {
			case index[cell] > 0:
				s.pinCell = append(s.pinCell, index[cell]-1)
			case pl.Placed[cell]:
				c := pl.Center(cell)
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

// store writes the centers back to pl, placing every movable cell R0.
func (s *scratch) store(pl *placement.Placement) {
	for i, id := range s.movable {
		c := pl.D.Cell(id)
		pl.Place(id, geom.Pt(s.cur[i].X-c.Width/2, s.cur[i].Y-c.Height/2))
	}
}

// solve runs Jacobi sweeps of the star net model: each sweep computes
// per-net centroids from the current centers, then moves every movable cell
// toward the mean of its nets' centroids, retaining a `keep` fraction of its
// current position. Fixed cells (macros, ports) keep the system anchored.
func (s *scratch) solve(sweeps int, keep float64) {
	centroid := s.centroid
	for sweep := 0; sweep < sweeps; sweep++ {
		cur, next := s.cur, s.next
		// The sums are integers, so adding a net's movable pins to its
		// fixed ones in another order than d.Pins gives the same centroid.
		for nid := range s.fixed {
			f := &s.fixed[nid]
			if f.n < 2 {
				continue
			}
			x, y := f.x, f.y
			for _, c := range s.pinCell[s.pinOff[nid]:s.pinOff[nid+1]] {
				x += cur[c].X
				y += cur[c].Y
			}
			centroid[nid] = geom.Pt(x/f.n, y/f.n)
		}
		for i, c := range cur {
			nets := s.netOf[s.netOff[i]:s.netOff[i+1]]
			if len(nets) == 0 {
				next[i] = c
				continue
			}
			var sx, sy int64
			for _, nid := range nets {
				sx += centroid[nid].X
				sy += centroid[nid].Y
			}
			n := int64(len(nets))
			tx, ty := sx/n, sy/n
			next[i] = geom.Pt(
				int64(keep*float64(c.X)+(1-keep)*float64(tx)),
				int64(keep*float64(c.Y)+(1-keep)*float64(ty)))
		}
		s.cur, s.next = next, cur
	}
}

// clamp moves every cell whose outline leaves d's die back inside it.
func (s *scratch) clamp(d *netlist.Design) {
	for i, id := range s.movable {
		c := d.Cell(id)
		r := geom.RectXYWH(s.cur[i].X-c.Width/2, s.cur[i].Y-c.Height/2, c.Width, c.Height)
		s.cur[i] = r.ClampInside(d.Die).Center()
	}
}

// grid is the spreading structure: bin loads and capacities with macro
// blockage subtracted.
type grid struct {
	die        geom.Rect
	nx, ny     int
	binW, binH int64
	macros     []geom.Rect  // placed macro outlines, fixed for the whole Run
	center     []geom.Point // center of each bin's die-clipped outline
	cap        []float64    // usable area per bin × target utilization
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
	g.center = make([]geom.Point, g.nx*g.ny)
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
			g.center[by*g.nx+bx] = r.Center()
			g.cap[by*g.nx+bx] = float64(usable) * opt.TargetUtil
		}
	}
	return g
}

func (g *grid) binRect(bx, by int) geom.Rect {
	r := geom.RectXYWH(g.die.X+int64(bx)*g.binW, g.die.Y+int64(by)*g.binH, g.binW, g.binH)
	return r.Intersect(g.die)
}

// binOf returns the index of the bin holding p, clamped to the grid.
func (g *grid) binOf(p geom.Point) int {
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
	return by*g.nx + bx
}

// spread relieves overfull bins by relocating their outermost cells to the
// least-loaded neighboring bin, repeating a few rounds. Deterministic: bins
// scan in row order, cells leave in order of distance from the bin center.
func (g *grid) spread(s *scratch) {
	const rounds = 3
	maxR := max(g.nx, g.ny)
	for round := 0; round < rounds; round++ {
		clear(g.load)
		clear(s.binOff)
		for i, c := range s.cur {
			bi := g.binOf(c)
			s.bin[i] = int32(bi)
			g.load[bi] += s.area[i]
			s.binOff[bi+1]++
		}
		// Counting sort of the cells into their bins, in index order.
		for bi := range g.load {
			s.binOff[bi+1] += s.binOff[bi]
		}
		copy(s.binNext, s.binOff)
		for i, bi := range s.bin {
			s.binCell[s.binNext[bi]] = int32(i)
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
				// so their centers are still the ones binned above. Usually
				// only a prefix of them has to leave, so the keys are
				// heapified and popped one per move rather than sorted.
				c := g.center[bi]
				keys := s.keys[:0]
				for _, i := range s.binCell[s.binOff[bi]:s.binOff[bi+1]] {
					keys = append(keys, spreadKey{s.cur[i].ManhattanDist(c), i})
				}
				heapifyKeys(keys)
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
					i := keys[0].i
					keys = popKey(keys)
					ti := int(ring[0].bin)
					s.cur[i] = g.center[ti]
					g.load[bi] -= s.area[i]
					g.load[ti] += s.area[i]
					g.markSpare(bi)
					g.markSpare(ti)
					moved = true
					// The target is the only ring bin whose spare changed.
					if spare := g.cap[ti] - g.load[ti]; spare > 0 {
						ring[0].spare = spare
						siftRing(ring, 0)
					} else {
						ring = popRing(ring)
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
	for i := len(dst)/2 - 1; i >= 0; i-- {
		siftRing(dst, i)
	}
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

// spreadKey orders an overfull bin's cells for eviction: farthest from the
// bin center first, ties by index (so by cell ID).
type spreadKey struct {
	dist int64
	i    int32 // movable index
}

func (a spreadKey) before(b spreadKey) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.i < b.i
}

// heapifyKeys, siftKey and popKey keep h a binary heap whose top is the
// next cell to evict.
func heapifyKeys(h []spreadKey) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftKey(h, i)
	}
}

func siftKey(h []spreadKey, i int) {
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

func popKey(h []spreadKey) []spreadKey {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftKey(h, 0)
	return h
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

// siftRing and popRing keep h a binary heap whose top is the ring bin with
// the most spare capacity.
func siftRing(h []ringBin, i int) {
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

func popRing(h []ringBin) []ringBin {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftRing(h, 0)
	return h
}

// evictFromMacros pushes any cell centered on a macro to the nearest macro
// edge.
func (g *grid) evictFromMacros(s *scratch) {
	for i, c := range s.cur {
		for _, mr := range g.macros {
			if !mr.Contains(c) {
				continue
			}
			// Push to the nearest macro edge that stays inside the die.
			cands := [4]geom.Point{
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
			if bestDist >= 0 {
				s.cur[i] = best
			}
			break // a cell on a macro covering the die is left be
		}
	}
}
