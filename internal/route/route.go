// Package route estimates global routing congestion, standing in for the
// commercial global router behind the paper's GRC% metric (global routing
// overflow percentage, Table III).
//
// The model is RUDY-style probabilistic demand: every placed net spreads
// its expected wirelength uniformly over its bounding box; gcell capacity
// comes from the routing supply per unit area, derated over macros (memory
// blocks leave only upper metal for through-routing). GRC% is the fraction
// of gcells whose demand exceeds capacity.
package route

import (
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// Options tunes the congestion model.
type Options struct {
	// GcellBins is the grid resolution per axis (default 32).
	GcellBins int
	// SupplyPerDBU2 is the routing capacity in wire-DBU per DBU² of die
	// area (default 0.06: six routing layers at a 100 DBU pitch in the
	// synthetic 1 DBU = 1 nm library).
	SupplyPerDBU2 float64
	// MacroDerate is the capacity fraction remaining above macros
	// (default 0.15).
	MacroDerate float64
}

// DefaultOptions returns the standard model parameters.
func DefaultOptions() Options {
	return Options{GcellBins: 32, SupplyPerDBU2: 0.06, MacroDerate: 0.15}
}

// Result is a congestion analysis.
type Result struct {
	Bins     int
	Demand   []float64 // row-major demand per gcell
	Capacity []float64
	// OverflowPct is GRC%: the percentage of gcells with demand > capacity.
	OverflowPct float64
	// WorstRatio is max(demand/capacity) over gcells.
	WorstRatio float64
	// TotalDemand aggregates demand (proportional to estimated WL).
	TotalDemand float64
}

// At returns demand/capacity at a bin coordinate.
func (r *Result) At(bx, by int) (demand, capacity float64) {
	return r.Demand[by*r.Bins+bx], r.Capacity[by*r.Bins+bx]
}

// Estimate runs the congestion model over a fully placed design.
func Estimate(pl *placement.Placement, opt Options) *Result {
	if opt.GcellBins <= 0 {
		opt = DefaultOptions()
	}
	d := pl.D
	n := opt.GcellBins
	res := &Result{
		Bins:     n,
		Demand:   make([]float64, n*n),
		Capacity: make([]float64, n*n),
	}
	die := d.Die
	binW := float64(die.W) / float64(n)
	binH := float64(die.H) / float64(n)
	// Gcell (bx, by) spans [ex[bx], ex[bx+1]) × [ey[by], ey[by+1]).
	ex, ey := make([]int64, n+1), make([]int64, n+1)
	for k := range ex {
		ex[k] = die.X + die.W*int64(k)/int64(n)
		ey[k] = die.Y + die.H*int64(k)/int64(n)
	}

	// Capacity: supply × gcell extent, derated over macro coverage.
	macroRects := make([]geom.Rect, 0, 8)
	for _, m := range d.Macros() {
		if pl.Placed[m] {
			macroRects = append(macroRects, pl.Rect(m))
		}
	}
	for by := 0; by < n; by++ {
		for bx := 0; bx < n; bx++ {
			r := geom.RectXYWH(ex[bx], ey[by], ex[bx+1]-ex[bx], ey[by+1]-ey[by])
			full := opt.SupplyPerDBU2 * float64(r.Area())
			var blocked int64
			for _, mr := range macroRects {
				blocked += r.Intersect(mr).Area()
			}
			frac := 0.0
			if a := r.Area(); a > 0 {
				frac = float64(blocked) / float64(a)
			}
			res.Capacity[by*n+bx] = full * (1 - frac + frac*opt.MacroDerate)
		}
	}

	// Demand: RUDY. Each net adds (w+h)/(w·h) per unit area over its bbox,
	// widened by half a gcell on every side. A gcell's overlap with that
	// box is its x overlap times its y overlap, so a net's x overlaps are
	// computed once per column and each row multiplies them by its own.
	ox := make([]float64, n)
	for i := range d.Nets {
		bbox, pins := netBBox(pl, netlist.NetID(i))
		if pins < 2 {
			continue
		}
		w := float64(bbox.W) + binW // half-gcell smearing avoids zero-area
		h := float64(bbox.H) + binH
		density := (w + h) / (w * h)
		x0, y0 := binIndex(die, n, bbox.X, bbox.Y)
		x1, y1 := binIndex(die, n, bbox.X2(), bbox.Y2())
		lo, hi := float64(bbox.X)-binW/2, float64(bbox.X2())+binW/2
		for bx := x0; bx <= x1; bx++ {
			ox[bx] = overlap1D(float64(ex[bx]), float64(ex[bx+1]), lo, hi)
		}
		lo, hi = float64(bbox.Y)-binH/2, float64(bbox.Y2())+binH/2
		for by := y0; by <= y1; by++ {
			oy := overlap1D(float64(ey[by]), float64(ey[by+1]), lo, hi)
			row := res.Demand[by*n : (by+1)*n]
			for bx := x0; bx <= x1; bx++ {
				if ov := ox[bx] * oy; ov > 0 {
					row[bx] += density * ov
				}
			}
		}
	}

	over := 0
	for i := range res.Demand {
		res.TotalDemand += res.Demand[i]
		if res.Capacity[i] > 0 {
			ratio := res.Demand[i] / res.Capacity[i]
			if ratio > res.WorstRatio {
				res.WorstRatio = ratio
			}
			if ratio > 1 {
				over++
			}
		}
	}
	res.OverflowPct = 100 * float64(over) / float64(len(res.Demand))
	return res
}

func binIndex(die geom.Rect, n int, x, y int64) (int, int) {
	bx := int((x - die.X) * int64(n) / maxi64(die.W, 1))
	by := int((y - die.Y) * int64(n) / maxi64(die.H, 1))
	if bx < 0 {
		bx = 0
	}
	if bx >= n {
		bx = n - 1
	}
	if by < 0 {
		by = 0
	}
	if by >= n {
		by = n - 1
	}
	return bx, by
}

func overlap1D(a0, a1, b0, b1 float64) float64 {
	lo := a0
	if b0 > lo {
		lo = b0
	}
	hi := a1
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func netBBox(pl *placement.Placement, nid netlist.NetID) (geom.Rect, int) {
	net := pl.D.Net(nid)
	pins := 0
	var minX, maxX, minY, maxY int64
	for _, pid := range net.Pins {
		if !pl.Placed[pl.D.Pin(pid).Cell] {
			continue
		}
		p := pl.PinPos(pid)
		if pins == 0 {
			minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
		} else {
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		pins++
	}
	return geom.RectCorners(geom.Pt(minX, minY), geom.Pt(maxX, maxY)), pins
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
