package placement

import (
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// FlipMacros is the macro flipping pass (the paper's Algorithm 1, line 6,
// "memory flipping"): every placed macro, in order, greedily takes the
// outline-preserving orientation (identity, mirror-X, mirror-Y, 180°) that
// minimizes the wirelength of its incident nets; a tie keeps the current
// one. Each pin is scored against the other cells' pins on its net, never
// against the macro's own other pins on that net: placed cells at their
// exact pin positions and, where approx is given, unplaced cells with
// hasApx set at their estimate approx[cell]. Passes repeat, at most
// passes times, until none flips a macro. Returns the number of
// orientation changes applied.
func (p *Placement) FlipMacros(macros []netlist.CellID, approx []geom.Point, hasApx []bool, passes int) int {
	flips := 0
	var nets []netCtx // one macro's scratch, reused by every call
	for pass := 0; pass < passes; pass++ {
		changed := false
		for _, m := range macros {
			if !p.Placed[m] {
				continue
			}
			if p.flipOne(m, approx, hasApx, &nets) {
				flips++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return flips
}

// netCtx is one incident pin of the macro being flipped: the bounding box
// of its net's other endpoints (orientation-independent) and the pin's
// library offset.
type netCtx struct {
	lo, hi geom.Point
	pin    geom.Point
}

// flipOne tries the four outline-preserving orientations of one macro and
// keeps the best. Reports whether the orientation changed. scratch is
// overwritten and may be grown.
func (p *Placement) flipOne(m netlist.CellID, approx []geom.Point, hasApx []bool, scratch *[]netCtx) bool {
	d := p.D
	nets := (*scratch)[:0]
	for _, pid := range d.Cell(m).Pins {
		pin := d.Pin(pid)
		nc := netCtx{lo: geom.Pt(math.MaxInt64, math.MaxInt64), hi: geom.Pt(math.MinInt64, math.MinInt64), pin: pin.Offset}
		for _, qid := range d.Net(pin.Net).Pins {
			q := d.Pin(qid)
			if q.Cell == m {
				continue
			}
			var pt geom.Point
			switch {
			case p.Placed[q.Cell]:
				pt = p.PinPos(qid)
			case hasApx != nil && hasApx[q.Cell]:
				pt = approx[q.Cell]
			default:
				continue
			}
			nc.lo = geom.Pt(min(nc.lo.X, pt.X), min(nc.lo.Y, pt.Y))
			nc.hi = geom.Pt(max(nc.hi.X, pt.X), max(nc.hi.Y, pt.Y))
		}
		if nc.lo.X <= nc.hi.X { // the net has another endpoint
			nets = append(nets, nc)
		}
	}
	*scratch = nets
	if len(nets) == 0 {
		return false
	}

	c := d.Cell(m)
	pos := p.Pos[m]
	cost := func(o geom.Orient) int64 {
		var sum int64
		for _, nc := range nets {
			pp := pos.Add(o.Apply(nc.pin, c.Width, c.Height))
			sum += max(nc.hi.X, pp.X) - min(nc.lo.X, pp.X) + max(nc.hi.Y, pp.Y) - min(nc.lo.Y, pp.Y)
		}
		return sum
	}

	base := p.Orient[m]
	bestO, bestC := base, cost(base)
	for _, o := range [3]geom.Orient{base.FlipX(), base.FlipY(), base.FlipX().FlipY()} {
		if cand := cost(o); cand < bestC {
			bestO, bestC = o, cand
		}
	}
	if bestO == base {
		return false
	}
	p.PlaceOriented(m, pos, bestO)
	return true
}
