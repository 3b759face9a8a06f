package core

import (
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// flipMacros is the orientation post-process of Algorithm 1 (line 6,
// "memory flipping"): every placed macro greedily takes the
// outline-preserving orientation (identity, mirror-X, mirror-Y, 180°) that
// minimizes the wirelength of its incident nets, using exact pin offsets
// for placed cells and block-center estimates for cells the flow has not
// placed yet ("macro side dataflow"). Passes repeat until no macro flips.
// Returns the number of orientation changes applied.
func flipMacros(pl *placement.Placement, approx []geom.Point, hasApx []bool) int {
	d := pl.D
	macros := d.Macros()
	flips := 0
	var nets []netCtx // one macro's scratch, reused by every call
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, m := range macros {
			if !pl.Placed[m] {
				continue
			}
			if flipOneMacro(pl, m, approx, hasApx, &nets) {
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

// span tracks the bounding interval of a point set on one axis.
type span struct{ lo, hi int64 }

func (s *span) extendPoint(v int64, first bool) {
	if first || v < s.lo {
		s.lo = v
	}
	if first || v > s.hi {
		s.hi = v
	}
}

// netCtx is one incident net of the macro being flipped: the bounding
// spans of its other endpoints (orientation-independent) and the macro's
// pin offset on it.
type netCtx struct {
	x, y   span
	others int
	pin    geom.Point // this macro's pin library offset
}

// flipOneMacro tries the four outline-preserving orientations of one macro
// and keeps the best. Reports whether the orientation changed. scratch is
// overwritten and may be grown.
func flipOneMacro(pl *placement.Placement, m netlist.CellID, approx []geom.Point, hasApx []bool, scratch *[]netCtx) bool {
	d := pl.D
	base := pl.Orient[m]
	candidates := [4]geom.Orient{
		base,
		base.FlipX(),
		base.FlipY(),
		base.FlipX().FlipY(),
	}

	// Precompute, per incident net, the bounding spans of the other
	// endpoints and this macro's pin offset.
	nets := (*scratch)[:0]
	for _, pid := range d.Cell(m).Pins {
		pin := d.Pin(pid)
		ctx := netCtx{pin: pin.Offset}
		for _, qid := range d.Net(pin.Net).Pins {
			q := d.Pin(qid)
			if q.Cell == m {
				continue
			}
			var p geom.Point
			switch {
			case pl.Placed[q.Cell]:
				p = pl.PinPos(qid)
			case hasApx != nil && hasApx[q.Cell]:
				p = approx[q.Cell]
			default:
				continue
			}
			first := ctx.others == 0
			ctx.x.extendPoint(p.X, first)
			ctx.y.extendPoint(p.Y, first)
			ctx.others++
		}
		if ctx.others > 0 {
			nets = append(nets, ctx)
		}
	}
	*scratch = nets
	if len(nets) == 0 {
		return false
	}

	c := d.Cell(m)
	pos := pl.Pos[m]
	cost := func(o geom.Orient) int64 {
		var sum int64
		for i := range nets {
			pp := pos.Add(o.Apply(nets[i].pin, c.Width, c.Height))
			x, y := nets[i].x, nets[i].y
			x.extendPoint(pp.X, false)
			y.extendPoint(pp.Y, false)
			sum += (x.hi - x.lo) + (y.hi - y.lo)
		}
		return sum
	}

	bestO := base
	bestC := cost(base)
	for _, o := range candidates[1:] {
		if cand := cost(o); cand < bestC {
			bestC = cand
			bestO = o
		}
	}
	if bestO == base {
		return false
	}
	pl.PlaceOriented(m, pos, bestO)
	return true
}
