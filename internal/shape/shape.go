// Package shape implements shape curves (Γ in the paper): staircase
// functions describing the Pareto-minimal bounding boxes that can hold a
// placement of a set of hard macros.
//
// A Curve stores the Pareto corner points sorted by increasing width and
// strictly decreasing height. A box (w, h) "fits" the curve if some corner
// (w', h') has w' <= w and h' <= h; equivalently the staircase evaluated at
// w is at most h. Curves compose under slicing cuts in the Stockmeyer
// fashion: a horizontal juxtaposition adds widths and maxes heights, a
// vertical stack adds heights and maxes widths.
package shape

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Point is one Pareto corner of a shape curve: a minimal bounding box.
type Point struct {
	W, H int64
}

// Area returns the box area of the corner.
func (p Point) Area() int64 { return p.W * p.H }

// Curve is a shape curve: Pareto-minimal (W, H) corners, sorted by
// increasing W (and therefore strictly decreasing H). The zero value is the
// empty curve, which represents "nothing to place": everything fits it and
// its MinHeightForWidth is 0.
type Curve struct {
	pts []Point
}

// MaxPoints bounds the number of corners kept per curve. Compositions can
// grow quadratically; curves are thinned back to this budget while always
// keeping the two extreme corners. 64 corners track the true staircase
// closely for the block counts used at one floorplanning level.
const MaxPoints = 64

// FromBox returns the curve of a single fixed w×h box.
func FromBox(w, h int64) Curve {
	if w <= 0 || h <= 0 {
		return Curve{}
	}
	return Curve{pts: []Point{{w, h}}}
}

// FromBoxRotatable returns the curve of a w×h box that may also be placed
// rotated by 90 degrees.
func FromBoxRotatable(w, h int64) Curve {
	if w <= 0 || h <= 0 {
		return Curve{}
	}
	if w == h {
		return Curve{pts: []Point{{w, h}}}
	}
	return FromPoints([]Point{{w, h}, {h, w}})
}

// FromPoints builds a curve from arbitrary candidate boxes, pruning
// dominated ones. The input slice is not modified.
func FromPoints(pts []Point) Curve {
	cp := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.W > 0 && p.H > 0 {
			cp = append(cp, p)
		}
	}
	return Curve{pts: prune(cp)}
}

// prune sorts candidates and removes Pareto-dominated points, returning the
// canonical corner list thinned to MaxPoints. It works in place on pts.
func prune(pts []Point) []Point {
	return thinInPlace(pruneInPlace(pts), MaxPoints)
}

// pruneInPlace sorts candidates and removes Pareto-dominated points without
// allocating: the returned canonical list reuses the input's backing array.
// Unlike prune it does not thin to MaxPoints.
func pruneInPlace(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	slices.SortFunc(pts, func(a, b Point) int {
		if a.W != b.W {
			return cmp.Compare(a.W, b.W)
		}
		return cmp.Compare(a.H, b.H)
	})
	out := pts[:0]
	for _, p := range pts {
		// Drop p if the last kept point dominates it; drop kept points that
		// p dominates (they have smaller-or-equal W, so only equal-W cases
		// plus decreasing-H violations).
		for len(out) > 0 {
			last := out[len(out)-1]
			if last.H <= p.H {
				// last dominates p (last.W <= p.W by sort order).
				goto next
			}
			if last.W == p.W {
				// p has smaller H at same W: replace.
				out = out[:len(out)-1]
				continue
			}
			break
		}
		out = append(out, p)
	next:
	}
	return out
}

// thinInPlace reduces the corner count to at most limit in place, always
// keeping both extremes and preferring a uniform spread across the list.
// Thinning only removes interior corners, which keeps the curve
// conservative: every kept corner is still achievable; some achievable
// boxes may be reported as slightly larger. The sampling index
// i*(n-1)/(limit-1) never falls behind the write index, so reads stay
// ahead of writes.
func thinInPlace(pts []Point, limit int) []Point {
	n := len(pts)
	if n <= limit || limit < 2 {
		return pts
	}
	w := 0
	for i := 0; i < limit; i++ {
		p := pts[i*(n-1)/(limit-1)]
		if w > 0 && p == pts[w-1] {
			continue
		}
		pts[w] = p
		w++
	}
	return pts[:w]
}

// Empty reports whether the curve has no corners (nothing to place).
func (c Curve) Empty() bool { return len(c.pts) == 0 }

// Len returns the number of Pareto corners.
func (c Curve) Len() int { return len(c.pts) }

// Points returns a copy of the Pareto corners in canonical order.
func (c Curve) Points() []Point {
	out := make([]Point, len(c.pts))
	copy(out, c.pts)
	return out
}

// Corner returns the i-th Pareto corner without copying; hot loops pair it
// with Len instead of allocating through Points.
func (c Curve) Corner(i int) Point { return c.pts[i] }

// MinWidth returns the smallest feasible width (0 for the empty curve).
func (c Curve) MinWidth() int64 {
	if c.Empty() {
		return 0
	}
	return c.pts[0].W
}

// MinHeight returns the smallest feasible height (0 for the empty curve).
func (c Curve) MinHeight() int64 {
	if c.Empty() {
		return 0
	}
	return c.pts[len(c.pts)-1].H
}

// MinHeightForWidth returns the smallest height that can hold the contents
// when the width is at most w. It returns (0, true) for the empty curve and
// (0, false) when even the narrowest corner is wider than w. Curves are a
// dozen corners in the annealing hot paths, so a linear scan beats a
// binary search with its per-probe closure call.
func (c Curve) MinHeightForWidth(w int64) (int64, bool) {
	// Largest corner with W <= w; corners sorted by W ascending.
	i := 0
	for i < len(c.pts) && c.pts[i].W <= w {
		i++
	}
	if i == 0 {
		if c.Empty() {
			return 0, true
		}
		return 0, false
	}
	return c.pts[i-1].H, true
}

// MinWidthForHeight is the transpose of MinHeightForWidth.
func (c Curve) MinWidthForHeight(h int64) (int64, bool) {
	if c.Empty() {
		return 0, true
	}
	// Heights are strictly decreasing; find the first corner with H <= h.
	for i := 0; i < len(c.pts); i++ {
		if c.pts[i].H <= h {
			return c.pts[i].W, true
		}
	}
	return 0, false
}

// Fits reports whether a w×h box can hold the contents.
func (c Curve) Fits(w, h int64) bool {
	mh, ok := c.MinHeightForWidth(w)
	return ok && mh <= h
}

// MinAreaPoint returns the corner with the smallest box area. For the empty
// curve it returns the zero Point.
func (c Curve) MinAreaPoint() Point {
	var best Point
	bestArea := int64(math.MaxInt64)
	for _, p := range c.pts {
		if a := p.Area(); a < bestArea {
			bestArea = a
			best = p
		}
	}
	if c.Empty() {
		return Point{}
	}
	return best
}

// MinArea returns the smallest feasible box area (0 for the empty curve).
func (c Curve) MinArea() int64 { return c.MinAreaPoint().Area() }

// Thin returns a copy of the curve with at most k corners, always keeping
// the two extremes. Thinned curves stay conservative (see thinInPlace).
// Hot paths that already own a buffer thin inside an Arena instead.
func (c Curve) Thin(k int) Curve {
	if len(c.pts) <= k {
		return c
	}
	cp := make([]Point, len(c.pts))
	copy(cp, c.pts)
	return Curve{pts: thinInPlace(cp, k)}
}

// Union returns the curve that fits a box iff any input curve fits it
// (alternative realizations of the same contents).
func Union(curves ...Curve) Curve {
	var all []Point
	for _, c := range curves {
		all = append(all, c.pts...)
	}
	return Curve{pts: prune(all)}
}

// CombineH places a beside b (horizontal juxtaposition, vertical cut):
// widths add, heights max. Combining with an empty curve yields the other
// curve unchanged.
func CombineH(a, b Curve) Curve {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return Curve{pts: thinInPlace(mergeH(make([]Point, 0, len(a.pts)+len(b.pts)), a.pts, b.pts), MaxPoints)}
}

// CombineV stacks a on top of b (horizontal cut): heights add, widths max.
func CombineV(a, b Curve) Curve {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return Curve{pts: thinInPlace(mergeV(make([]Point, 0, len(a.pts)+len(b.pts)), a.pts, b.pts), MaxPoints)}
}

// mergeH appends the Pareto frontier of the horizontal juxtaposition of two
// canonical staircases to dst — the Stockmeyer merge. Walking the binding
// height downward and advancing the taller operand visits, for every
// achievable max-height level, exactly the width-minimal pair; the output
// is canonical (W strictly ascending, H strictly descending) and equals the
// pruned cross product point for point in O(p+q) instead of O(pq·log pq).
func mergeH(dst []Point, a, b []Point) []Point {
	i, j := 0, 0
	for {
		pa, pb := a[i], b[j]
		h := pa.H
		if pb.H > h {
			h = pb.H
		}
		dst = append(dst, Point{pa.W + pb.W, h})
		switch {
		case pa.H > pb.H:
			if i++; i == len(a) {
				return dst
			}
		case pb.H > pa.H:
			if j++; j == len(b) {
				return dst
			}
		default:
			i++
			j++
			if i == len(a) || j == len(b) {
				return dst
			}
		}
	}
}

// mergeV is the vertical-stack counterpart of mergeH: heights add, widths
// max. It walks the binding width downward from the wide end (the roles of
// W and H transpose), then reverses into canonical order.
func mergeV(dst []Point, a, b []Point) []Point {
	i, j := len(a)-1, len(b)-1
	for {
		pa, pb := a[i], b[j]
		w := pa.W
		if pb.W > w {
			w = pb.W
		}
		dst = append(dst, Point{w, pa.H + pb.H})
		switch {
		case pa.W > pb.W:
			if i--; i < 0 {
				break
			}
			continue
		case pb.W > pa.W:
			if j--; j < 0 {
				break
			}
			continue
		default:
			i--
			j--
			if i < 0 || j < 0 {
				break
			}
			continue
		}
		break
	}
	for l, r := 0, len(dst)-1; l < r; l, r = l+1, r-1 {
		dst[l], dst[r] = dst[r], dst[l]
	}
	return dst
}

// UnionInto is Union(a, b) written into dst without allocating in steady
// state — the binary form covers the accumulation loops of shape-curve
// generation. The corners are copied into dst (reusing its capacity, growing
// it only when needed) and pruned in place, so a may alias dst. The returned
// curve aliases the returned slice; both remain valid until dst is reused in
// another call. Results are identical to Union corner for corner.
//
//hidapvet:hotpath
func UnionInto(dst []Point, a, b Curve) (Curve, []Point) {
	dst = append(append(dst[:0], a.pts...), b.pts...)
	dst = prune(dst) //hidapvet:allow allocfree prune sorts with a non-capturing comparator (a static func value) and compacts in place
	return Curve{pts: dst}, dst
}

func (c Curve) String() string {
	if c.Empty() {
		return "Γ{}"
	}
	var sb strings.Builder
	sb.WriteString("Γ{")
	for i, p := range c.pts {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%dx%d", p.W, p.H)
	}
	sb.WriteString("}")
	return sb.String()
}
