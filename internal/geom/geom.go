// Package geom provides the integer geometry primitives used throughout the
// floorplanner: points, rectangles, Manhattan metrics, half-perimeter
// wirelength and the eight standard cell/macro orientations.
//
// All coordinates are in database units (DBU). The synthetic library in this
// repository uses 1 DBU = 1 nm, so a 10 mm die edge is 1e7 DBU; areas of
// realistic dies fit comfortably in int64.
package geom

import "fmt"

// Point is a location in DBU.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int64 {
	return abs64(p.X-q.X) + abs64(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Rect is an axis-aligned rectangle with origin (X, Y) at its lower-left
// corner and extents W×H. A Rect with W <= 0 or H <= 0 is empty.
type Rect struct {
	X, Y, W, H int64
}

// RectXYWH builds a rectangle from origin and extents.
func RectXYWH(x, y, w, h int64) Rect { return Rect{x, y, w, h} }

// RectCorners builds the rectangle spanned by two opposite corners.
func RectCorners(a, b Point) Rect {
	x0, x1 := a.X, b.X
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	y0, y1 := a.Y, b.Y
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// Empty reports whether r has non-positive width or height.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Area returns W*H (zero for empty rectangles).
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// X2 returns the right edge coordinate.
func (r Rect) X2() int64 { return r.X + r.W }

// Y2 returns the top edge coordinate.
func (r Rect) Y2() int64 { return r.Y + r.H }

// Center returns the center of r (rounded down).
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// Contains reports whether p lies inside r (inclusive of the lower-left
// edges, exclusive of the upper-right edges, the usual half-open convention).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X && p.X < r.X2() && p.Y >= r.Y && p.Y < r.Y2()
}

// ContainsRect reports whether s lies entirely within r (closed comparison).
func (r Rect) ContainsRect(s Rect) bool {
	return s.X >= r.X && s.Y >= r.Y && s.X2() <= r.X2() && s.Y2() <= r.Y2()
}

// Intersects reports whether r and s overlap with positive area.
func (r Rect) Intersects(s Rect) bool {
	return r.X < s.X2() && s.X < r.X2() && r.Y < s.Y2() && s.Y < r.Y2()
}

// Intersect returns the overlapping region of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	x := max64(r.X, s.X)
	y := max64(r.Y, s.Y)
	x2 := min64(r.X2(), s.X2())
	y2 := min64(r.Y2(), s.Y2())
	if x2 <= x || y2 <= y {
		return Rect{}
	}
	return Rect{x, y, x2 - x, y2 - y}
}

// Union returns the bounding box of r and s. Empty inputs are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	x := min64(r.X, s.X)
	y := min64(r.Y, s.Y)
	x2 := max64(r.X2(), s.X2())
	y2 := max64(r.Y2(), s.Y2())
	return Rect{x, y, x2 - x, y2 - y}
}

// Translate returns r moved by (dx, dy).
func (r Rect) Translate(dx, dy int64) Rect {
	return Rect{r.X + dx, r.Y + dy, r.W, r.H}
}

// ClampInside returns r moved by the smallest offset so that it lies inside
// outer. If r is larger than outer along an axis it is aligned to outer's
// lower-left on that axis.
func (r Rect) ClampInside(outer Rect) Rect {
	if r.X < outer.X {
		r.X = outer.X
	}
	if r.Y < outer.Y {
		r.Y = outer.Y
	}
	if r.X2() > outer.X2() {
		r.X = outer.X2() - r.W
	}
	if r.Y2() > outer.Y2() {
		r.Y = outer.Y2() - r.H
	}
	if r.X < outer.X {
		r.X = outer.X
	}
	if r.Y < outer.Y {
		r.Y = outer.Y
	}
	return r
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %dx%d]", r.X, r.Y, r.W, r.H)
}

// BoundingBox returns the bounding box of a set of points. It returns the
// empty rectangle for an empty set.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
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
	return Rect{minX, minY, maxX - minX, maxY - minY}
}

// HPWL returns the half-perimeter wirelength of a set of pin locations:
// the semi-perimeter of their bounding box. Nets with fewer than two pins
// contribute zero.
func HPWL(pts []Point) int64 {
	if len(pts) < 2 {
		return 0
	}
	bb := BoundingBox(pts)
	return bb.W + bb.H
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
