package geom

import "fmt"

// Orient is one of the eight standard placement orientations (DEF naming).
// R0 is the library orientation; R90/R180/R270 rotate counter-clockwise;
// MY mirrors about the Y axis (flip left-right), MX mirrors about the X axis
// (flip top-bottom); MX90 and MY90 combine a mirror with a 90° rotation.
//
// The macro-flipping post-process of the HiDaP flow only uses the subset
// {R0, MX, MY, R180}, which preserves the macro outline; the full set is
// provided for completeness and used by shape-curve rotation.
type Orient uint8

const (
	R0 Orient = iota
	R90
	R180
	R270
	MX
	MY
	MX90
	MY90
)

var orientNames = [...]string{"R0", "R90", "R180", "R270", "MX", "MY", "MX90", "MY90"}

func (o Orient) String() string {
	if int(o) < len(orientNames) {
		return orientNames[o]
	}
	return fmt.Sprintf("Orient(%d)", uint8(o))
}

// ParseOrient converts a DEF-style orientation name back to an Orient.
func ParseOrient(s string) (Orient, error) {
	for i, n := range orientNames {
		if n == s {
			return Orient(i), nil
		}
	}
	return R0, fmt.Errorf("geom: unknown orientation %q", s)
}

// Swapped reports whether the orientation exchanges width and height.
func (o Orient) Swapped() bool {
	switch o {
	case R90, R270, MX90, MY90:
		return true
	}
	return false
}

// Dims returns the placed outline of a cell whose library outline is w×h.
func (o Orient) Dims(w, h int64) (int64, int64) {
	if o.Swapped() {
		return h, w
	}
	return w, h
}

// Apply maps a point p given in the library frame of a w×h cell (origin at
// the lower-left corner) to the placed frame of the oriented cell, whose
// origin is again at the lower-left corner of the placed outline.
func (o Orient) Apply(p Point, w, h int64) Point {
	switch o {
	case R0:
		return p
	case R90:
		// (x,y) -> (h-1? ) Use continuous convention: rotate CCW then shift.
		return Point{h - p.Y, p.X}
	case R180:
		return Point{w - p.X, h - p.Y}
	case R270:
		return Point{p.Y, w - p.X}
	case MY:
		return Point{w - p.X, p.Y}
	case MX:
		return Point{p.X, h - p.Y}
	case MY90:
		return Point{h - p.Y, w - p.X}
	case MX90:
		return Point{p.Y, p.X}
	}
	return p
}

// Compose returns the orientation equivalent to applying first a, then b.
func Compose(a, b Orient) Orient {
	// Represent each orientation as (rotation quarter-turns, mirrored about Y).
	ra, ma := decompose(a)
	rb, mb := decompose(b)
	// Applying a then b: total mirror = ma XOR mb; rotation composes, but a
	// mirror conjugates the rotation direction of what follows.
	var r int
	if mb {
		r = (rb - ra + 8) % 4
	} else {
		r = (ra + rb) % 4
	}
	return compose(r, ma != mb)
}

// decompose returns (quarter-turns CCW, mirroredY) such that the orientation
// equals "mirror about Y axis if mirroredY, then rotate CCW by quarter-turns".
func decompose(o Orient) (int, bool) {
	switch o {
	case R0:
		return 0, false
	case R90:
		return 1, false
	case R180:
		return 2, false
	case R270:
		return 3, false
	case MY:
		return 0, true
	case MY90:
		return 1, true
	case MX:
		return 2, true
	case MX90:
		return 3, true
	}
	return 0, false
}

func compose(r int, m bool) Orient {
	if !m {
		return [...]Orient{R0, R90, R180, R270}[r%4]
	}
	return [...]Orient{MY, MY90, MX, MX90}[r%4]
}

// FlipX returns o composed with a top-bottom flip (mirror about X axis).
func (o Orient) FlipX() Orient { return Compose(o, MX) }

// FlipY returns o composed with a left-right flip (mirror about Y axis).
func (o Orient) FlipY() Orient { return Compose(o, MY) }
