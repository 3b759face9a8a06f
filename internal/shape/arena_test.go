package shape

import (
	"math/rand"
	"testing"
)

// randCurve builds a random canonical curve with up to maxPts corners.
func randCurve(rng *rand.Rand, maxPts int) Curve {
	n := 1 + rng.Intn(maxPts)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{1 + rng.Int63n(500), 1 + rng.Int63n(500)})
	}
	return FromPoints(pts)
}

// sentinel fills every slab corner no curve occupies; a combine that writes
// outside its destination region shows up as a changed sentinel.
var sentinel = Point{-7, -7}

// TestArenaCombineDifferential pins the slab combines corner for corner
// against the allocating CombineH/CombineV(l, r).Thin(k) across randomized
// operand pairs, including empty operands and every thin budget the
// evaluators use. Operands and destination land at random non-overlapping
// offsets of one slab with sentinels everywhere else; the combine must leave
// the operands and every corner outside its l.N+r.N destination region
// untouched.
func TestArenaCombineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a Arena
	for iter := 0; iter < 2000; iter++ {
		l, r := randCurve(rng, 20), randCurve(rng, 20)
		if rng.Intn(10) == 0 {
			l = Curve{}
		}
		if rng.Intn(10) == 0 {
			r = Curve{}
		}
		k := []int{2, 3, 12, 16, MaxPoints}[rng.Intn(5)]
		for _, beside := range []bool{true, false} {
			// Lay out the three regions in a random order with random gaps.
			a.Resize(4 * MaxPoints)
			for i := range a.pts {
				a.pts[i] = sentinel
			}
			var ls, rs Span
			var dst, cur int32
			for _, region := range rng.Perm(3) {
				cur += int32(rng.Intn(4))
				switch region {
				case 0:
					ls = a.SetCurve(cur, l)
					cur += ls.N
				case 1:
					rs = a.SetCurve(cur, r)
					cur += rs.N
				default:
					dst = cur
					cur += int32(l.Len() + r.Len())
				}
			}
			var got Span
			var want Curve
			if beside {
				got = a.CombineH(dst, ls, rs, k)
				want = CombineH(l, r).Thin(k)
			} else {
				got = a.CombineV(dst, ls, rs, k)
				want = CombineV(l, r).Thin(k)
			}
			view := a.Curve(got)
			if got.Off != dst || view.String() != want.String() {
				t.Fatalf("iter %d beside=%v k=%d: span %+v %v, want offset %d %v", iter, beside, k, got, view, dst, want)
			}
			if cap(view.pts) != view.Len() {
				t.Fatalf("iter %d: view capacity %d exceeds its %d corners", iter, cap(view.pts), view.Len())
			}
			if a.Curve(ls).String() != l.String() || a.Curve(rs).String() != r.String() {
				t.Fatalf("iter %d beside=%v: combine overwrote an operand", iter, beside)
			}
			for i, p := range a.pts {
				i := int32(i)
				inside := func(off, n int32) bool { return i >= off && i < off+n }
				if !inside(ls.Off, ls.N) && !inside(rs.Off, rs.N) && !inside(dst, int32(l.Len()+r.Len())) && p != sentinel {
					t.Fatalf("iter %d beside=%v: corner %d outside the destination overwritten with %v", iter, beside, i, p)
				}
			}
		}
	}
}

// TestArenaSetCurveThinned pins the slab thin against Curve.Thin.
func TestArenaSetCurveThinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Arena
	a.Resize(MaxPoints)
	for iter := 0; iter < 500; iter++ {
		c := randCurve(rng, 40)
		k := 2 + rng.Intn(20)
		got := a.Curve(a.SetCurveThinned(0, c, k))
		if want := c.Thin(k); got.String() != want.String() {
			t.Fatalf("iter %d k=%d: %v, want %v", iter, k, got, want)
		}
	}
}

// TestUnionIntoDifferential pins UnionInto against Union, including the
// accumulation form whose first operand aliases the destination buffer.
func TestUnionIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var dst []Point
	var acc Curve
	for iter := 0; iter < 500; iter++ {
		a, b := randCurve(rng, 30), randCurve(rng, 30)
		var got Curve
		got, dst = UnionInto(dst, a, b)
		if want := Union(a, b); got.String() != want.String() {
			t.Fatalf("iter %d: UnionInto %v != %v", iter, got, want)
		}
		want := Union(acc, a)
		if acc, dst = UnionInto(dst, acc, a); acc.String() != want.String() {
			t.Fatalf("iter %d: aliased UnionInto %v != %v", iter, acc, want)
		}
	}
}
