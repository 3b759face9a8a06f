package shape

import "testing"

// TestArenaCombineAllocs pins the slab combines at zero allocations into a
// pre-sized slab — the invariant allocfree enforces statically on the
// //hidapvet:hotpath annotations. The combines write through capped
// sub-slices, so a kernel outgrowing its destination region would allocate
// and fail here rather than overwrite a neighbouring region.
func TestArenaCombineAllocs(t *testing.T) {
	var a Arena
	a.Resize(4 * MaxPoints)
	l := a.SetCurve(0, FromBoxRotatable(120, 80))
	r := a.SetCurve(MaxPoints, FromBoxRotatable(95, 60))
	var h, v Span
	avg := testing.AllocsPerRun(400, func() {
		h = a.CombineH(2*MaxPoints, l, r, 8)
		v = a.CombineV(3*MaxPoints, l, r, 8)
	})
	if avg != 0 {
		t.Fatalf("arena combine allocates %.2f objects/run, want 0", avg)
	}
	if h.N == 0 || v.N == 0 {
		t.Fatal("combined spans unexpectedly empty")
	}
}

// TestUnionIntoAllocs pins UnionInto at zero steady-state allocations: after
// one warm-up call grows the destination buffer to its high-water mark,
// accumulating into it must not allocate.
func TestUnionIntoAllocs(t *testing.T) {
	a := FromBoxRotatable(120, 80)
	b := CombineH(a, FromBoxRotatable(95, 60))
	var dst []Point
	var acc Curve
	acc, dst = UnionInto(dst, a, b)
	avg := testing.AllocsPerRun(400, func() {
		acc, dst = UnionInto(dst, acc, b)
	})
	if avg != 0 {
		t.Fatalf("UnionInto allocates %.2f objects/run, want 0", avg)
	}
	if acc.Len() == 0 {
		t.Fatal("union unexpectedly empty")
	}
}
