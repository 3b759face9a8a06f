package shape

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromBox(t *testing.T) {
	c := FromBox(30, 10)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if !c.Fits(30, 10) || !c.Fits(31, 10) || !c.Fits(30, 11) {
		t.Error("box should fit itself and anything larger")
	}
	if c.Fits(29, 10) || c.Fits(30, 9) {
		t.Error("box must not fit anything smaller")
	}
	if c.MinArea() != 300 {
		t.Errorf("MinArea = %d, want 300", c.MinArea())
	}
	if FromBox(0, 5).Len() != 0 || FromBox(5, -1).Len() != 0 {
		t.Error("degenerate boxes should produce empty curves")
	}
}

func TestFromBoxRotatable(t *testing.T) {
	c := FromBoxRotatable(30, 10)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !c.Fits(30, 10) || !c.Fits(10, 30) {
		t.Error("rotatable box should fit in either orientation")
	}
	if c.Fits(29, 29) {
		t.Error("29x29 cannot hold a 30x10 box in any orientation")
	}
	sq := FromBoxRotatable(7, 7)
	if sq.Len() != 1 {
		t.Errorf("square rotatable curve Len = %d, want 1", sq.Len())
	}
}

func TestPruneRemovesDominated(t *testing.T) {
	c := FromPoints([]Point{{10, 10}, {12, 10}, {10, 12}, {5, 20}, {20, 5}, {10, 10}})
	want := []Point{{5, 20}, {10, 10}, {20, 5}}
	got := c.Points()
	if len(got) != len(want) {
		t.Fatalf("Points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Points = %v, want %v", got, want)
		}
	}
}

func TestCanonicalOrderInvariant(t *testing.T) {
	// Property: corners are sorted by increasing W and strictly decreasing H.
	f := func(raw []uint16) bool {
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point{int64(raw[i])%100 + 1, int64(raw[i+1])%100 + 1})
		}
		c := FromPoints(pts)
		got := c.Points()
		for i := 1; i < len(got); i++ {
			if got[i].W <= got[i-1].W || got[i].H >= got[i-1].H {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinHeightForWidth(t *testing.T) {
	c := FromPoints([]Point{{5, 20}, {10, 10}, {20, 5}})
	cases := []struct {
		w    int64
		want int64
		ok   bool
	}{
		{4, 0, false},
		{5, 20, true},
		{9, 20, true},
		{10, 10, true},
		{15, 10, true},
		{20, 5, true},
		{1000, 5, true},
	}
	for _, cse := range cases {
		got, ok := c.MinHeightForWidth(cse.w)
		if ok != cse.ok || got != cse.want {
			t.Errorf("MinHeightForWidth(%d) = (%d,%v), want (%d,%v)", cse.w, got, ok, cse.want, cse.ok)
		}
	}
}

func TestMinWidthForHeight(t *testing.T) {
	c := FromPoints([]Point{{5, 20}, {10, 10}, {20, 5}})
	cases := []struct {
		h    int64
		want int64
		ok   bool
	}{
		{4, 0, false},
		{5, 20, true},
		{9, 20, true},
		{10, 10, true},
		{19, 10, true},
		{20, 5, true},
		{1000, 5, true},
	}
	for _, cse := range cases {
		got, ok := c.MinWidthForHeight(cse.h)
		if ok != cse.ok || got != cse.want {
			t.Errorf("MinWidthForHeight(%d) = (%d,%v), want (%d,%v)", cse.h, got, ok, cse.want, cse.ok)
		}
	}
}

// TestTransposeDuality: MinWidthForHeight on the curve equals
// MinHeightForWidth on the curve of its transposed corners.
func TestTransposeDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		pts := make([]Point, 1+rng.Intn(8))
		rot := make([]Point, len(pts))
		for i := range pts {
			pts[i] = Point{int64(rng.Intn(50) + 1), int64(rng.Intn(50) + 1)}
			rot[i] = Point{pts[i].H, pts[i].W}
		}
		c, r := FromPoints(pts), FromPoints(rot)
		for q := int64(1); q <= 55; q++ {
			w1, ok1 := c.MinWidthForHeight(q)
			w2, ok2 := r.MinHeightForWidth(q)
			if ok1 != ok2 || w1 != w2 {
				t.Fatalf("duality violated at h=%d: (%d,%v) vs (%d,%v) for %v", q, w1, ok1, w2, ok2, c)
			}
		}
	}
}

func TestEmptyCurveSemantics(t *testing.T) {
	var c Curve
	if !c.Empty() {
		t.Fatal("zero Curve should be empty")
	}
	if !c.Fits(1, 1) || !c.Fits(0, 0) {
		t.Error("everything fits the empty curve")
	}
	if h, ok := c.MinHeightForWidth(5); !ok || h != 0 {
		t.Error("empty curve MinHeightForWidth should be (0,true)")
	}
	if c.MinArea() != 0 {
		t.Error("empty curve MinArea should be 0")
	}
}

func TestCombineH(t *testing.T) {
	a := FromBox(10, 20)
	b := FromBox(5, 8)
	c := CombineH(a, b)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if got := c.Points()[0]; got != (Point{15, 20}) {
		t.Errorf("CombineH = %v, want {15 20}", got)
	}
}

func TestCombineV(t *testing.T) {
	a := FromBox(10, 20)
	b := FromBox(5, 8)
	c := CombineV(a, b)
	if got := c.Points()[0]; got != (Point{10, 28}) {
		t.Errorf("CombineV = %v, want {10 28}", got)
	}
}

func TestCombineWithEmpty(t *testing.T) {
	a := FromBox(10, 20)
	if got := CombineH(a, Curve{}); got.String() != a.String() {
		t.Errorf("CombineH with empty = %v", got)
	}
	if got := CombineV(Curve{}, a); got.String() != a.String() {
		t.Errorf("CombineV with empty = %v", got)
	}
}

func TestCombineRotatable(t *testing.T) {
	// Two rotatable 30x10 macros side by side: realizations include
	// 60x10 (both flat), 40x30 (both upright), 40x30 via mixed? mixed is
	// 30+10 x max(10,30) = 40x30 as well; so corners {60,10},{40,30},{20,30}?
	// mixed upright+upright is 10+10 x 30 = 20x30.
	a := FromBoxRotatable(30, 10)
	c := CombineH(a, a)
	want := map[Point]bool{{60, 10}: true, {40, 30}: true, {20, 30}: true}
	got := c.Points()
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected corner %v", p)
		}
	}
	// {40,30} is dominated by {20,30}: same H, larger W. So expect 2 corners.
	if !c.Fits(20, 30) || !c.Fits(60, 10) {
		t.Error("expected realizations missing")
	}
	if c.Fits(19, 30) || c.Fits(59, 10) {
		t.Error("curve too optimistic")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d (%v), want 2 after domination pruning", c.Len(), got)
	}
}

// TestCombineConservative: the combined curve never claims to fit a box in
// which no pair of realizations fits.
func TestCombineConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		a := randomCurve(rng)
		b := randomCurve(rng)
		ch := CombineH(a, b)
		for _, p := range ch.Points() {
			// There must exist corners pa, pb with pa.W+pb.W <= p.W and
			// max(H) <= p.H.
			ok := false
			for _, pa := range a.Points() {
				for _, pb := range b.Points() {
					h := pa.H
					if pb.H > h {
						h = pb.H
					}
					if pa.W+pb.W <= p.W && h <= p.H {
						ok = true
					}
				}
			}
			if !ok {
				t.Fatalf("CombineH produced unachievable corner %v from %v, %v", p, a, b)
			}
		}
	}
}

func randomCurve(rng *rand.Rand) Curve {
	n := 1 + rng.Intn(6)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{int64(rng.Intn(40) + 1), int64(rng.Intn(40) + 1)}
	}
	return FromPoints(pts)
}

func TestUnion(t *testing.T) {
	a := FromBox(10, 20)
	b := FromBox(20, 10)
	u := Union(a, b)
	if !u.Fits(10, 20) || !u.Fits(20, 10) {
		t.Error("union should fit both alternatives")
	}
	if u.Fits(10, 10) {
		t.Error("union too optimistic")
	}
}

func TestThinKeepsExtremes(t *testing.T) {
	pts := make([]Point, 0, 500)
	for i := int64(1); i <= 500; i++ {
		pts = append(pts, Point{i, 501 - i})
	}
	c := FromPoints(pts)
	if c.Len() > MaxPoints {
		t.Fatalf("Len = %d, want <= %d", c.Len(), MaxPoints)
	}
	got := c.Points()
	if got[0] != (Point{1, 500}) {
		t.Errorf("first corner = %v, want {1 500}", got[0])
	}
	if got[len(got)-1] != (Point{500, 1}) {
		t.Errorf("last corner = %v, want {500 1}", got[len(got)-1])
	}
}

func TestMinAreaPoint(t *testing.T) {
	c := FromPoints([]Point{{5, 20}, {10, 9}, {20, 5}})
	if got := c.MinAreaPoint(); got != (Point{10, 9}) {
		t.Errorf("MinAreaPoint = %v, want {10 9}", got)
	}
}

// TestFitsMonotone: if (w,h) fits then any (w+dw, h+dh) fits.
func TestFitsMonotone(t *testing.T) {
	f := func(w, h, dw, dh uint8) bool {
		c := FromPoints([]Point{{7, 31}, {13, 17}, {29, 5}})
		W, H := int64(w), int64(h)
		if !c.Fits(W, H) {
			return true
		}
		return c.Fits(W+int64(dw), H+int64(dh))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	if s := (Curve{}).String(); s != "Γ{}" {
		t.Errorf("empty String = %q", s)
	}
	if s := FromBox(3, 4).String(); s != "Γ{3x4}" {
		t.Errorf("String = %q", s)
	}
}

// TestCombineMergeMatchesCrossProduct pins the Stockmeyer merge inside
// CombineH/CombineV to the brute-force reference: prune the full cross
// product of the operand corners. The two must agree corner for corner
// across random canonical staircases, including single-point and
// shared-height/width operands.
func TestCombineMergeMatchesCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randCurve := func(maxPts int) Curve {
		n := 1 + rng.Intn(maxPts)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{int64(1 + rng.Intn(500)), int64(1 + rng.Intn(500))}
		}
		return FromPoints(pts)
	}
	crossH := func(a, b Curve) []Point {
		var pts []Point
		for _, pa := range a.pts {
			for _, pb := range b.pts {
				h := pa.H
				if pb.H > h {
					h = pb.H
				}
				pts = append(pts, Point{pa.W + pb.W, h})
			}
		}
		return prune(pts)
	}
	crossV := func(a, b Curve) []Point {
		var pts []Point
		for _, pa := range a.pts {
			for _, pb := range b.pts {
				w := pa.W
				if pb.W > w {
					w = pb.W
				}
				pts = append(pts, Point{w, pa.H + pb.H})
			}
		}
		return prune(pts)
	}
	equal := func(got, want []Point) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	for iter := 0; iter < 2000; iter++ {
		a, b := randCurve(20), randCurve(20)
		if gh := CombineH(a, b); !equal(gh.pts, crossH(a, b)) {
			t.Fatalf("iter %d: CombineH merge %v != cross %v\na=%v\nb=%v", iter, gh.pts, crossH(a, b), a, b)
		}
		if gv := CombineV(a, b); !equal(gv.pts, crossV(a, b)) {
			t.Fatalf("iter %d: CombineV merge %v != cross %v\na=%v\nb=%v", iter, gv.pts, crossV(a, b), a, b)
		}
	}
}
