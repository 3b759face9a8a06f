package shape

// Span addresses one curve inside an Arena: N Pareto corners starting at
// slab offset Off. The zero Span is the empty curve. Spans are plain values;
// copying one never copies corner data.
type Span struct {
	Off, N int32
}

// Arena stores the corner points of many curves in one shared slab, so a
// tree evaluator keeps every curve of a slicing tree in one contiguous
// allocation instead of one heap slice per node. Nodes address their
// corners through Spans and read them as zero-copy views (Arena.Curve); the
// combines run the Curve kernels (mergeH, mergeV, thinInPlace) on capped
// sub-slices of the slab, so a kernel that outgrew its region would
// allocate a fresh array rather than overwrite a neighbouring one.
//
// The arena does no region bookkeeping: callers lay out leaf regions and
// per-node slots themselves and guarantee that a combine's destination
// region never overlaps its operand spans. An Arena must not be resized
// while another goroutine reads it; writes to disjoint regions from
// multiple goroutines are safe.
type Arena struct {
	pts []Point
}

// Resize grows or shrinks the slab to n corners, preserving existing
// contents up to n. Growth allocates at most once.
func (a *Arena) Resize(n int) {
	if cap(a.pts) < n {
		p := make([]Point, n)
		copy(p, a.pts)
		a.pts = p
		return
	}
	a.pts = a.pts[:n]
}

// Curve returns the span's corners as a Curve view of the slab: no copy, and
// capped at the span so appending to it never reaches past it. The view is
// valid until the span's region is rewritten.
//
//hidapvet:hotpath
func (a *Arena) Curve(s Span) Curve {
	return Curve{pts: a.pts[s.Off : s.Off+s.N : s.Off+s.N]}
}

// SetCurve copies c into the slab at off and returns its span. The caller
// guarantees capacity for c.Len() corners at off.
func (a *Arena) SetCurve(off int32, c Curve) Span {
	return Span{Off: off, N: int32(copy(a.pts[off:], c.pts))}
}

// SetCurveThinned is SetCurve followed by thinning to at most k corners —
// the slab form of c.Thin(k) — and returns the thinned span.
func (a *Arena) SetCurveThinned(off int32, c Curve, k int) Span {
	s := a.SetCurve(off, c)
	return a.thin(s, k)
}

// CombineH composes l beside r (widths add, heights max) into the region at
// dst and thins to at most k corners: the slab form of
// CombineH(l, r).Thin(k), corner for corner. The caller guarantees l.N+r.N
// corners of capacity at dst and that the destination region overlaps
// neither operand span.
//
//hidapvet:hotpath
func (a *Arena) CombineH(dst int32, l, r Span, k int) Span {
	return a.combine(dst, l, r, k, true)
}

// CombineV is the vertical-stack counterpart of CombineH (heights add,
// widths max), the slab form of CombineV(l, r).Thin(k).
//
//hidapvet:hotpath
func (a *Arena) CombineV(dst int32, l, r Span, k int) Span {
	return a.combine(dst, l, r, k, false)
}

//hidapvet:hotpath
func (a *Arena) combine(dst int32, l, r Span, k int, beside bool) Span {
	// An empty operand passes the other span through like CombineH/CombineV
	// do, copied so the result never aliases an input, then thinned to the
	// caller's budget.
	if l.N == 0 || r.N == 0 {
		src := l
		if l.N == 0 {
			src = r
		}
		return a.thin(Span{Off: dst, N: int32(copy(a.pts[dst:], a.Curve(src).pts))}, k)
	}
	out := a.pts[dst : dst : dst+l.N+r.N]
	if beside {
		out = mergeH(out, a.Curve(l).pts, a.Curve(r).pts)
	} else {
		out = mergeV(out, a.Curve(l).pts, a.Curve(r).pts)
	}
	// The same two-stage reduction as CombineH/CombineV(l, r).Thin(k):
	// MaxPoints first, then the caller's budget.
	return a.thin(Span{Off: dst, N: int32(len(thinInPlace(out, MaxPoints)))}, k)
}

// thin reduces a span to at most k corners in place (see thinInPlace).
//
//hidapvet:hotpath
func (a *Arena) thin(s Span, k int) Span {
	s.N = int32(len(thinInPlace(a.pts[s.Off:s.Off+s.N], k)))
	return s
}
