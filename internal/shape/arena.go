package shape

// Span addresses one curve inside an Arena: N Pareto corners starting at
// slab offset Off. The zero Span is the empty curve. Spans are plain values;
// copying one never copies corner data.
type Span struct {
	Off, N int32
}

// Empty reports whether the span holds no corners.
func (s Span) Empty() bool { return s.N == 0 }

// Arena stores the corner points of many curves in two shared int64 slabs —
// widths and heights, structure-of-arrays — so a tree evaluator keeps every
// curve of a slicing tree in two contiguous allocations instead of one
// heap slice per node. Nodes address their corners through Spans; the
// composition and query kernels below read and write the slabs directly and
// are corner-for-corner identical to the Curve operations they mirror
// (mergeH/mergeV, thinInPlace, MinHeightForWidth and friends), which the
// differential tests in arena_test.go pin.
//
// The arena does no region bookkeeping: callers lay out leaf regions and
// per-node slots themselves and guarantee that a combine's destination
// region never overlaps its operand spans. An Arena must not be resized
// while another goroutine reads it; writes to disjoint regions from
// multiple goroutines are safe.
type Arena struct {
	W, H []int64
}

// Resize grows or shrinks the slabs to n corners, preserving existing
// contents up to n. Growth allocates at most once per slab.
func (a *Arena) Resize(n int) {
	if cap(a.W) < n {
		w := make([]int64, n)
		h := make([]int64, n)
		copy(w, a.W)
		copy(h, a.H)
		a.W, a.H = w, h
		return
	}
	a.W, a.H = a.W[:n], a.H[:n]
}

// Len returns the slab length in corners.
func (a *Arena) Len() int { return len(a.W) }

// SetCurve copies c into the slabs at off and returns its span. The caller
// guarantees capacity for c.Len() corners at off.
func (a *Arena) SetCurve(off int32, c Curve) Span {
	for i, p := range c.pts {
		a.W[off+int32(i)] = p.W
		a.H[off+int32(i)] = p.H
	}
	return Span{Off: off, N: int32(len(c.pts))}
}

// SetCurveThinned is SetCurve followed by thinning to at most k corners —
// the slab form of c.Thin(k) — and returns the thinned span.
func (a *Arena) SetCurveThinned(off int32, c Curve, k int) Span {
	s := a.SetCurve(off, c)
	s.N = a.thinAt(s.Off, s.N, k)
	return s
}

// AppendCurve materializes a span's corners onto dst and returns the
// extended slice; FromCanonical turns the result back into a Curve.
func (a *Arena) AppendCurve(dst []Point, s Span) []Point {
	for i := int32(0); i < s.N; i++ {
		dst = append(dst, Point{a.W[s.Off+i], a.H[s.Off+i]})
	}
	return dst
}

// Corner returns the i-th Pareto corner of the span.
//
//hidapvet:hotpath
func (a *Arena) Corner(s Span, i int) Point {
	return Point{a.W[s.Off+int32(i)], a.H[s.Off+int32(i)]}
}

// MinWidth returns the smallest feasible width (0 for the empty span).
//
//hidapvet:hotpath
func (a *Arena) MinWidth(s Span) int64 {
	if s.N == 0 {
		return 0
	}
	return a.W[s.Off]
}

// MinHeight returns the smallest feasible height (0 for the empty span).
//
//hidapvet:hotpath
func (a *Arena) MinHeight(s Span) int64 {
	if s.N == 0 {
		return 0
	}
	return a.H[s.Off+s.N-1]
}

// MinHeightForWidth mirrors Curve.MinHeightForWidth on the slabs: the
// smallest height holding the contents at width at most w, (0, true) for
// the empty span, (0, false) when even the narrowest corner is wider.
//
//hidapvet:hotpath
func (a *Arena) MinHeightForWidth(s Span, w int64) (int64, bool) {
	ws := a.W
	o, n := int(s.Off), int(s.N)
	i := o
	for i < o+n && ws[i] <= w {
		i++
	}
	if i == o {
		if n == 0 {
			return 0, true
		}
		return 0, false
	}
	return a.H[i-1], true
}

// MinWidthForHeight is the transpose of MinHeightForWidth.
//
//hidapvet:hotpath
func (a *Arena) MinWidthForHeight(s Span, h int64) (int64, bool) {
	if s.N == 0 {
		return 0, true
	}
	hs := a.H
	o, e := int(s.Off), int(s.Off+s.N)
	for i := o; i < e; i++ {
		if hs[i] <= h {
			return a.W[i], true
		}
	}
	return 0, false
}

// Fits reports whether a w×h box can hold the span's contents.
//
//hidapvet:hotpath
func (a *Arena) Fits(s Span, w, h int64) bool {
	mh, ok := a.MinHeightForWidth(s, w)
	return ok && mh <= h
}

// CombineH composes l beside r (widths add, heights max) into the region at
// dst and thins to at most k corners — the slab form of Scratch.CombineH,
// corner for corner. The caller guarantees l.N+r.N corners of capacity at
// dst and that the destination region overlaps neither operand span.
//
//hidapvet:hotpath
func (a *Arena) CombineH(dst int32, l, r Span, k int) Span {
	return a.combineAt(dst, l, r, k, true)
}

// CombineV is the vertical-stack counterpart of CombineH (heights add,
// widths max), the slab form of Scratch.CombineV.
//
//hidapvet:hotpath
func (a *Arena) CombineV(dst int32, l, r Span, k int) Span {
	return a.combineAt(dst, l, r, k, false)
}

//hidapvet:hotpath
func (a *Arena) combineAt(dst int32, l, r Span, k int, beside bool) Span {
	// Empty operands mirror Scratch.combine: the other span passes through
	// (copied, so the result never aliases an input) under the caller's
	// thin budget.
	if l.N == 0 {
		n := a.copyAt(dst, r)
		return Span{Off: dst, N: a.thinAt(dst, n, k)}
	}
	if r.N == 0 {
		n := a.copyAt(dst, l)
		return Span{Off: dst, N: a.thinAt(dst, n, k)}
	}
	var s Span
	if beside {
		s = Span{Off: dst, N: a.mergeHAt(dst, l, r)}
	} else {
		s = a.mergeVAt(dst, l, r)
	}
	s.N = a.thinAt(s.Off, s.N, MaxPoints)
	s.N = a.thinAt(s.Off, s.N, k)
	return s
}

// copyAt copies a span's corners to dst and returns the count.
//
//hidapvet:hotpath
func (a *Arena) copyAt(dst int32, s Span) int32 {
	copy(a.W[dst:dst+s.N], a.W[s.Off:s.Off+s.N])
	copy(a.H[dst:dst+s.N], a.H[s.Off:s.Off+s.N])
	return s.N
}

// mergeHAt is mergeH on the slabs: the Stockmeyer merge of the horizontal
// juxtaposition, walking the binding height downward. Emits the canonical
// frontier at dst and returns the corner count.
//
//hidapvet:hotpath
func (a *Arena) mergeHAt(dst int32, l, r Span) int32 {
	ws, hs := a.W, a.H
	i, j := int(l.Off), int(r.Off)
	le, re := i+int(l.N), j+int(r.N)
	w := int(dst)
	for {
		aw, ah := ws[i], hs[i]
		bw, bh := ws[j], hs[j]
		h := ah
		if bh > h {
			h = bh
		}
		ws[w], hs[w] = aw+bw, h
		w++
		switch {
		case ah > bh:
			if i++; i == le {
				return int32(w) - dst
			}
		case bh > ah:
			if j++; j == re {
				return int32(w) - dst
			}
		default:
			i++
			j++
			if i == le || j == re {
				return int32(w) - dst
			}
		}
	}
}

// mergeVAt is mergeV on the slabs: heights add, widths max, walking the
// binding width downward from the wide end. The walk emits widest-first, so
// it writes downward from the top of the destination region (capacity
// l.N+r.N, caller-guaranteed) and the result lands in canonical ascending
// order with no reverse pass; the returned span starts wherever the last
// corner landed.
//
//hidapvet:hotpath
func (a *Arena) mergeVAt(dst int32, l, r Span) Span {
	ws, hs := a.W, a.H
	lo, ro := int(l.Off), int(r.Off)
	i, j := lo+int(l.N)-1, ro+int(r.N)-1
	top := int(dst) + int(l.N) + int(r.N)
	w := top
	for {
		aw, ah := ws[i], hs[i]
		bw, bh := ws[j], hs[j]
		wd := aw
		if bw > wd {
			wd = bw
		}
		w--
		ws[w], hs[w] = wd, ah+bh
		switch {
		case aw > bw:
			if i--; i < lo {
				break
			}
			continue
		case bw > aw:
			if j--; j < ro {
				break
			}
			continue
		default:
			i--
			j--
			if i < lo || j < ro {
				break
			}
			continue
		}
		break
	}
	return Span{Off: int32(w), N: int32(top - w)}
}

// thinAt is thinInPlace on the slabs: reduce the run at off to at most
// limit corners, keeping both extremes with a uniform spread. The sampling
// index never falls behind the write index, so reads stay ahead of writes
// and the result equals thinInPlace exactly.
//
//hidapvet:hotpath
func (a *Arena) thinAt(off, n int32, limit int) int32 {
	if int(n) <= limit || limit < 2 {
		return n
	}
	ws, hs := a.W, a.H
	o := int(off)
	w := 0
	for i := 0; i < limit; i++ {
		idx := o + i*(int(n)-1)/(limit-1)
		pw, ph := ws[idx], hs[idx]
		if w > 0 && pw == ws[o+w-1] && ph == hs[o+w-1] {
			continue
		}
		ws[o+w], hs[o+w] = pw, ph
		w++
	}
	return int32(w)
}
