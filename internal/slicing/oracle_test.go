package slicing

import (
	"repro/internal/geom"
	"repro/internal/shape"
)

// node is one slicing-tree node materialized from the postfix expression.
type node struct {
	op          int32 // OpV, OpH, or >= 0 for a leaf (operand id)
	left, right int   // children indices, -1 for leaves
	at, am      int64
	curve       shape.Curve
}

// Evaluate is the from-scratch reference of Evaluator.Eval, kept as the
// differential oracle: on every call it rebuilds the whole tree with the
// allocating shape.Curve API instead of the evaluator's arena, then assigns
// every rectangle top-down without any cache.
func Evaluate(e *Expr, blocks []Block, budget geom.Rect, p EvalParams) *Eval {
	ev := &Eval{Rects: make([]geom.Rect, len(blocks)), Penalty: 1}
	if e.n == 0 || budget.Empty() {
		return ev
	}
	if p.CompactPoints <= 0 {
		p.CompactPoints = 12
	}

	// Bottom-up: build the tree, composing ⟨Γ, am, at⟩ per node.
	nodes := make([]node, 0, len(e.elems))
	stack := make([]int, 0, len(blocks))
	for _, v := range e.elems {
		if v >= 0 {
			b := blocks[v]
			nodes = append(nodes, node{
				op: v, left: -1, right: -1,
				at:    b.TargetArea,
				am:    b.MinArea,
				curve: b.Curve.Thin(p.CompactPoints),
			})
			stack = append(stack, len(nodes)-1)
			continue
		}
		r := stack[len(stack)-1]
		l := stack[len(stack)-2]
		stack = stack[:len(stack)-2]
		var c shape.Curve
		if v == OpV {
			c = shape.CombineH(nodes[l].curve, nodes[r].curve)
		} else {
			c = shape.CombineV(nodes[l].curve, nodes[r].curve)
		}
		nodes = append(nodes, node{
			op: v, left: l, right: r,
			at:    nodes[l].at + nodes[r].at,
			am:    nodes[l].am + nodes[r].am,
			curve: c.Thin(p.CompactPoints),
		})
		stack = append(stack, len(nodes)-1)
	}
	root := stack[0]

	// Top-down: assign rectangles. Violations are summed hierarchically —
	// each subtree's totals combine as own + left + right — rather than in
	// leaf-visit order, the association Evaluator.Eval caches.
	var assign func(ni int, r geom.Rect) (vAt, vAm, vMacro float64)
	assign = func(ni int, r geom.Rect) (vAt, vAm, vMacro float64) {
		nd := &nodes[ni]
		if nd.left < 0 {
			ev.Rects[nd.op] = r
			return leafViolations(&blocks[nd.op], r)
		}
		l, rr := &nodes[nd.left], &nodes[nd.right]
		var own float64
		var lAt, lAm, lMac, rAt, rAm, rMac float64
		if nd.op == OpV {
			wl := splitShare(r.W, l.at, rr.at)
			wl, own = repairSplit(wl, r.W, r.H, &l.curve, &rr.curve, true)
			lAt, lAm, lMac = assign(nd.left, geom.RectXYWH(r.X, r.Y, wl, r.H))
			rAt, rAm, rMac = assign(nd.right, geom.RectXYWH(r.X+wl, r.Y, r.W-wl, r.H))
		} else {
			hb := splitShare(r.H, l.at, rr.at)
			hb, own = repairSplit(hb, r.H, r.W, &l.curve, &rr.curve, false)
			lAt, lAm, lMac = assign(nd.left, geom.RectXYWH(r.X, r.Y, r.W, hb))
			rAt, rAm, rMac = assign(nd.right, geom.RectXYWH(r.X, r.Y+hb, r.W, r.H-hb))
		}
		return lAt + rAt, lAm + rAm, own + lMac + rMac
	}
	ev.ViolationAt, ev.ViolationAm, ev.ViolationMacro = assign(root, budget)

	ev.Penalty = 1 + penaltyAt*ev.ViolationAt + penaltyAm*ev.ViolationAm + penaltyMacro*ev.ViolationMacro
	return ev
}

// repairSplit is repairSplitSpan over shape.Curve values.
func repairSplit(s, extent, cross int64, curveL, curveR *shape.Curve, vertical bool) (int64, float64) {
	minL := minExtent(curveL, cross, vertical)
	minR := minExtent(curveR, cross, vertical)
	var over float64
	switch {
	case minL+minR > extent:
		// Infeasible cut: macros overflow no matter where it lands.
		over = float64(minL+minR-extent) / float64(extent)
		s = splitShare(extent, minL, minR)
	case s < minL:
		s = minL
	case extent-s < minR:
		s = extent - minR
	}
	return s, over
}

// minExtent is minExtentSpan over a shape.Curve.
func minExtent(c *shape.Curve, cross int64, vertical bool) int64 {
	if c.Empty() {
		return 0
	}
	if vertical {
		if w, ok := c.MinWidthForHeight(cross); ok {
			return w
		}
		return c.MinWidth()
	}
	if h, ok := c.MinHeightForWidth(cross); ok {
		return h
	}
	return c.MinHeight()
}
