package slicing

import (
	"repro/internal/geom"
	"repro/internal/shape"
)

// Block is one leaf of the slicing tree: the ⟨Γ, am, at⟩ characterization
// of paper §II-D. Soft blocks (pure standard cells) have an empty Curve.
type Block struct {
	// Curve is the shape curve of the block's macros (Γ).
	Curve shape.Curve
	// MinArea is am: macros plus standard cells of the block.
	MinArea int64
	// TargetArea is at: am plus the glue area assigned to the block.
	TargetArea int64
}

// The weights of the graded penalties, ordered by severity as the paper
// prescribes: yielding target area is cheap, eating into minimum area is
// expensive, violating macro feasibility is prohibitive.
const (
	penaltyAt    = 0.5
	penaltyAm    = 4
	penaltyMacro = 32
)

// EvalParams tunes the evaluation.
type EvalParams struct {
	// CompactPoints thins composed shape curves to this corner budget
	// during bottom-up composition (speed/accuracy knob).
	CompactPoints int
}

// DefaultEvalParams returns the corner budget of the level layouts.
func DefaultEvalParams() EvalParams {
	return EvalParams{CompactPoints: 12}
}

// Eval is the outcome of evaluating one expression against a budget.
type Eval struct {
	// Rects holds the rectangle assigned to every leaf block, indexed by
	// operand id.
	Rects []geom.Rect
	// ViolationAt, ViolationAm and ViolationMacro accumulate the relative
	// magnitudes of each violation class.
	ViolationAt    float64
	ViolationAm    float64
	ViolationMacro float64
	// Penalty is the cost multiplier: 1 when the layout is fully legal.
	Penalty float64
}

// Legal reports whether no am or macro violations occurred. (at
// underruns are tolerable by design: at includes elastic glue area.)
func (ev *Eval) Legal() bool { return ev.ViolationAm == 0 && ev.ViolationMacro == 0 }

// splitShare splits extent proportionally to the target areas, keeping both
// sides non-degenerate when possible.
func splitShare(extent, atL, atR int64) int64 {
	return splitShareFrac(extent, atFrac(atL, atR))
}

// atFrac is the left share of a split: atL/(atL+atR), or -1 for the
// degenerate non-positive total (split halves the extent). The division
// happens here — once per node in the incremental evaluator, which caches
// the fraction — so the per-visit split cost is a single multiply. Both the
// reference and incremental assign passes must derive the cut through this
// exact expression: extent*(atL/total) rounds differently than
// extent*atL/total, and bit-identity across the two evaluators is pinned
// differentially.
func atFrac(atL, atR int64) float64 {
	total := atL + atR
	if total <= 0 {
		return -1
	}
	return float64(atL) / float64(total)
}

// splitShareFrac turns a cached left-share fraction into a cut position,
// keeping both sides non-degenerate when possible.
//
//hidapvet:hotpath
func splitShareFrac(extent int64, frac float64) int64 {
	var s int64
	if frac < 0 {
		s = extent / 2
	} else {
		s = int64(float64(extent) * frac)
	}
	if s < 1 {
		s = 1
	}
	if s > extent-1 {
		s = extent - 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// repairSplitSpan nudges a cut position so that both children can hold
// their macros given the fixed cross extent. For a vertical cut
// (vertical=true) the cross extent is the height and the split divides the
// width; for a horizontal cut the roles swap (shape curves are queried
// transposed). When both minima cannot be satisfied the cut is placed
// proportionally to the minima and the overflow is returned as a macro
// violation to charge.
//
//hidapvet:hotpath
func repairSplitSpan(a *shape.Arena, s, extent, cross int64, spanL, spanR shape.Span, vertical bool) (int64, float64) {
	minL := minExtentSpan(a, spanL, cross, vertical)
	minR := minExtentSpan(a, spanR, cross, vertical)
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

// minExtentSpan returns the minimal width (vertical cut) or height
// (horizontal cut) a subtree needs when the cross dimension is fixed. An
// unsatisfiable cross dimension falls back to the curve's own minimum,
// leaving the overflow to be charged at the leaves.
//
//hidapvet:hotpath
func minExtentSpan(a *shape.Arena, sp shape.Span, cross int64, vertical bool) int64 {
	c := a.Curve(sp)
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

// leafViolations computes the graded violations of one placed leaf.
func leafViolations(b *Block, r geom.Rect) (vAt, vAm, vMacro float64) {
	area := r.Area()
	if b.TargetArea > 0 && area < b.TargetArea {
		vAt = float64(b.TargetArea-area) / float64(b.TargetArea)
	}
	if b.MinArea > 0 && area < b.MinArea {
		vAm = float64(b.MinArea-area) / float64(b.MinArea)
	}
	if !b.Curve.Empty() && !b.Curve.Fits(r.W, r.H) {
		vMacro = macroShortfall(&b.Curve, r)
	}
	return vAt, vAm, vMacro
}

// macroShortfall measures how badly a rectangle misses the shape curve:
// the smallest relative dimension overflow over all Pareto corners.
func macroShortfall(c *shape.Curve, r geom.Rect) float64 {
	best := -1.0
	for i := 0; i < c.Len(); i++ {
		p := c.Corner(i)
		var over float64
		if p.W > r.W && r.W > 0 {
			over += float64(p.W-r.W) / float64(r.W)
		}
		if p.H > r.H && r.H > 0 {
			over += float64(p.H-r.H) / float64(r.H)
		}
		if r.W <= 0 || r.H <= 0 {
			over = 1e9
		}
		if best < 0 || over < best {
			best = over
		}
	}
	if best < 0 {
		return 0
	}
	return best
}
