package slicing

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/shape"
)

// randomBlocks mixes soft blocks and macro carriers the way one HiDaP level
// does, with enough macros to exercise the repair and violation paths.
func randomBlocks(rng *rand.Rand, n int) []Block {
	blocks := make([]Block, n)
	for i := range blocks {
		at := int64(5_000 + rng.Intn(60_000))
		blocks[i] = Block{TargetArea: at, MinArea: at / 2}
		if i%3 == 0 {
			w := int64(50 + rng.Intn(250))
			h := int64(40 + rng.Intn(200))
			blocks[i].Curve = shape.FromBoxRotatable(w, h)
			blocks[i].MinArea = w * h
			blocks[i].TargetArea = w * h * 3 / 2
		}
	}
	return blocks
}

func evalsEqual(t *testing.T, tag string, inc, full *Eval) {
	t.Helper()
	if len(inc.Rects) != len(full.Rects) {
		t.Fatalf("%s: rect count %d vs %d", tag, len(inc.Rects), len(full.Rects))
	}
	for i := range inc.Rects {
		if inc.Rects[i] != full.Rects[i] {
			t.Fatalf("%s: rect %d = %v, want %v", tag, i, inc.Rects[i], full.Rects[i])
		}
	}
	if inc.ViolationAt != full.ViolationAt || inc.ViolationAm != full.ViolationAm ||
		inc.ViolationMacro != full.ViolationMacro || inc.Penalty != full.Penalty {
		t.Fatalf("%s: violations/penalty (%v %v %v %v) vs (%v %v %v %v)",
			tag,
			inc.ViolationAt, inc.ViolationAm, inc.ViolationMacro, inc.Penalty,
			full.ViolationAt, full.ViolationAm, full.ViolationMacro, full.Penalty)
	}
}

// TestEvaluatorMatchesEvaluate is the differential contract of the
// incremental evaluator: across seeded random move sequences — including
// rejected moves restored through undo and varying budgets — every Eval must
// equal the from-scratch Evaluate of the same expression bit for bit. A
// one-block level goes through the same evaluator (its moves are no-ops),
// so single soft, fitting and oversized macro blocks are checked too.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	p := DefaultEvalParams()
	budgets := []geom.Rect{
		geom.RectXYWH(0, 0, 1500, 1200),
		geom.RectXYWH(10, 20, 700, 900),
		geom.RectXYWH(0, 0, 350, 300), // tight: violations accrue
		{},                            // empty: Rects must clear, not go stale
	}
	for _, b := range []Block{
		{TargetArea: 300_000, MinArea: 150_000},
		{Curve: shape.FromBoxRotatable(300, 200), MinArea: 60_000, TargetArea: 90_000},
		{Curve: shape.FromBox(2_000, 300), MinArea: 600_000, TargetArea: 900_000},
	} {
		blocks := []Block{b}
		expr := NewBalanced(1)
		inc := NewEvaluator(&expr, blocks, p)
		for _, budget := range budgets {
			evalsEqual(t, "single block", inc.Eval(budget), Evaluate(&expr, blocks, budget, p))
		}
	}

	rng := rand.New(rand.NewSource(1234))
	for _, n := range []int{1, 2, 3, 5, 9, 16, 24} {
		blocks := randomBlocks(rng, n)
		expr := NewBalanced(n)
		inc := NewEvaluator(&expr, blocks, p)

		// Initial state, before any move.
		evalsEqual(t, "initial", inc.Eval(budgets[0]), Evaluate(&expr, blocks, budgets[0], p))

		steps := 400
		if n == 1 {
			steps = 10
		}
		for step := 0; step < steps; step++ {
			inc.Perturb(rng)
			budget := budgets[step%len(budgets)]
			evalsEqual(t, "after move", inc.Eval(budget), Evaluate(&expr, blocks, budget, p))
			if rng.Intn(2) == 0 {
				inc.Undo()
				evalsEqual(t, "after undo", inc.Eval(budget), Evaluate(&expr, blocks, budget, p))
			}
		}
	}
}

// TestEvaluatorUndoRestoresCache checks that a rejected move leaves no trace:
// perturb+undo returns the exact pre-move evaluation without recomposition
// (the follow-up move must also still be exact, exercising the journal).
func TestEvaluatorUndoRestoresCache(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blocks := randomBlocks(rng, 12)
	expr := NewBalanced(12)
	p := DefaultEvalParams()
	inc := NewEvaluator(&expr, blocks, p)
	budget := geom.RectXYWH(0, 0, 1000, 800)

	before := expr.String()
	ref := Evaluate(&expr, blocks, budget, p)
	for i := 0; i < 200; i++ {
		inc.Perturb(rng)
		inc.Undo()
		if expr.String() != before {
			t.Fatalf("step %d: undo did not restore expression", i)
		}
		evalsEqual(t, "undo", inc.Eval(budget), ref)
	}
}

// TestEvaluatorRootCurveMatchesComposition checks RootCurve against the
// from-scratch bottom-up composition Evaluate performs, for curve-only
// blocks (the shape-curve generation use of the evaluator).
func TestEvaluatorRootCurveMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	parts := make([]Block, 6)
	for i := range parts {
		w := int64(50 + rng.Intn(200))
		h := int64(50 + rng.Intn(200))
		parts[i] = Block{Curve: shape.FromBoxRotatable(w, h)}
	}
	expr := NewBalanced(len(parts))
	p := EvalParams{CompactPoints: 16}
	inc := NewEvaluator(&expr, parts, p)

	// Reference: replicate the exact bottom-up composition over the same
	// expression with the allocating shape API.
	compose := func(e *Expr) shape.Curve {
		var stack []shape.Curve
		for _, v := range e.Elems() {
			if v >= 0 {
				stack = append(stack, parts[v].Curve.Thin(p.CompactPoints))
				continue
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			var c shape.Curve
			if v == OpV {
				c = shape.CombineH(a, b)
			} else {
				c = shape.CombineV(a, b)
			}
			stack = append(stack, c.Thin(p.CompactPoints))
		}
		return stack[0]
	}
	for step := 0; step < 120; step++ {
		inc.Perturb(rng)
		want := compose(&expr)
		got := inc.RootCurve()
		if got.Len() != want.Len() {
			t.Fatalf("step %d: %d corners, want %d", step, got.Len(), want.Len())
		}
		gp, wp := got.Points(), want.Points()
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("step %d corner %d: %v vs %v", step, i, gp[i], wp[i])
			}
		}
		if step%3 == 0 {
			inc.Undo()
		}
	}
}

func benchAnnealState(n int) ([]Block, Expr, geom.Rect, EvalParams) {
	rng := rand.New(rand.NewSource(4242))
	return randomBlocks(rng, n), NewBalanced(n), geom.RectXYWH(0, 0, 1500, 1200), DefaultEvalParams()
}

// BenchmarkSlicingEvaluator measures the incremental path: Perturb + Eval
// per proposed move, with half the moves rejected, as in annealing.
func BenchmarkSlicingEvaluator(b *testing.B) {
	blocks, expr, budget, p := benchAnnealState(24)
	inc := NewEvaluator(&expr, blocks, p)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Perturb(rng)
		ev := inc.Eval(budget)
		if i%2 == 0 {
			inc.Undo()
		}
		_ = ev
	}
}

// TestEvaluatorResetMatchesEvaluate is the differential contract of arena
// reuse: one Evaluator (and one EvaluatorPool) retargeted across problems of
// shrinking and growing size — with a perturbation run between resets to
// dirty every arena — must evaluate bit-identically to a from-scratch
// Evaluate after every Reset.
func TestEvaluatorResetMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var pool EvaluatorPool
	var reused *Evaluator
	// Shrink then regrow within (and beyond) prior capacity: 24 → 3 → 16 →
	// 2 → 24 → 40 exercises stale-arena reuse in both directions.
	for _, n := range []int{24, 3, 16, 2, 24, 40} {
		blocks := randomBlocks(rng, n)
		expr := NewBalanced(n)
		p := DefaultEvalParams()
		if reused == nil {
			reused = NewEvaluator(&expr, blocks, p)
		} else {
			reused.Reset(&expr, blocks, p)
		}
		pooled := pool.Get(&expr, blocks, p)

		budget := geom.RectXYWH(0, 0, 1400, 1100)
		evalsEqual(t, "reset initial", reused.Eval(budget), Evaluate(&expr, blocks, budget, p))

		// Perturb through the reused evaluator only (one evaluator owns an
		// expression at a time), checking the pooled copy was identical at
		// the start, then leave the arena mid-flight dirty for the next
		// Reset.
		evalsEqual(t, "pooled initial", pooled.Eval(budget), Evaluate(&expr, blocks, budget, p))
		pool.Put(pooled)
		for step := 0; step < 60 && n > 1; step++ {
			reused.Perturb(rng)
			evalsEqual(t, "reset after move", reused.Eval(budget), Evaluate(&expr, blocks, budget, p))
			if step%3 == 0 {
				reused.Undo()
				evalsEqual(t, "reset after undo", reused.Eval(budget), Evaluate(&expr, blocks, budget, p))
			}
		}
	}
}

// TestEvaluatorLongRunDifferential drives the incremental evaluator through
// 10k random moves with a ~50% rejection rate under one fixed budget — the
// exact shape of an annealing run — and checks three contracts at every
// step: the evaluation equals the from-scratch Evaluate bit for bit
// (incremental assign included), Changed lists exactly the blocks whose
// rectangles differ from the state the caller last acted on, and a rejected
// move's undo restores every rectangle exactly.
func TestEvaluatorLongRunDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	n := 24
	blocks := randomBlocks(rng, n)
	expr := NewBalanced(n)
	p := DefaultEvalParams()
	inc := NewEvaluator(&expr, blocks, p)
	budget := geom.RectXYWH(0, 0, 1500, 1200)

	shadow := make([]geom.Rect, n) // the last state the caller accepted or rolled back to
	copy(shadow, inc.Eval(budget).Rects)

	for step := 0; step < 10_000; step++ {
		inc.Perturb(rng)
		ev := inc.Eval(budget)
		evalsEqual(t, "long-run", ev, Evaluate(&expr, blocks, budget, p))

		inChanged := make(map[int32]bool, len(inc.Changed()))
		for _, b := range inc.Changed() {
			if inChanged[b] {
				t.Fatalf("step %d: block %d reported changed twice", step, b)
			}
			inChanged[b] = true
		}
		for i := range shadow {
			if (ev.Rects[i] != shadow[i]) != inChanged[int32(i)] {
				t.Fatalf("step %d: block %d changed=%v but Changed reports %v (rect %v -> %v)",
					step, i, ev.Rects[i] != shadow[i], inChanged[int32(i)], shadow[i], ev.Rects[i])
			}
		}

		if rng.Intn(2) == 0 {
			inc.Undo()
			ev2 := inc.Eval(budget)
			for i := range shadow {
				if ev2.Rects[i] != shadow[i] {
					t.Fatalf("step %d: undo left rect %d = %v, want %v", step, i, ev2.Rects[i], shadow[i])
				}
			}
		} else {
			for _, b := range inc.Changed() {
				shadow[b] = ev.Rects[b]
			}
		}
	}
}

// TestResyncSwapDifferential pins the incremental operand–operator
// resync (resyncSwap: three relinked nodes + path recomposition) bit-
// identical to a full re-parse over 10k random swaps. For every M3 move
// the incremental evaluator's Eval must equal a from-scratch Evaluate of
// the same expression exactly, the repaired parent index must equal the
// one a full rebuild derives, and a rejected move must leave no trace.
// Accepted and rejected moves interleave randomly, across expression
// sizes from the trivial to a large level.
func TestResyncSwapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	budget := geom.RectXYWH(0, 0, 1600, 1300)
	p := DefaultEvalParams()

	checkParents := func(inc *Evaluator, tag string) {
		t.Helper()
		got := append([]int32(nil), inc.parent...)
		inc.rebuildParents()
		for i := range got {
			if got[i] != inc.parent[i] {
				t.Fatalf("%s: parent[%d] = %d, want %d", tag, i, got[i], inc.parent[i])
			}
		}
	}

	swaps := 0
	for _, n := range []int{2, 3, 4, 7, 13, 24, 40} {
		blocks := randomBlocks(rng, n)
		expr := NewBalanced(n)
		inc := NewEvaluator(&expr, blocks, p)
		inc.Eval(budget)

		for step := 0; swaps < 10_000 && step < 6_000; step++ {
			kind := inc.Perturb(rng)
			isSwap := kind == MoveOperandOperatorSwap && inc.move.I != inc.move.J
			if isSwap {
				swaps++
				if inc.reparsed {
					t.Fatalf("n=%d swap %d: incremental repair fell back to a re-parse", n, swaps)
				}
			}
			ev := inc.Eval(budget)
			if isSwap || swaps%37 == 0 {
				evalsEqual(t, "after swap", ev, Evaluate(&expr, blocks, budget, p))
				if isSwap {
					checkParents(inc, "after swap")
				}
			}
			if rng.Intn(2) == 0 {
				inc.Undo()
				if isSwap {
					evalsEqual(t, "after swap undo", inc.Eval(budget), Evaluate(&expr, blocks, budget, p))
					checkParents(inc, "after swap undo")
				}
			}
		}
	}
	if swaps < 10_000 {
		t.Fatalf("only %d operand–operator swaps exercised, want 10000", swaps)
	}
}
