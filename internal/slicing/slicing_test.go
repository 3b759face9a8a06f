package slicing

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/shape"
)

func TestNewBalancedValid(t *testing.T) {
	for n := 1; n <= 33; n++ {
		e := NewBalanced(n)
		if !e.Valid() {
			t.Errorf("NewBalanced(%d) invalid: %s", n, e.String())
		}
		if e.NumOperands() != n {
			t.Errorf("NewBalanced(%d) operands = %d", n, e.NumOperands())
		}
		if n >= 1 && e.Len() != 2*n-1 {
			t.Errorf("NewBalanced(%d) len = %d, want %d", n, e.Len(), 2*n-1)
		}
	}
}

func TestNewChainValid(t *testing.T) {
	for n := 1; n <= 17; n++ {
		e := NewChain(n)
		if !e.Valid() {
			t.Errorf("NewChain(%d) invalid: %s", n, e.String())
		}
	}
}

// TestPerturbPreservesValidity is the core structural property test: any
// number of random moves keeps the expression a normalized Polish
// expression, and undo restores it exactly.
func TestPerturbPreservesValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 3, 5, 9, 16} {
		e := NewBalanced(n)
		var mv Move
		for step := 0; step < 2000; step++ {
			before := e.String()
			e.PerturbMove(rng, &mv)
			if !e.Valid() {
				t.Fatalf("n=%d step=%d: invalid after move: %s (from %s)", n, step, e.String(), before)
			}
			if rng.Intn(2) == 0 {
				e.UndoMove(&mv)
				if e.String() != before {
					t.Fatalf("n=%d step=%d: undo mismatch: %s vs %s", n, step, e.String(), before)
				}
			}
		}
	}
}

func TestAllMoveKindsOccur(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewBalanced(8)
	seen := map[MoveKind]int{}
	var mv Move
	for i := 0; i < 500; i++ {
		e.PerturbMove(rng, &mv)
		seen[mv.Kind]++
	}
	for _, k := range []MoveKind{MoveOperandSwap, MoveChainInvert, MoveOperandOperatorSwap} {
		if seen[k] == 0 {
			t.Errorf("move kind %d never sampled: %v", k, seen)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	e := NewBalanced(5)
	c := e.Clone()
	rng := rand.New(rand.NewSource(1))
	e.PerturbMove(rng, new(Move))
	if !c.Valid() {
		t.Error("clone corrupted by original's move")
	}
	var f Expr
	f.CopyFrom(&c)
	if f.String() != c.String() {
		t.Error("CopyFrom mismatch")
	}
}

// evalOnce evaluates e against budget through a fresh Evaluator, the code
// the annealer runs.
func evalOnce(e *Expr, blocks []Block, budget geom.Rect) *Eval {
	return NewEvaluator(e, blocks, DefaultEvalParams()).Eval(budget)
}

// fig8Style reproduces the paper's Fig. 8 mechanics: a 3-leaf tree with
// target areas (3, 3, 3) on a 3x3 budget (scaled by 100 for integer DBUs).
func TestEvaluateFig8Tiling(t *testing.T) {
	blocks := []Block{
		{TargetArea: 3, MinArea: 3},
		{TargetArea: 3, MinArea: 3},
		{TargetArea: 3, MinArea: 3},
	}
	e := Expr{elems: []int32{0, 1, OpV, 2, OpH}, n: 3}
	if !e.Valid() {
		t.Fatal("test expression invalid")
	}
	budget := geom.RectXYWH(0, 0, 300, 300)
	ev := evalOnce(&e, blocks, budget)

	want := []geom.Rect{
		geom.RectXYWH(0, 0, 150, 200),
		geom.RectXYWH(150, 0, 150, 200),
		geom.RectXYWH(0, 200, 300, 100),
	}
	for i, w := range want {
		if ev.Rects[i] != w {
			t.Errorf("leaf %d rect = %v, want %v", i, ev.Rects[i], w)
		}
	}
	if ev.Penalty != 1 {
		t.Errorf("Penalty = %v, want 1 (all soft, generous budget)", ev.Penalty)
	}
}

// TestEvaluateExactTiling: leaves tile the budget exactly — no overlap, no
// uncovered area — for random expressions and target areas.
func TestEvaluateExactTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		blocks := make([]Block, n)
		for i := range blocks {
			at := int64(rng.Intn(1000) + 100)
			blocks[i] = Block{TargetArea: at, MinArea: at / 2}
		}
		e := NewBalanced(n)
		var mv Move
		for i := 0; i < 30; i++ {
			e.PerturbMove(rng, &mv)
		}
		budget := geom.RectXYWH(0, 0, int64(500+rng.Intn(500)), int64(500+rng.Intn(500)))
		ev := evalOnce(&e, blocks, budget)

		var sum int64
		for i, r := range ev.Rects {
			if r.Empty() {
				t.Fatalf("trial %d: leaf %d empty rect", trial, i)
			}
			if !budget.ContainsRect(r) {
				t.Fatalf("trial %d: leaf %d rect %v outside budget %v", trial, i, r, budget)
			}
			sum += r.Area()
			for j := 0; j < i; j++ {
				if r.Intersects(ev.Rects[j]) {
					t.Fatalf("trial %d: leaves %d and %d overlap: %v, %v", trial, i, j, r, ev.Rects[j])
				}
			}
		}
		if sum != budget.Area() {
			t.Fatalf("trial %d: tiled %d of %d", trial, sum, budget.Area())
		}
	}
}

func TestEvaluateProportionalAreas(t *testing.T) {
	// With no macros, assigned areas track target areas closely.
	blocks := []Block{
		{TargetArea: 100},
		{TargetArea: 300},
	}
	e := Expr{elems: []int32{0, 1, OpV}, n: 2}
	ev := evalOnce(&e, blocks, geom.RectXYWH(0, 0, 400, 100))
	if ev.Rects[0].W != 100 || ev.Rects[1].W != 300 {
		t.Errorf("widths = %d, %d, want 100, 300", ev.Rects[0].W, ev.Rects[1].W)
	}
}

func TestEvaluateRepairShiftsCut(t *testing.T) {
	// Block 0 holds a wide macro (200x50); proportional split would give it
	// width 100. The repair must widen it to 200 at its sibling's expense.
	blocks := []Block{
		{Curve: shape.FromBox(200, 50), TargetArea: 10000, MinArea: 10000},
		{TargetArea: 10000},
	}
	e := Expr{elems: []int32{0, 1, OpV}, n: 2}
	ev := evalOnce(&e, blocks, geom.RectXYWH(0, 0, 400, 60))
	if ev.Rects[0].W < 200 {
		t.Errorf("macro leaf width = %d, want >= 200 after repair", ev.Rects[0].W)
	}
	if ev.ViolationMacro != 0 {
		t.Errorf("macro violation = %v, want 0 (repairable)", ev.ViolationMacro)
	}
}

func TestEvaluateInfeasibleChargesMacro(t *testing.T) {
	// Two 300-wide macros cannot sit side by side in a 400-wide budget.
	blocks := []Block{
		{Curve: shape.FromBox(300, 50), TargetArea: 15000, MinArea: 15000},
		{Curve: shape.FromBox(300, 50), TargetArea: 15000, MinArea: 15000},
	}
	e := Expr{elems: []int32{0, 1, OpV}, n: 2}
	ev := evalOnce(&e, blocks, geom.RectXYWH(0, 0, 400, 60))
	if ev.ViolationMacro == 0 {
		t.Error("expected macro violation for infeasible cut")
	}
	if ev.Penalty <= 1 {
		t.Errorf("Penalty = %v, want > 1", ev.Penalty)
	}
	if ev.Legal() {
		t.Error("Legal() should be false")
	}
	// The horizontal stack of the same blocks is feasible in a tall budget.
	e2 := Expr{elems: []int32{0, 1, OpH}, n: 2}
	ev2 := evalOnce(&e2, blocks, geom.RectXYWH(0, 0, 400, 120))
	if ev2.ViolationMacro != 0 {
		t.Errorf("stacked layout should be feasible, violation = %v", ev2.ViolationMacro)
	}
}

func TestEvaluateAtUnderrunCharged(t *testing.T) {
	// Budget far below target areas: at violations accrue, am spared while
	// assigned area still covers MinArea.
	blocks := []Block{
		{TargetArea: 100000, MinArea: 100},
		{TargetArea: 100000, MinArea: 100},
	}
	e := Expr{elems: []int32{0, 1, OpV}, n: 2}
	ev := evalOnce(&e, blocks, geom.RectXYWH(0, 0, 100, 100))
	if ev.ViolationAt == 0 {
		t.Error("expected at violations for tiny budget")
	}
	if ev.ViolationAm != 0 {
		t.Errorf("am violation = %v, want 0", ev.ViolationAm)
	}
	if !ev.Legal() {
		t.Error("at underrun alone should still be Legal")
	}
}

func TestEvaluateSingleBlock(t *testing.T) {
	blocks := []Block{{TargetArea: 100}}
	e := NewBalanced(1)
	budget := geom.RectXYWH(10, 20, 30, 40)
	ev := evalOnce(&e, blocks, budget)
	if ev.Rects[0] != budget {
		t.Errorf("single block rect = %v, want the whole budget", ev.Rects[0])
	}
}

func TestPenaltySeverityOrdering(t *testing.T) {
	at, am, macro := float64(penaltyAt), float64(penaltyAm), float64(penaltyMacro)
	if !(at < am && am < macro) {
		t.Errorf("penalty severities must increase: %v %v %v", at, am, macro)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	blocks := make([]Block, 6)
	for i := range blocks {
		blocks[i] = Block{TargetArea: int64(100 + i*37), MinArea: int64(50 + i*11)}
	}
	e := NewBalanced(6)
	var mv Move
	for i := 0; i < 10; i++ {
		e.PerturbMove(rng, &mv)
	}
	budget := geom.RectXYWH(0, 0, 333, 444)
	a := evalOnce(&e, blocks, budget)
	b := evalOnce(&e, blocks, budget)
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatal("evaluation nondeterministic")
		}
	}
	if a.Penalty != b.Penalty {
		t.Fatal("penalty nondeterministic")
	}
}
