package slicing

import (
	"math/rand"
	"testing"
)

// TestPerturbCycleAllocs pins the steady-state allocation budget of the
// annealing proposal cycle — Perturb, Eval, Undo — at exactly zero, the
// invariant allocfree enforces statically on these //hidapvet:hotpath
// functions. The warm-up rounds grow journals, indexes, and arenas to their
// high-water marks; after that any allocation is a regression.
func TestPerturbCycleAllocs(t *testing.T) {
	blocks, expr, budget, p := benchAnnealState(24)
	inc := NewEvaluator(&expr, blocks, p)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 128; i++ {
		inc.Perturb(rng)
		inc.Eval(budget)
		if i%2 == 0 {
			inc.Undo()
		}
	}
	i := 0
	avg := testing.AllocsPerRun(400, func() {
		inc.Perturb(rng)
		inc.Eval(budget)
		if i%2 == 0 {
			inc.Undo()
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Perturb/Eval/Undo cycle allocates %.2f objects/run, want 0", avg)
	}
}

// TestExprMoveAllocs pins the expression-level moves alone: PerturbMove and
// UndoMove on a warmed index must not allocate.
func TestExprMoveAllocs(t *testing.T) {
	expr := NewBalanced(32)
	rng := rand.New(rand.NewSource(11))
	var mv Move
	for i := 0; i < 64; i++ {
		expr.PerturbMove(rng, &mv)
		expr.UndoMove(&mv)
	}
	avg := testing.AllocsPerRun(400, func() {
		expr.PerturbMove(rng, &mv)
		expr.UndoMove(&mv)
	})
	if avg != 0 {
		t.Fatalf("PerturbMove/UndoMove allocates %.2f objects/run, want 0", avg)
	}
}
