package layout

import (
	"math/rand"
	"testing"

	"repro/internal/slicing"
)

// TestMoverProposeUndoAllocs pins the annealing step of a layout chain —
// mover.Propose (Perturb + incremental Eval + costState.update) followed by
// mover.Undo — at zero steady-state allocations, the budget allocfree
// enforces statically on the //hidapvet:hotpath annotations.
func TestMoverProposeUndoAllocs(t *testing.T) {
	p := benchProblem(24)
	nb := len(p.Blocks)
	blocks := make([]slicing.Block, nb)
	for i := range p.Blocks {
		blocks[i] = p.Blocks[i].Block
	}
	var cs costState
	cs.init(p)
	var expr, best slicing.Expr
	expr.SetBalanced(nb)
	inc := slicing.NewEvaluator(&expr, blocks, slicing.DefaultEvalParams())
	m := mover{inc: inc, cs: &cs, region: p.Region, expr: &expr, best: &best}
	m.Cost() // prime centers and contributions

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 128; i++ {
		m.Propose(rng)
		if i%2 == 0 {
			m.Undo()
		}
	}
	i := 0
	avg := testing.AllocsPerRun(400, func() {
		m.Propose(rng)
		if i%2 == 0 {
			m.Undo()
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Propose/Undo cycle allocates %.2f objects/run, want 0", avg)
	}
}
