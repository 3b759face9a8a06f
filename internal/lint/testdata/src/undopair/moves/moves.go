// Package moves exercises undopair. The analyzer applies everywhere (the
// Propose/Undo discipline is package-independent), matching structurally on
// the PerturbMove/UndoMove, Perturb/Undo and Propose/Undo method-name pairs.
package moves

type ev struct{}

func (ev) PerturbMove() float64 { return 0 }
func (ev) UndoMove()            {}

type evaluator struct{}

func (evaluator) Perturb() int { return 0 }
func (evaluator) Undo()        {}

type model struct{}

func (model) Propose(r int) float64 { return 0 }
func (model) Undo()                 {}
func (model) Cost() float64         { return 0 }

// OK: the canonical accept/reject cycle.
func annealRound(m model) float64 {
	cur := m.Cost()
	for i := 0; i < 8; i++ {
		next := m.Propose(i)
		if next <= cur {
			cur = next // accept: keep the move
		} else {
			m.Undo()
		}
	}
	return cur
}

// OK: undo inside the same statement as the propose.
func inlinePair(e ev) {
	if c := e.PerturbMove(); c > 0 {
		e.UndoMove()
	}
}

// Flagged: no matching undo anywhere in the function.
func unpaired(e ev) float64 {
	return e.PerturbMove() // want `PerturbMove without a matching UndoMove`
}

// Flagged: an early return escapes with the move still applied.
func leaky(e ev, abort bool) {
	_ = e.PerturbMove()
	if abort { // want `return between PerturbMove and its UndoMove`
		return
	}
	e.UndoMove()
}

// OK: the rejecting branch undoes before returning.
func rejectPath(e ev, abort bool) {
	_ = e.PerturbMove()
	if abort {
		e.UndoMove()
		return
	}
	e.UndoMove()
}

// OK: a wrapper returning an undo closure — pairing handed to the caller.
func perturbWith(e ev) func() {
	_ = e.PerturbMove()
	return func() { e.UndoMove() }
}

// OK: a deliberate commit, documented.
func accept(e ev) {
	//hidapvet:commit greedy descent keeps every improving move; caller re-snapshots
	_ = e.PerturbMove()
}

// Flagged: an evaluator move with no Undo in the function.
func evalUnpaired(e evaluator) int {
	return e.Perturb() // want `Perturb without a matching Undo`
}

// OK: an evaluator move undone on reject.
func evalReject(e evaluator, reject bool) {
	e.Perturb()
	if reject {
		e.Undo()
	}
}

// OK: a Model.Propose that leaves the evaluator move applied for the
// annealer to accept or undo, documented.
func evalPropose(e evaluator) float64 {
	//hidapvet:commit the annealer pairs this proposal with the model's Undo
	e.Perturb()
	return 0
}
