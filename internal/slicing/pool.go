package slicing

import "sync"

// EvaluatorPool recycles incremental Evaluators (node arenas, the curve
// corner slab, undo journals) across annealing runs.
// One level floorplan checks an Evaluator out, anneals, and returns it; the
// next solve — possibly for a different expression size — Resets the same
// arena instead of allocating a fresh one, so back-to-back placements on a
// long-lived engine run allocation-warm.
//
// The zero value is ready to use. The pool is safe for concurrent use; each
// checked-out Evaluator remains single-goroutine, exactly as before.
type EvaluatorPool struct {
	p sync.Pool
}

// Get returns an evaluator targeted at (e, blocks, p), either by resetting a
// pooled arena or by constructing a fresh one.
func (ep *EvaluatorPool) Get(e *Expr, blocks []Block, p EvalParams) *Evaluator {
	if v := ep.p.Get(); v != nil {
		ev := v.(*Evaluator)
		ev.Reset(e, blocks, p)
		return ev
	}
	return NewEvaluator(e, blocks, p)
}

// Put returns an evaluator to the pool. The caller must not use ev (or any
// Eval record or curve obtained from it) afterwards. References to the last
// expression and blocks are dropped so the pool retains only the arenas.
func (ep *EvaluatorPool) Put(ev *Evaluator) {
	if ev == nil {
		return
	}
	ev.expr = nil
	ev.blocks = nil
	ep.p.Put(ev)
}
