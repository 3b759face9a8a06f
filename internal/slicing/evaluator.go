package slicing

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/shape"
)

// Evaluator runs the paper's top-down area-budgeting layout generation
// (§IV-E, Fig. 8) incrementally, for annealing hot loops: the budget
// rectangle is recursively partitioned according to the target areas of
// each subtree; cuts that would make a subtree's macros unplaceable shift
// area from the sibling, charging graded penalties for the kind of area
// yielded, and the layout always tiles the budget exactly. Construction
// thins every leaf curve once and composes the full tree; each Perturb then
// re-parses the expression with cheap integer work, diffs it against the
// cached tree and recomposes only the dirty nodes —
// the moved positions and their ancestors, O(depth) curve compositions per
// move instead of O(n). The top-down assign pass of Eval is incremental
// too: every node caches the rectangle it was last assigned and its
// subtree's violation sums, so a subtree whose inputs did not change since
// the previous Eval is skipped wholesale instead of being re-descended.
// All buffers (node arena, curve slab, Rects, the parse stack and the
// undo journal) are owned by the evaluator and reused, so the steady-state
// Perturb/Eval cycle does not allocate. Curve corners live in one shared
// shape.Arena — a single corner slab holding every curve of the tree, read
// through zero-copy Curve views — so recomposition sweeps contiguous memory
// instead of chasing a heap slice per node.
//
// Results are bit-identical to a from-scratch evaluation of the same
// expression, blocks, budget and params: the tests keep one (Evaluate in
// oracle_test.go) and enforce equality across randomized move sequences.
//
// Undo restores both the expression and the cached tree to their state
// before the last Perturb. It is valid only until the next Perturb call and
// may be called at most once — exactly the move discipline of
// anneal.RunModel (and of its calibration walk), which either undoes a move
// immediately or commits to it. An Evaluator must not be shared between
// goroutines.
type Evaluator struct {
	expr   *Expr
	blocks []Block
	p      EvalParams

	// arena holds every curve corner of the tree in one shared slab: first
	// the leaf region (per-block curves, thinned once to CompactPoints
	// at Reset), then two fixed-capacity slots per node for the
	// double-buffered composed curves. leafSpan indexes the leaf region by
	// operand id; node spans live in ev.spans.
	arena    shape.Arena
	leafSpan []shape.Span
	slotCap  int32

	nodes []enode      // one node per expression position
	spans []shape.Span // active composed curve per node (leaf region or buf[side]);
	// parallel to nodes and tiny — the whole tree's spans stay cache-hot for
	// the assign pass's split repairs, which read only children spans
	aslots []assignSlot // two buffered assignments per node (see enode)
	parent []int32      // parent position per node, -1 for the root
	root   int32

	stack   []int32
	dirty   []bool // all false between moves
	journal []undoRecord
	// pjIdx/pjPar journal parent-link edits of the current move (only
	// operand–operator swaps make any), so Undo restores the parent
	// index exactly instead of rebuilding it O(n). reparsed marks the
	// defensive full-reparse fallback, whose parent edits are unjournaled.
	pjIdx    []int32
	pjPar    []int32
	reparsed bool
	ev       Eval

	// Changed-rect tracking for delta cost models: blocks whose rectangle
	// was rewritten by the last Eval (see Changed). rjBlock/rjRect journal
	// every rectangle overwrite since the last Perturb and ajIdx the nodes
	// whose assign slot flipped, so an undo restores Rects and the caches
	// describing it to the pre-move layout exactly.
	changed []int32
	rjBlock []int32
	rjRect  []geom.Rect
	ajIdx   []int32
	// lastBudget is the budget of the most recent Eval; moveBudget pins it
	// at Perturb time and budgetMoved records whether any Eval since the
	// move used a different budget (see Undo).
	lastBudget  geom.Rect
	moveBudget  geom.Rect
	budgetMoved bool
	// aCur is the assign-cache generation: a slot is live only if its aGen
	// equals aCur. Bumping aCur invalidates every slot at once (Reset,
	// empty-budget Evals, differing-budget undos).
	aCur uint32

	move Move
}

// enode is one cached slicing-tree node, pinned to its expression position.
// Composed curves are double-buffered across the node's two arena slots
// (buf[0], buf[1]): a recompute writes the spare slot and flips side, so the
// journaled previous span stays intact for undo. Leaves alias the leaf
// region instead — their span points straight at the block's thinned curve,
// no copy.
// The assign cache is double-buffered the same way: the node's pair of
// slots lives in the evaluator's aslots array (indices 2·pos and 2·pos+1,
// off the enode so the node itself stays one cache line), aslots[2·pos +
// aside] holds the current top-down assignment (the budget rectangle the
// node received and the hierarchical violation sums of its subtree), a
// rewrite fills the spare slot and flips aside, and an undo flips back —
// the pre-move assignment survives a rejected move without copying. sver
// is the node's structure version, bumped by every recompute, so slots
// written before a composition change die with it.
type enode struct {
	val         int32 // elems value: operand id, OpV or OpH
	left, right int32 // children positions, -1 for leaves
	at, am      int64
	frac        float64  // cached left split share: atFrac(left.at, right.at)
	buf         [2]int32 // the node's two slot offsets in the arena
	side        uint8
	aside       uint8
	sver        uint32
}

// assignSlot is one buffered assignment of a node: valid while its aGen
// matches the evaluator generation and its sver the node's structure
// version. A hit additionally requires the budget rectangle to match, and
// (by the flip discipline) guarantees that Rects currently holds exactly
// this assignment's leaf rectangles.
type assignSlot struct {
	arect            geom.Rect
	vAt, vAm, vMacro float64
	aGen             uint32
	sver             uint32
}

// undoRecord captures one node's cached state before a recompute. It
// carries the structure version too, so an undo revives the node's
// pre-move assign slot along with its curve span.
type undoRecord struct {
	idx         int32
	val         int32
	left, right int32
	at, am      int64
	frac        float64
	span        shape.Span
	side        uint8
	sver        uint32
}

// NewEvaluator builds the evaluator for an expression over blocks. The
// expression stays owned by the caller but must only be perturbed through
// Evaluator.Perturb from then on, so the cache tracks it.
func NewEvaluator(e *Expr, blocks []Block, p EvalParams) *Evaluator {
	ev := &Evaluator{}
	ev.Reset(e, blocks, p)
	return ev
}

// Reset retargets the evaluator at a new expression/blocks pair, reusing
// every arena the previous instance grew (node cache, curve buffers, parse
// stack, undo journal, Rects). After Reset the evaluator behaves exactly as
// a freshly constructed one; back-to-back solves through a pooled evaluator
// therefore run allocation-warm. The previous expression is released.
func (ev *Evaluator) Reset(e *Expr, blocks []Block, p EvalParams) {
	if p.CompactPoints <= 0 {
		p.CompactPoints = 12
	}
	ev.expr, ev.blocks, ev.p = e, blocks, p
	n := len(e.elems)
	ev.leafSpan = resizeSlice(ev.leafSpan, len(blocks))
	ev.nodes = resizeSlice(ev.nodes, n)
	ev.spans = resizeSlice(ev.spans, n)
	ev.aslots = resizeSlice(ev.aslots, 2*n)
	ev.parent = resizeSlice(ev.parent, n)
	ev.dirty = resizeSlice(ev.dirty, n)
	ev.stack = ev.stack[:0]
	ev.journal = ev.journal[:0]
	ev.pjIdx, ev.pjPar = ev.pjIdx[:0], ev.pjPar[:0]
	ev.reparsed = false
	ev.move = Move{}
	ev.ev.Rects = resizeSlice(ev.ev.Rects, len(blocks))
	ev.ev.ViolationAt, ev.ev.ViolationAm, ev.ev.ViolationMacro = 0, 0, 0
	ev.ev.Penalty = 1
	ev.changed = ev.changed[:0]
	ev.rjBlock, ev.rjRect = ev.rjBlock[:0], ev.rjRect[:0]
	ev.ajIdx = ev.ajIdx[:0]
	ev.lastBudget, ev.moveBudget, ev.budgetMoved = geom.Rect{}, geom.Rect{}, false
	// aCur is monotonic across Resets, so slots surviving in a reused arena
	// are dead on arrival.
	ev.aCur++
	// Slab layout: the leaf region first (each block reserves its unthinned
	// corner count; thinning only shrinks a span), then two slots per node.
	// Children are thinned to CompactPoints, so a slot of twice the largest
	// child bounds every Stockmeyer merge before its thin pass.
	leafTotal := 0
	maxChild := int32(p.CompactPoints)
	if p.CompactPoints < 2 {
		maxChild = shape.MaxPoints // thin disabled: merges still cap there
	}
	for i := range blocks {
		l := blocks[i].Curve.Len()
		leafTotal += l
		if p.CompactPoints < 2 && int32(l) > maxChild {
			maxChild = int32(l) // oversized leaves pass through whole
		}
	}
	ev.slotCap = 2 * maxChild
	ev.arena.Resize(leafTotal + n*2*int(ev.slotCap))
	off := int32(0)
	for i := range blocks {
		ev.leafSpan[i] = ev.arena.SetCurveThinned(off, blocks[i].Curve, p.CompactPoints)
		off += int32(blocks[i].Curve.Len())
	}
	for i := range ev.nodes {
		// Poison val so the first resync sees every position as changed.
		// (Slot offsets are re-derived: a Reset may have changed the layout.)
		base := int32(leafTotal) + int32(i)*2*ev.slotCap
		ev.nodes[i].val = -3
		ev.nodes[i].buf = [2]int32{base, base + ev.slotCap}
		ev.spans[i] = shape.Span{}
	}
	ev.resyncFrom(0)
	ev.journal = ev.journal[:0] // construction needs no undo
}

// resizeSlice returns s with length n, reusing its backing array when the
// capacity suffices. A shrink keeps the tail's buffers alive inside the
// capacity for later re-growth within cap.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s) // keep warm buffers (curve corner storage) of the prefix
		return grown
	}
	return s[:n]
}

// Perturb applies one random move through Expr.PerturbMove and incrementally
// updates the cached tree. Moves that keep the tree topology (operand swaps
// and chain inversions, two thirds of the mix) invalidate exactly the
// touched positions and their ancestor paths; operand–operator swaps
// relink exactly three nodes (resyncSwap) before the same path-local
// recomposition. It returns the kind of move applied; Undo reverts it (see
// the type comment for the validity rules).
//
//hidapvet:hotpath
func (ev *Evaluator) Perturb(rng *rand.Rand) MoveKind {
	ev.rjBlock, ev.rjRect = ev.rjBlock[:0], ev.rjRect[:0]
	ev.ajIdx = ev.ajIdx[:0]
	ev.pjIdx, ev.pjPar = ev.pjIdx[:0], ev.pjPar[:0]
	ev.reparsed = false
	ev.moveBudget, ev.budgetMoved = ev.lastBudget, false
	//hidapvet:commit the move is recorded in ev.move; the caller pairs this Perturb with Evaluator.Undo
	ev.expr.PerturbMove(rng, &ev.move)
	switch {
	case ev.move.I == ev.move.J:
		ev.journal = ev.journal[:0] // no-op move on a trivial expression
	case ev.move.TopologyChanged():
		ev.resyncSwap(ev.move.I)
	case ev.move.Kind == MoveChainInvert:
		ev.resyncRange(ev.move.I, ev.move.J)
	default: // operand swap: two scattered positions, I < J
		ev.journal = ev.journal[:0]
		ev.markPath(ev.move.I)
		ev.markPath(ev.move.J)
		ev.sweep(ev.move.I)
	}
	return ev.move.Kind
}

// resyncFrom re-parses the expression, diffs every position from lo onward
// against the cached node and recomputes the dirty ones bottom-up (children
// precede parents in postfix order, so one ascending pass suffices).
// Positions before lo hold unchanged values over unchanged subtrees — an
// adjacent swap at lo leaves the prefix untouched — so the prefix replay
// only rebuilds the parse stack, skipping the diff and journal work.
// Previous state of every recomputed node is journaled for undo.
func (ev *Evaluator) resyncFrom(lo int) {
	ev.journal = ev.journal[:0]
	ev.stack = ev.stack[:0]
	for i := 0; i < lo; i++ {
		if ev.expr.elems[i] < 0 {
			// Operator: pop two children, push this node. Parent links of
			// the prefix are already correct and stay untouched.
			ev.stack[len(ev.stack)-2] = int32(i)
			ev.stack = ev.stack[:len(ev.stack)-1]
		} else {
			ev.stack = append(ev.stack, int32(i))
		}
	}
	for i := lo; i < len(ev.expr.elems); i++ {
		v := ev.expr.elems[i]
		var l, r int32 = -1, -1
		if v < 0 {
			r = ev.stack[len(ev.stack)-1]
			l = ev.stack[len(ev.stack)-2]
			ev.stack = ev.stack[:len(ev.stack)-2]
			ev.parent[l], ev.parent[r] = int32(i), int32(i)
		}
		nd := &ev.nodes[i]
		d := nd.val != v || nd.left != l || nd.right != r ||
			(l >= 0 && (ev.dirty[l] || ev.dirty[r]))
		ev.dirty[i] = d
		if d {
			ev.journal = append(ev.journal, undoRecord{
				idx: int32(i), val: nd.val, left: nd.left, right: nd.right,
				at: nd.at, am: nd.am, frac: nd.frac, span: ev.spans[i], side: nd.side, sver: nd.sver,
			})
			nd.val, nd.left, nd.right = v, l, r
			ev.recompute(int32(i), nd)
		}
		ev.stack = append(ev.stack, int32(i))
	}
	if n := len(ev.nodes); n > 0 {
		ev.root = int32(n - 1) // the root of a postfix expression is its last element
		ev.parent[ev.root] = -1
	}
	// Restore the all-false invariant so the fast paths' upward walks
	// terminate on genuinely-marked nodes only.
	for i := range ev.dirty {
		ev.dirty[i] = false
	}
}

// resyncRange handles a topology-preserving move: values changed only in
// [lo, hi), so the dirty set is exactly those positions plus their ancestor
// paths. Marks, then recomputes in ascending position order (children before
// parents). Journals every recompute for undo.
func (ev *Evaluator) resyncRange(lo, hi int) {
	ev.journal = ev.journal[:0]
	for i := lo; i < hi; i++ {
		ev.markPath(i)
	}
	ev.sweep(lo)
}

// resyncSwap repairs the cached tree after an operand–operator swap at
// positions (i, i+1), already applied to the expression. No re-parse is
// needed: an adjacent swap changes exactly one slot of the suffix's
// parse stack, so precisely three nodes change children or value — i,
// i+1, and the "merge" operator q that pops the changed slot. Everything
// else keeps its links, and the same markPath/sweep pass as the cheap
// moves recomposes the dirtied paths, making the whole move O(depth)
// instead of the O(n) re-parse it replaced. Parent-link edits go to the
// parent journal so undo restores them exactly.
//
// With the swapped pair written (c₀, c₁), the two cases are mirror
// images. Case A, operator moved left (c₀ < 0): the old tree had node
// i+1 = op(left=y, right=leaf·i); the new tree has node i = op(left=x,
// right=y) and leaf·(i+1), where x is the stack slot beneath y — found
// by climbing old parent links from i+1 while on the left spine; the
// first ancestor reached from the right is q, and x = q.left. Case B,
// operator moved right (c₀ ≥ 0): the old tree had node i = op(left=x,
// right=y) with parent q = parent[i] (always its left child); the new
// tree has leaf·i and node i+1 = op(left=y, right=leaf·i), and q
// adopts x. Balloting guarantees q exists in both cases; if the climb
// ever fails anyway, the defensive fallback re-parses and flags the
// parent index for an O(n) rebuild on undo.
func (ev *Evaluator) resyncSwap(i int) {
	ev.journal = ev.journal[:0]
	ii, jj := int32(i), int32(i+1)
	var q, x, y int32
	if ev.expr.elems[i] < 0 {
		// Case A: find q by climbing the left spine above the old op node.
		p := jj
		for ev.parent[p] >= 0 && ev.nodes[ev.parent[p]].right != p {
			p = ev.parent[p]
		}
		q = ev.parent[p]
		if q < 0 {
			ev.reparsed = true
			ev.resyncFrom(i)
			return
		}
		x, y = ev.nodes[q].left, ev.nodes[jj].left
		ev.journalNode(ii)
		ev.journalNode(jj)
		ev.journalNode(q)
		ev.nodes[ii].left, ev.nodes[ii].right = x, y
		ev.nodes[jj].left, ev.nodes[jj].right = -1, -1
		ev.nodes[q].left = ii
		ev.setParent(ii, q) // parent[i+1] is unchanged: same stack slot
		ev.setParent(x, ii)
		ev.setParent(y, ii)
	} else {
		// Case B: q popped the old op node i as its left child.
		q = ev.parent[ii]
		if q < 0 || ev.nodes[q].left != ii {
			ev.reparsed = true
			ev.resyncFrom(i)
			return
		}
		x, y = ev.nodes[ii].left, ev.nodes[ii].right
		ev.journalNode(ii)
		ev.journalNode(jj)
		ev.journalNode(q)
		ev.nodes[ii].left, ev.nodes[ii].right = -1, -1
		ev.nodes[jj].left, ev.nodes[jj].right = y, ii
		ev.nodes[q].left = x
		ev.setParent(ii, jj)
		ev.setParent(y, jj)
		ev.setParent(x, q)
	}
	// Values refresh during the sweep (sweep reloads elems); the relink
	// above only moved links. Mark under the NEW parent index: both paths
	// meet at q or above and continue to the root.
	ev.markPath(i)
	ev.markPath(i + 1)
	ev.sweep(i)
}

// journalNode captures one node's pre-move state for undo.
func (ev *Evaluator) journalNode(i int32) {
	nd := &ev.nodes[i]
	ev.journal = append(ev.journal, undoRecord{
		idx: i, val: nd.val, left: nd.left, right: nd.right,
		at: nd.at, am: nd.am, frac: nd.frac, span: ev.spans[i], side: nd.side, sver: nd.sver,
	})
}

// setParent points c's parent link at p, journaling the previous link.
func (ev *Evaluator) setParent(c, p int32) {
	ev.pjIdx = append(ev.pjIdx, c)
	ev.pjPar = append(ev.pjPar, ev.parent[c])
	ev.parent[c] = p
}

// markPath marks a position and its ancestors dirty, stopping at the first
// already-marked node (paths above it are marked too, by induction).
func (ev *Evaluator) markPath(i int) {
	for p := int32(i); p >= 0 && !ev.dirty[p]; p = ev.parent[p] {
		ev.dirty[p] = true
	}
}

// sweep recomputes every marked node from position lo upward, clearing
// marks as it goes so each node composes exactly once per move (the
// double-buffered curve storage relies on that: a second recompute would
// overwrite the journaled pre-move corners). Ascending order recomputes
// children before parents.
func (ev *Evaluator) sweep(lo int) {
	for i := int32(lo); i <= ev.root; i++ {
		if !ev.dirty[i] {
			continue
		}
		ev.dirty[i] = false
		nd := &ev.nodes[i]
		ev.journal = append(ev.journal, undoRecord{
			idx: i, val: nd.val, left: nd.left, right: nd.right,
			at: nd.at, am: nd.am, frac: nd.frac, span: ev.spans[i], side: nd.side, sver: nd.sver,
		})
		nd.val = ev.expr.elems[i]
		ev.recompute(i, nd)
	}
}

// recompute refreshes one node's cached ⟨curve, at, am⟩ from its children
// (or its block, for leaves), writing the composed curve into the node's
// spare buffer so the previous curve survives for undo. The structure
// version bump kills the node's buffered assignments: its subtree inputs
// changed, so the next Eval must re-descend it (every ancestor of a
// recomputed node is itself journaled and recomputed, so invalidation here
// covers the whole affected path). The journaled pre-move sver revives the
// pre-move slot on undo.
func (ev *Evaluator) recompute(i int32, nd *enode) {
	nd.sver++
	if nd.val >= 0 {
		b := &ev.blocks[nd.val]
		nd.at, nd.am = b.TargetArea, b.MinArea
		ev.spans[i] = ev.leafSpan[nd.val]
		return
	}
	l, r := &ev.nodes[nd.left], &ev.nodes[nd.right]
	ls, rs := ev.spans[nd.left], ev.spans[nd.right]
	nd.at = l.at + r.at
	nd.am = l.am + r.am
	nd.frac = atFrac(l.at, r.at)
	// An empty operand reduces the combine to a copy of the other span (every
	// span in the tree is already within the thin budget, so the trailing thin
	// is a no-op), and a copy can be an alias: a child's active span survives
	// exactly one recompute of that child — the double buffer guarantees it —
	// and any move that recomputes a child also recomputes every ancestor
	// (children first), so an aliasing parent re-aliases before the borrowed
	// corners can be overwritten. Soft blocks make empty leaves common, so
	// this skips a third of the combines in mixed designs.
	if ls.N == 0 {
		ev.spans[i] = rs
		return
	}
	if rs.N == 0 {
		ev.spans[i] = ls
		return
	}
	side := 1 - nd.side
	if nd.val == OpV {
		ev.spans[i] = ev.arena.CombineH(nd.buf[side], ls, rs, ev.p.CompactPoints)
	} else {
		ev.spans[i] = ev.arena.CombineV(nd.buf[side], ls, rs, ev.p.CompactPoints)
	}
	nd.side = side
}

// Undo reverts the last Perturb: the expression first, then every
// journaled node, restoring cached sums and curve buffers without any
// recomposition; parent-link edits replay from their own journal.
//
//hidapvet:hotpath
func (ev *Evaluator) Undo() {
	ev.expr.UndoMove(&ev.move)
	// Flip every rewritten assign slot back and replay the rectangle
	// journal: Rects and the buffered assignments describing it return to
	// the pre-move layout together, so no later Eval can hit a slot whose
	// leaf rectangles were rolled out from under it. Flips are involutions,
	// so replay order is irrelevant.
	for _, ni := range ev.ajIdx {
		ev.nodes[ni].aside ^= 1
	}
	ev.ajIdx = ev.ajIdx[:0]
	for k := len(ev.rjBlock) - 1; k >= 0; k-- {
		ev.ev.Rects[ev.rjBlock[k]] = ev.rjRect[k]
	}
	ev.rjBlock, ev.rjRect = ev.rjBlock[:0], ev.rjRect[:0]
	for k := len(ev.journal) - 1; k >= 0; k-- {
		rec := &ev.journal[k]
		nd := &ev.nodes[rec.idx]
		nd.val, nd.left, nd.right = rec.val, rec.left, rec.right
		nd.at, nd.am, nd.frac = rec.at, rec.am, rec.frac
		ev.spans[rec.idx], nd.side = rec.span, rec.side
		// Restoring the pre-move structure version revives the flipped-back
		// pre-move slot and kills any slot the rejected Evals wrote.
		nd.sver = rec.sver
	}
	ev.journal = ev.journal[:0]
	for k := len(ev.pjIdx) - 1; k >= 0; k-- {
		ev.parent[ev.pjIdx[k]] = ev.pjPar[k]
	}
	ev.pjIdx, ev.pjPar = ev.pjIdx[:0], ev.pjPar[:0]
	if ev.reparsed {
		// The fallback re-parse rewired parents without journaling; rebuild
		// from the restored children links.
		ev.rebuildParents()
		ev.reparsed = false
	}
	if ev.budgetMoved {
		// An Eval since the move used a different budget than the pre-move
		// state: a node could have been rewritten twice, overflowing its
		// two slots, so the flipped-back slot is not trustworthy. Rare and
		// cold (annealing holds the budget fixed) — invalidate every slot
		// rather than track deeper histories.
		ev.aCur++
		ev.budgetMoved = false
	}
}

// rebuildParents rederives the parent index from the restored children
// links after a topology move is undone.
func (ev *Evaluator) rebuildParents() {
	for i := range ev.nodes {
		nd := &ev.nodes[i]
		if nd.left >= 0 {
			ev.parent[nd.left] = int32(i)
			ev.parent[nd.right] = int32(i)
		}
	}
	if len(ev.nodes) > 0 {
		ev.parent[ev.root] = -1
	}
}

// RootCurve returns the cached composed shape curve of the whole expression
// as a view of the evaluator's slab. The curve is valid until the next
// Perturb or Reset and must be copied (e.g. via Points or UnionInto) to
// outlive it.
func (ev *Evaluator) RootCurve() shape.Curve {
	if len(ev.nodes) == 0 {
		return shape.Curve{}
	}
	return ev.arena.Curve(ev.spans[ev.root])
}

// Eval runs the top-down area-budgeting pass against the cached tree and
// returns the evaluator-owned Eval record. The record (including Rects) is
// overwritten by the next Eval call. The pass is incremental: a subtree
// whose composed state did not change since the previous Eval, and whose
// budget rectangle is identical, is skipped — its leaves' rectangles are
// already correct in Rects and its cached violation sums are reused. The
// result is bit-identical to a from-scratch pass on the same expression
// and budget: violations are summed hierarchically — each subtree's totals
// combine as own + left + right — rather than in leaf-visit order, and that
// fixed association is what lets the cache skip clean subtrees
// (floating-point addition is not associative; differentially tested).
//
//hidapvet:hotpath
func (ev *Evaluator) Eval(budget geom.Rect) *Eval {
	out := &ev.ev
	if budget != ev.moveBudget {
		ev.budgetMoved = true
	}
	ev.lastBudget = budget
	ev.changed = ev.changed[:0]
	if len(ev.nodes) == 0 || budget.Empty() {
		out.ViolationAt, out.ViolationAm, out.ViolationMacro = 0, 0, 0
		out.Penalty = 1
		for i := range out.Rects {
			if out.Rects[i] != (geom.Rect{}) {
				ev.setLeafRect(int32(i), geom.Rect{}, out)
			}
		}
		// Rects no longer match any cached assignment; invalidate them all.
		ev.aCur++
		return out
	}
	vAt, vAm, vMacro := ev.assign(ev.root, budget, out)
	out.ViolationAt, out.ViolationAm, out.ViolationMacro = vAt, vAm, vMacro
	out.Penalty = 1 + penaltyAt*vAt + penaltyAm*vAm + penaltyMacro*vMacro
	return out
}

// Changed returns the operand ids of the blocks whose rectangles the last
// Eval rewrote to a different value. Because an undo restores Rects to the
// pre-move layout exactly, the list after each Perturb+Eval is the precise
// rectangle diff against the state the caller last acted on; blocks
// re-assigned an identical rectangle are not reported. The slice aliases
// evaluator-owned storage and is valid until the next Eval or Reset; the
// first Eval after a Reset has no meaningful baseline, so callers must do
// one full pass before consuming deltas.
func (ev *Evaluator) Changed() []int32 { return ev.changed }

// setLeafRect overwrites one block's rectangle, recording the block in the
// changed set (each leaf is assigned at most once per Eval, so the set
// needs no deduplication) and the overwrite in the move's rectangle journal
// for undo.
func (ev *Evaluator) setLeafRect(b int32, r geom.Rect, out *Eval) {
	ev.changed = append(ev.changed, b)
	ev.rjBlock = append(ev.rjBlock, b)
	ev.rjRect = append(ev.rjRect, out.Rects[b])
	out.Rects[b] = r
}

// assign is the recursive rectangle assignment over the cached arena,
// returning the subtree's hierarchical violation sums. Method
// recursion keeps the hot path free of closure allocations. Each visited
// node caches ⟨budget rect, subtree sums⟩; a revisit with an identical rect
// on an untouched subtree returns the cached sums without descending —
// recomputes bump the touched nodes' structure version (undos restore it),
// and every ancestor of a touched node is itself touched, so a live slot
// proves the whole subtree is unchanged.
func (ev *Evaluator) assign(ni int32, r geom.Rect, out *Eval) (vAt, vAm, vMacro float64) {
	nd := &ev.nodes[ni]
	if nd.left < 0 {
		// Leaves bypass the slot cache: a parent hit already covers every
		// unchanged subtree, so a leaf is only visited when something above
		// it changed, where a revisit with an identical rectangle is rare —
		// and leafViolations is pure and cheap, so recomputing it beats the
		// slot-write traffic of caching it.
		if out.Rects[nd.val] != r {
			ev.setLeafRect(nd.val, r, out)
		}
		return leafViolations(&ev.blocks[nd.val], r)
	}
	cur := &ev.aslots[2*ni+int32(nd.aside)]
	if cur.aGen == ev.aCur && cur.sver == nd.sver && cur.arect == r {
		return cur.vAt, cur.vAm, cur.vMacro
	}
	{
		ls, rs := ev.spans[nd.left], ev.spans[nd.right]
		var own float64
		var lAt, lAm, lMac, rAt, rAm, rMac float64
		if nd.val == OpV {
			wl := splitShareFrac(r.W, nd.frac)
			wl, own = repairSplitSpan(&ev.arena, wl, r.W, r.H, ls, rs, true)
			lAt, lAm, lMac = ev.assign(nd.left, geom.RectXYWH(r.X, r.Y, wl, r.H), out)
			rAt, rAm, rMac = ev.assign(nd.right, geom.RectXYWH(r.X+wl, r.Y, r.W-wl, r.H), out)
		} else {
			hb := splitShareFrac(r.H, nd.frac)
			hb, own = repairSplitSpan(&ev.arena, hb, r.H, r.W, ls, rs, false)
			lAt, lAm, lMac = ev.assign(nd.left, geom.RectXYWH(r.X, r.Y, r.W, hb), out)
			rAt, rAm, rMac = ev.assign(nd.right, geom.RectXYWH(r.X, r.Y+hb, r.W, r.H-hb), out)
		}
		vAt, vAm, vMacro = lAt+rAt, lAm+rAm, own+lMac+rMac
	}
	nd.aside ^= 1
	ev.aslots[2*ni+int32(nd.aside)] = assignSlot{arect: r, vAt: vAt, vAm: vAm, vMacro: vMacro, aGen: ev.aCur, sver: nd.sver}
	ev.ajIdx = append(ev.ajIdx, ni)
	return vAt, vAm, vMacro
}
