// Package layout implements the layout-generation step of paper §IV-E: one
// floorplanning level is solved by simulated annealing over slicing
// structures, minimizing
//
//	penalty · Σ distance(n_i, n_j) · Maff[i][j]
//
// where the sum ranges over Gdf node pairs, blocks move with the slicing
// layout, and ports / external macros are fixed points. The penalty
// multiplier comes from the top-down area-budgeting evaluation and forbids
// macro overlaps while letting the search pass through mildly illegal
// solutions.
//
// The annealing hot path is fully incremental: the slicing evaluator
// recomposes and re-assigns only the tree path a move touched, and the
// wirelength term is maintained as per-pair contributions under a
// fixed-shape summation tree, so one proposal costs O(depth + degree of the
// moved blocks) instead of O(n + pairs). Solve anneals one chain per level
// on pooled scratch; a fixed seed gives a fixed layout.
package layout

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/anneal"
	"repro/internal/dataflow"
	"repro/internal/geom"
	"repro/internal/slicing"
)

// BlockSpec is one movable block of the level.
type BlockSpec struct {
	Name  string
	Block slicing.Block // ⟨Γ, am, at⟩
}

// Terminal is a fixed attraction point: a port or a macro outside the
// subtree being floorplanned.
type Terminal struct {
	Name string
	Pos  geom.Point
}

// Problem is one level floorplanning instance. Affinity node indices put
// blocks first (0..B-1) and terminals after (B..B+T-1), matching the Gdf
// node order produced by the dataflow package, in Pairs and Affinity
// alike.
type Problem struct {
	Region    geom.Rect
	Blocks    []BlockSpec
	Terminals []Terminal
	// Pairs is the canonical affinity: the nonzero entries of the
	// symmetric matrix Maff with I < J, sorted by (I, J), as
	// dataflow.Graph.Pairs returns them. The solver reads nothing else.
	Pairs []dataflow.Pair
	// Affinity is a dense form of Maff, read only when Pairs is nil: Solve
	// then takes its nonzero upper-triangle entries as the pairs, once.
	// Only the benchmark module still sets it.
	Affinity [][]float64
}

// Effort selects the annealing budget.
type Effort int

const (
	// EffortLow is for smoke tests and tiny levels.
	EffortLow Effort = iota
	// EffortMedium is the default.
	EffortMedium
	// EffortHigh spends extra moves for final-quality runs.
	EffortHigh
)

func (e Effort) schedule(seed int64) anneal.Options {
	switch e {
	case EffortLow:
		return anneal.Options{Seed: seed, MovesPerRound: 16, MaxRounds: 40, Alpha: 0.85, StallRounds: 12}
	case EffortHigh:
		return anneal.Options{Seed: seed, MovesPerRound: 64, MaxRounds: 160, Alpha: 0.95, StallRounds: 40}
	default:
		return anneal.Options{Seed: seed, MovesPerRound: 32, MaxRounds: 80, Alpha: 0.92, StallRounds: 20}
	}
}

// Options tunes Solve.
type Options struct {
	Seed   int64
	Effort Effort
	// Pool, when set, supplies the incremental evaluator from a shared
	// arena pool and returns it after the solve, so repeated solves (the
	// recursion levels of one placement, or back-to-back jobs on a serving
	// engine) reuse annealing scratch instead of reallocating it. Results
	// are identical with or without a pool.
	Pool *slicing.EvaluatorPool
}

// DefaultOptions returns medium effort. Levels are always evaluated under
// slicing.DefaultEvalParams.
func DefaultOptions() Options {
	return Options{Effort: EffortMedium}
}

// Result is a solved level.
type Result struct {
	// Rects assigns a rectangle inside Region to every block.
	Rects []geom.Rect
	// Expr is the winning slicing expression.
	Expr slicing.Expr
	// Cost is penalty · (1 + Σ dist·affinity) of the returned layout. The
	// additive base keeps the penalty multiplier effective when the
	// distance sum vanishes: without it, a layout whose attraction points
	// all coincide would score zero however illegal it is. A pure packing
	// instance (no pairs) costs exactly its penalty.
	Cost float64
	// Penalty is the violation multiplier of the returned layout (1 = legal).
	Penalty float64
	// Legal mirrors slicing.Eval.Legal for the returned layout.
	Legal bool
}

// solver is the annealing scratch of one level solve: the block slice, the
// delta cost state and the expression pair. Pooled so repeated level
// solves reuse the buffers instead of reallocating them.
type solver struct {
	blocks []slicing.Block
	cost   costState
	expr   slicing.Expr
	best   slicing.Expr
}

var solverPool = sync.Pool{New: func() any { return new(solver) }}

// Solve floorplans one level. A cancelled ctx stops the annealing schedules
// early and returns the best layout reached so far; the caller is expected
// to check ctx.Err() and abandon the result. A one-block level anneals
// like any other: its expression admits only no-op moves, so the schedule
// ends on the stall rule and the block takes the whole region.
func Solve(ctx context.Context, p *Problem, opt Options) *Result {
	if len(p.Blocks) == 0 {
		return &Result{Penalty: 1, Legal: true}
	}
	if p.Pairs == nil && p.Affinity != nil {
		q := *p
		q.Pairs = densePairs(p.Affinity, len(p.Blocks)+len(p.Terminals))
		p = &q
	}

	s := solverPool.Get().(*solver)
	defer solverPool.Put(s)
	nb := len(p.Blocks)
	s.blocks = resizeSlice(s.blocks, nb)
	for i := range p.Blocks {
		s.blocks[i] = p.Blocks[i].Block
	}
	s.cost.init(p)
	s.expr.SetBalanced(nb)

	params := slicing.DefaultEvalParams()
	var inc *slicing.Evaluator
	if opt.Pool != nil {
		inc = opt.Pool.Get(&s.expr, s.blocks, params)
		defer opt.Pool.Put(inc)
	} else {
		inc = slicing.NewEvaluator(&s.expr, s.blocks, params)
	}
	m := mover{inc: inc, cs: &s.cost, region: p.Region, expr: &s.expr, best: &s.best}
	anneal.RunModel(ctx, opt.Effort.schedule(opt.Seed), &m)

	// Final evaluation of the winner reuses the incremental evaluator's
	// arena (Reset + Eval is bit-identical to a from-scratch evaluation, per
	// the differential tests), so the tail of the solve is warm too. Rects
	// are copied out because the evaluator owns its record.
	inc.Reset(&s.best, s.blocks, params)
	ev := inc.Eval(p.Region)
	return &Result{
		Rects:   append([]geom.Rect(nil), ev.Rects...),
		Expr:    s.best.Clone(),
		Cost:    ev.Penalty * (1 + s.cost.rebuild(ev.Rects)),
		Penalty: ev.Penalty,
		Legal:   ev.Legal(),
	}
}

// mover adapts one annealing chain to the delta-aware anneal.Model: a
// proposal perturbs the incremental evaluator, re-assigns only the dirty
// tree path, and re-sums only the affinity pairs incident to the blocks
// whose rectangles actually moved.
type mover struct {
	inc    *slicing.Evaluator
	cs     *costState
	region geom.Rect
	expr   *slicing.Expr
	best   *slicing.Expr
}

func (m *mover) Cost() float64 {
	ev := m.inc.Eval(m.region)
	return ev.Penalty * (1 + m.cs.rebuild(ev.Rects))
}

// Propose applies one slicing-tree move and returns the tentative cost; it
// runs once per annealing step.
//
//hidapvet:hotpath
func (m *mover) Propose(rng *rand.Rand) float64 {
	//hidapvet:commit anneal.RunModel pairs every rejected Propose with mover.Undo, which undoes the evaluator
	m.inc.Perturb(rng)
	ev := m.inc.Eval(m.region)
	return ev.Penalty * (1 + m.cs.update(ev.Rects, m.inc.Changed()))
}

// Undo reverts the last Propose, cost journal first, then the evaluator.
//
//hidapvet:hotpath
func (m *mover) Undo() {
	m.cs.undo()
	m.inc.Undo()
}

func (m *mover) Snapshot() { m.best.CopyFrom(m.expr) }

// densePairs lists the nonzero upper-triangle entries of a dense affinity
// matrix over the first n nodes, in (I, J) order.
func densePairs(aff [][]float64, n int) []dataflow.Pair {
	var out []dataflow.Pair
	for i := 0; i < n && i < len(aff); i++ {
		row := aff[i]
		for j := i + 1; j < n && j < len(row); j++ {
			if row[j] != 0 {
				out = append(out, dataflow.Pair{I: int32(i), J: int32(j), W: row[j]})
			}
		}
	}
	return out
}

// pairIndex is the immutable half of the cost model: the affinity pairs
// with at least one movable endpoint and their CSR adjacency by block, a
// pure function of the Problem.
type pairIndex struct {
	pairs   []dataflow.Pair
	adjOff  []int32
	adjPair []int32
	cursor  []int32 // CSR fill scratch
}

// build copies the problem's pairs and derives their adjacency, reusing the
// receiver's buffers. Terminal–terminal pairs are dropped: they contribute
// a layout-independent constant that would only dilute the penalty
// gradient.
func (px *pairIndex) build(p *Problem) {
	nb := int32(len(p.Blocks))
	px.pairs = px.pairs[:0]
	for _, pr := range p.Pairs {
		if pr.I < nb || pr.J < nb {
			px.pairs = append(px.pairs, pr)
		}
	}
	px.adjOff = resizeSlice(px.adjOff, int(nb)+1)
	for i := range px.adjOff {
		px.adjOff[i] = 0
	}
	for _, pr := range px.pairs {
		if pr.I < nb {
			px.adjOff[pr.I+1]++
		}
		if pr.J < nb {
			px.adjOff[pr.J+1]++
		}
	}
	for i := int32(1); i <= nb; i++ {
		px.adjOff[i] += px.adjOff[i-1]
	}
	px.adjPair = resizeSlice(px.adjPair, int(px.adjOff[nb]))
	cursor := resizeSlice(px.cursor, int(nb))
	px.cursor = cursor
	copy(cursor, px.adjOff[:nb])
	for k, pr := range px.pairs {
		if pr.I < nb {
			px.adjPair[cursor[pr.I]] = int32(k)
			cursor[pr.I]++
		}
		if pr.J < nb {
			px.adjPair[cursor[pr.J]] = int32(k)
			cursor[pr.J]++
		}
	}
}

// costState maintains Σ dist·affinity incrementally: per-pair
// contributions in a flat array, re-derived only for the pairs incident to
// blocks whose centers moved, plus a fixed left-to-right summation over the
// array. Because the summation order never changes and untouched entries
// keep their exact bits, the total equals a full recompute bit for bit
// (differentially tested) — the expensive part per pair is the distance
// term, not the addition, so delta updates pay off long before the sum
// itself would need a tree. An undo journal mirrors the evaluator's: one
// move deep, restoring centers and contributions exactly.
type costState struct {
	nb  int
	idx pairIndex
	pts []geom.Point // block centers, then fixed terminal positions

	contrib []float64 // per-pair dist·weight

	pairGen []uint32 // dedups pairs touched within one update
	gen     uint32

	jPair    []int32 // undo journal: pair contributions…
	jContrib []float64
	jBlock   []int32 // …and block centers
	jCenter  []geom.Point
}

// init rebuilds the state for one problem, reusing every buffer.
func (cs *costState) init(p *Problem) {
	nb := len(p.Blocks)
	n := nb + len(p.Terminals)
	cs.nb = nb
	cs.idx.build(p)
	cs.pts = resizeSlice(cs.pts, n)
	for i := range p.Terminals {
		cs.pts[nb+i] = p.Terminals[i].Pos
	}

	np := len(cs.idx.pairs)
	cs.contrib = resizeSlice(cs.contrib, np)
	cs.pairGen = resizeSlice(cs.pairGen, np)
	for i := range cs.pairGen {
		cs.pairGen[i] = 0
	}
	cs.gen = 0
	cs.jPair, cs.jContrib = cs.jPair[:0], cs.jContrib[:0]
	cs.jBlock, cs.jCenter = cs.jBlock[:0], cs.jCenter[:0]
}

// pairContrib computes one pair's dist·weight term from current positions.
func (cs *costState) pairContrib(k int) float64 {
	pr := &cs.idx.pairs[k]
	d := cs.pts[pr.I].ManhattanDist(cs.pts[pr.J])
	return float64(d) * pr.W
}

// sum folds the contribution array under one fixed association — four
// strided accumulators combined as (s0+s1)+(s2+s3) — shared by the delta
// and full-recompute paths, so both produce identical bits. The strided
// form breaks the serial FP-add latency chain a naive fold would carry.
func (cs *costState) sum() float64 {
	var s0, s1, s2, s3 float64
	c := cs.contrib
	i := 0
	for ; i+4 <= len(c); i += 4 {
		s0 += c[i]
		s1 += c[i+1]
		s2 += c[i+2]
		s3 += c[i+3]
	}
	for ; i < len(c); i++ {
		s0 += c[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// rebuild re-derives every contribution from the given block rectangles and
// returns the total. It both initializes the state and re-synchronizes it
// (anneal.Model.Cost), and is the full-recompute reference the delta path
// must match bit for bit.
func (cs *costState) rebuild(rects []geom.Rect) float64 {
	for b := 0; b < cs.nb; b++ {
		cs.pts[b] = rects[b].Center()
	}
	for k := range cs.contrib {
		cs.contrib[k] = cs.pairContrib(k)
	}
	return cs.sum()
}

// update applies one move's delta: every changed block whose center moved
// is journaled and refreshed, then the incident pairs' contributions
// recompute (deduplicated — a pair between two moved blocks recomputes
// once, after both centers are current) and the array re-sums.
//
//hidapvet:hotpath
func (cs *costState) update(rects []geom.Rect, changed []int32) float64 {
	cs.jPair, cs.jContrib = cs.jPair[:0], cs.jContrib[:0]
	cs.jBlock, cs.jCenter = cs.jBlock[:0], cs.jCenter[:0]
	cs.gen++
	for _, b := range changed {
		c := rects[b].Center()
		if c == cs.pts[b] {
			continue // resized in place: no distance term moved
		}
		cs.jBlock = append(cs.jBlock, b)
		cs.jCenter = append(cs.jCenter, cs.pts[b])
		cs.pts[b] = c
		for _, pi := range cs.idx.adjPair[cs.idx.adjOff[b]:cs.idx.adjOff[b+1]] {
			if cs.pairGen[pi] == cs.gen {
				continue
			}
			cs.pairGen[pi] = cs.gen
			cs.jPair = append(cs.jPair, pi)
			cs.jContrib = append(cs.jContrib, cs.contrib[pi])
		}
	}
	for _, pi := range cs.jPair {
		cs.contrib[pi] = cs.pairContrib(int(pi))
	}
	return cs.sum()
}

// undo reverts the last update: centers and contributions restore from the
// journal to their exact previous bits.
//
//hidapvet:hotpath
func (cs *costState) undo() {
	for k := len(cs.jBlock) - 1; k >= 0; k-- {
		cs.pts[cs.jBlock[k]] = cs.jCenter[k]
	}
	for k := len(cs.jPair) - 1; k >= 0; k-- {
		cs.contrib[cs.jPair[k]] = cs.jContrib[k]
	}
	cs.jPair, cs.jContrib = cs.jPair[:0], cs.jContrib[:0]
	cs.jBlock, cs.jCenter = cs.jBlock[:0], cs.jCenter[:0]
}

// resizeSlice returns s with length n, reusing its backing array when the
// capacity suffices.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
