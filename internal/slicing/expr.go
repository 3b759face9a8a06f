// Package slicing implements the slicing-structure layout representation of
// paper §IV-E: normalized Polish expressions over the level's blocks, the
// three classic perturbations (operand swap, operator-chain inversion,
// operand–operator swap, after Wong & Liu), and the paper's novel top-down
// area-budgeting evaluation that always tiles exactly the assigned budget
// (Fig. 8), repairing macro-infeasible cuts by moving area between siblings
// and charging graded penalties (at / am / macro, least to most severe).
package slicing

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Operator encoding inside an expression: non-negative values are operand
// (leaf) indices; OpV and OpH are the two cut operators.
const (
	// OpV is a vertical cut: the two children sit side by side
	// (widths add, heights max).
	OpV int32 = -1
	// OpH is a horizontal cut: the two children stack
	// (heights add, widths max).
	OpH int32 = -2
)

// Expr is a normalized Polish (postfix) expression over n operands.
// Invariants: every prefix has more operands than operators (balloting),
// the full expression has exactly n-1 operators, and no two consecutive
// operators are equal (normalization).
type Expr struct {
	elems []int32
	n     int
	// Move-sampling indexes, built lazily by ensureIndex and maintained
	// incrementally by every move, so sampling the k-th operand, the
	// p-th operator chain or a balloting-valid swap site never rescans
	// the expression. Never copied between expressions (CopyFrom/Clone
	// invalidate instead).
	opPos   []int32 // operand rank → element position, ascending
	posRank []int32 // element position → operand rank, -1 for operators
	starts  []int32 // positions of maximal operator-chain starts, ascending
	idxOK   bool
}

// NewBalanced builds an initial expression shaped as a balanced tree with
// alternating cut directions, a good unbiased starting point for annealing.
func NewBalanced(n int) Expr {
	var e Expr
	e.SetBalanced(n)
	return e
}

// SetBalanced rebuilds e in place as the balanced expression NewBalanced
// constructs, reusing e's element storage. Solvers that run many levels
// through one scratch expression avoid re-allocating it.
func (e *Expr) SetBalanced(n int) {
	e.elems = e.elems[:0]
	e.n = n
	e.idxOK = false
	if n <= 0 {
		return
	}
	e.appendBalanced(0, n, OpV)
}

func (e *Expr) appendBalanced(lo, hi int, op int32) {
	if hi-lo == 1 {
		e.elems = append(e.elems, int32(lo))
		return
	}
	mid := (lo + hi) / 2
	next := OpV
	if op == OpV {
		next = OpH
	}
	e.appendBalanced(lo, mid, next)
	e.appendBalanced(mid, hi, next)
	e.elems = append(e.elems, op)
}

// NewChain builds the degenerate chain 0 1 op 2 op' 3 op ... with
// alternating operators (also normalized).
func NewChain(n int) Expr {
	if n <= 0 {
		return Expr{}
	}
	elems := []int32{0}
	op := OpV
	for i := 1; i < n; i++ {
		elems = append(elems, int32(i), op)
		if op == OpV {
			op = OpH
		} else {
			op = OpV
		}
	}
	return Expr{elems: elems, n: n}
}

// NumOperands returns the number of leaves.
func (e *Expr) NumOperands() int { return e.n }

// Len returns the element count (2n-1 for n operands).
func (e *Expr) Len() int { return len(e.elems) }

// Elems returns a copy of the raw element slice.
func (e *Expr) Elems() []int32 {
	out := make([]int32, len(e.elems))
	copy(out, e.elems)
	return out
}

// Clone returns an independent copy.
func (e *Expr) Clone() Expr {
	return Expr{elems: e.Elems(), n: e.n}
}

// CopyFrom overwrites e with the contents of src (no aliasing).
func (e *Expr) CopyFrom(src *Expr) {
	e.elems = append(e.elems[:0], src.elems...)
	e.n = src.n
	e.idxOK = false
}

func (e *Expr) String() string {
	var sb strings.Builder
	for _, v := range e.elems {
		switch v {
		case OpV:
			sb.WriteByte('V')
		case OpH:
			sb.WriteByte('H')
		default:
			if v > 9 {
				fmt.Fprintf(&sb, "(%d)", v)
			} else {
				sb.WriteByte(byte('0' + v))
			}
		}
	}
	return sb.String()
}

// Valid checks the three structural invariants; used by tests.
func (e *Expr) Valid() bool {
	if e.n == 0 {
		return len(e.elems) == 0
	}
	operands, operators := 0, 0
	seen := make([]bool, e.n)
	for i, v := range e.elems {
		if v >= 0 {
			if int(v) >= e.n || seen[v] {
				return false
			}
			seen[v] = true
			operands++
			continue
		}
		if v != OpV && v != OpH {
			return false
		}
		operators++
		if operators >= operands {
			return false // balloting violated
		}
		if i > 0 && e.elems[i-1] == v {
			return false // not normalized
		}
	}
	return operands == e.n && operators == e.n-1
}

// MoveKind names the three perturbations for reporting.
type MoveKind uint8

const (
	// MoveOperandSwap exchanges two adjacent operands (M1).
	MoveOperandSwap MoveKind = iota
	// MoveChainInvert complements one maximal operator chain (M2).
	MoveChainInvert
	// MoveOperandOperatorSwap swaps an adjacent operand/operator pair (M3).
	MoveOperandOperatorSwap
)

// Move records one applied perturbation by the element positions it
// touched, so incremental evaluators can invalidate precisely and undo
// without allocating. For MoveOperandSwap and MoveOperandOperatorSwap, I
// and J are the two swapped positions (J = I+1 for the latter); for
// MoveChainInvert, every operator in [I, J) was complemented. A no-op move
// (possible only when the expression has fewer than two operands) has I == J.
type Move struct {
	Kind MoveKind
	I, J int
}

// TopologyChanged reports whether the move can alter the slicing-tree
// structure rather than just the values at the touched positions. Only
// operand–operator swaps reshape the tree; the other moves permute leaf
// blocks or flip cut directions in place.
func (mv *Move) TopologyChanged() bool { return mv.Kind == MoveOperandOperatorSwap }

// PerturbMove applies one random valid move chosen uniformly among the
// three kinds (retrying internally if the sampled M3 site is invalid) and
// records it in mv for UndoMove, without allocating.
//
//hidapvet:hotpath
func (e *Expr) PerturbMove(rng *rand.Rand, mv *Move) {
	if e.n < 2 {
		*mv = Move{Kind: MoveOperandSwap}
		return
	}
	for {
		switch MoveKind(rng.Intn(3)) {
		case MoveOperandSwap:
			if e.operandSwap(rng, mv) {
				return
			}
		case MoveChainInvert:
			if e.chainInvert(rng, mv) {
				return
			}
		case MoveOperandOperatorSwap:
			if e.operandOperatorSwap(rng, mv) {
				return
			}
		}
	}
}

// UndoMove reverts a move applied by PerturbMove. Every move kind is an
// involution on the positions it recorded, so undo replays it.
//
//hidapvet:hotpath
func (e *Expr) UndoMove(mv *Move) {
	switch {
	case mv.I == mv.J:
		// No-op move on a trivial expression.
	case mv.Kind == MoveChainInvert:
		e.flipChain(mv.I, mv.J)
	case mv.Kind == MoveOperandOperatorSwap:
		e.swapAdjacent(mv.I)
	default:
		e.elems[mv.I], e.elems[mv.J] = e.elems[mv.J], e.elems[mv.I]
	}
}

// operandSwap (M1): swap the k-th and (k+1)-th operands. The operand
// index turns the rank draw into two positions directly; swapping values
// at fixed positions leaves every index untouched.
func (e *Expr) operandSwap(rng *rand.Rand, mv *Move) bool {
	k := rng.Intn(e.n - 1)
	e.ensureIndex()
	i, j := int(e.opPos[k]), int(e.opPos[k+1])
	e.elems[i], e.elems[j] = e.elems[j], e.elems[i]
	*mv = Move{Kind: MoveOperandSwap, I: i, J: j}
	return true
}

// chainInvert (M2): pick one maximal operator chain and complement every
// operator in it. Complementing preserves balloting and normalization,
// and touches no index (operator positions and chain boundaries are
// unchanged). The chain-start index makes the pick O(1): starts are kept
// in position order, matching the scan order this draw historically used.
func (e *Expr) chainInvert(rng *rand.Rand, mv *Move) bool {
	e.ensureIndex()
	if len(e.starts) == 0 {
		return false
	}
	pick := rng.Intn(len(e.starts))
	i := int(e.starts[pick])
	j := i
	for j < len(e.elems) && e.elems[j] < 0 {
		j++
	}
	e.flipChain(i, j)
	*mv = Move{Kind: MoveChainInvert, I: i, J: j}
	return true
}

// flipChain complements every operator in [lo, hi).
func (e *Expr) flipChain(lo, hi int) {
	for k := lo; k < hi; k++ {
		if e.elems[k] == OpV {
			e.elems[k] = OpH
		} else {
			e.elems[k] = OpV
		}
	}
}

// operandOperatorSwap (M3): swap an adjacent operand/operator pair when the
// result stays a normalized Polish expression. Validity per candidate
// needs only the operand/operator balance of the single prefix ending
// between the pair — derived in O(log n) from the operand index (the
// number of operands at positions ≤ i is a binary search over opPos) —
// and the pair's outer neighbors for normalization; the rest of the
// expression was valid before and is untouched.
func (e *Expr) operandOperatorSwap(rng *rand.Rand, mv *Move) bool {
	e.ensureIndex()
	start := rng.Intn(len(e.elems) - 1)
	for off := 0; off < len(e.elems)-1; off++ {
		i := (start + off) % (len(e.elems) - 1)
		a, op := e.elems[i], e.elems[i+1]
		switch {
		case a >= 0 && op < 0:
			// (operand, operator) → (operator, operand): the prefix ending
			// at i loses an operand and gains an operator.
			if e.balAt(i)-2 < 1 {
				continue
			}
			if i > 0 && e.elems[i-1] == op {
				continue // equal adjacent operators
			}
		case a < 0 && op >= 0:
			// (operator, operand) → (operand, operator): the balance rises;
			// only normalization against the right neighbor can break.
			if i+2 < len(e.elems) && e.elems[i+2] == a {
				continue
			}
		default:
			continue
		}
		e.swapAdjacent(i)
		*mv = Move{Kind: MoveOperandOperatorSwap, I: i, J: i + 1}
		return true
	}
	return false
}

// balAt returns operands − operators over elems[0..i]: with r operands
// in the prefix, the balance is r − (i+1−r). Balloting holds iff every
// balAt(p) >= 1.
func (e *Expr) balAt(i int) int {
	r := sort.Search(len(e.opPos), func(k int) bool { return e.opPos[k] > int32(i) }) //hidapvet:allow allocfree closure does not escape sort.Search and stays on the stack; proven by the 0-alloc benchmarks
	return 2*r - (i + 1)
}

// swapAdjacent swaps elems[i] and elems[i+1] — one operand, one operator
// (an M3 move or its undo) — and repairs the indexes incrementally: the
// operand shifts one position, and only positions i..i+2 can gain or
// lose a chain start.
func (e *Expr) swapAdjacent(i int) {
	e.elems[i], e.elems[i+1] = e.elems[i+1], e.elems[i]
	if !e.idxOK {
		return
	}
	if e.elems[i+1] >= 0 {
		r := e.posRank[i] // operand moved right: i → i+1
		e.opPos[r] = int32(i + 1)
		e.posRank[i], e.posRank[i+1] = -1, r
	} else {
		r := e.posRank[i+1] // operand moved left: i+1 → i
		e.opPos[r] = int32(i)
		e.posRank[i], e.posRank[i+1] = r, -1
	}
	for p := i; p <= i+2 && p < len(e.elems); p++ {
		e.setChainStart(int32(p), p >= 1 && e.elems[p] < 0 && e.elems[p-1] >= 0)
	}
}

// setChainStart inserts or removes position p in the sorted chain-start
// index to match want.
func (e *Expr) setChainStart(p int32, want bool) {
	k := sort.Search(len(e.starts), func(j int) bool { return e.starts[j] >= p }) //hidapvet:allow allocfree closure does not escape sort.Search and stays on the stack; proven by the 0-alloc benchmarks
	have := k < len(e.starts) && e.starts[k] == p
	switch {
	case want && !have:
		e.starts = append(e.starts, 0)
		copy(e.starts[k+1:], e.starts[k:])
		e.starts[k] = p
	case !want && have:
		e.starts = append(e.starts[:k], e.starts[k+1:]...)
	}
}

// ensureIndex (re)builds the move-sampling indexes with one scan. Moves
// keep them current from then on; whole-expression rewrites (SetBalanced,
// CopyFrom) invalidate instead.
func (e *Expr) ensureIndex() {
	if e.idxOK {
		return
	}
	e.opPos = e.opPos[:0]
	e.starts = e.starts[:0]
	if cap(e.posRank) < len(e.elems) {
		e.posRank = make([]int32, len(e.elems)) //hidapvet:allow allocfree one-time warm-up: idxOK short-circuits every later call; steady state pinned by TestPerturbCycleAllocs
	}
	e.posRank = e.posRank[:len(e.elems)]
	for p, v := range e.elems {
		if v >= 0 {
			e.posRank[p] = int32(len(e.opPos))
			e.opPos = append(e.opPos, int32(p))
		} else {
			e.posRank[p] = -1
			if p >= 1 && e.elems[p-1] >= 0 {
				e.starts = append(e.starts, int32(p))
			}
		}
	}
	e.idxOK = true
}
