package layout

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/shape"
	"repro/internal/slicing"
)

func soft(at int64) BlockSpec {
	return BlockSpec{Block: slicing.Block{TargetArea: at, MinArea: at / 2}}
}

func TestSolveEmpty(t *testing.T) {
	r := Solve(context.Background(), &Problem{Region: geom.RectXYWH(0, 0, 100, 100)}, DefaultOptions())
	if len(r.Rects) != 0 || !r.Legal {
		t.Errorf("empty problem: %+v", r)
	}
}

func TestSolveSingleBlock(t *testing.T) {
	p := &Problem{
		Region: geom.RectXYWH(0, 0, 100, 100),
		Blocks: []BlockSpec{soft(5000)},
	}
	r := Solve(context.Background(), p, DefaultOptions())
	if r.Rects[0] != p.Region {
		t.Errorf("single block should take whole region, got %v", r.Rects[0])
	}
}

func TestSolveTerminalPull(t *testing.T) {
	// Block 0 is bound to a west terminal, block 1 to an east terminal.
	// After annealing, block 0 must sit west of block 1.
	p := &Problem{
		Region: geom.RectXYWH(0, 0, 1000, 500),
		Blocks: []BlockSpec{soft(200_000), soft(200_000)},
		Terminals: []Terminal{
			{Name: "west", Pos: geom.Pt(0, 250)},
			{Name: "east", Pos: geom.Pt(1000, 250)},
		},
		Pairs: []dataflow.Pair{
			{I: 0, J: 2, W: 100}, // block0 <-> west terminal
			{I: 1, J: 3, W: 100}, // block1 <-> east terminal
		},
	}
	opt := DefaultOptions()
	opt.Seed = 5
	r := Solve(context.Background(), p, opt)
	if r.Rects[0].Center().X >= r.Rects[1].Center().X {
		t.Errorf("block0 at %v should be west of block1 at %v", r.Rects[0].Center(), r.Rects[1].Center())
	}
	if !r.Legal {
		t.Error("soft blocks must produce a legal layout")
	}
}

func TestSolveAffinityAdjacency(t *testing.T) {
	// Four equal blocks; 0 and 3 have overwhelming affinity: they must end
	// adjacent (distance below the region half-diagonal).
	p := &Problem{
		Region: geom.RectXYWH(0, 0, 800, 800),
		Blocks: []BlockSpec{soft(160_000), soft(160_000), soft(160_000), soft(160_000)},
		Pairs:  []dataflow.Pair{{I: 0, J: 3, W: 1000}, {I: 1, J: 2, W: 1}},
	}
	opt := DefaultOptions()
	opt.Seed = 11
	r := Solve(context.Background(), p, opt)
	d := r.Rects[0].Center().ManhattanDist(r.Rects[3].Center())
	if d > 800 {
		t.Errorf("high-affinity blocks %d apart; rects %v %v", d, r.Rects[0], r.Rects[3])
	}
}

func TestSolveMacroLegality(t *testing.T) {
	// Three blocks carrying macros that only fit in specific orientations.
	mk := func(w, h int64) BlockSpec {
		return BlockSpec{Block: slicing.Block{
			Curve:      shape.FromBoxRotatable(w, h),
			MinArea:    w * h,
			TargetArea: w * h * 3 / 2,
		}}
	}
	p := &Problem{
		Region: geom.RectXYWH(0, 0, 1000, 1000),
		Blocks: []BlockSpec{mk(600, 200), mk(500, 250), mk(300, 300)},
	}
	opt := DefaultOptions()
	opt.Seed = 3
	opt.Effort = EffortHigh
	r := Solve(context.Background(), p, opt)
	if !r.Legal {
		t.Fatalf("expected legal layout, penalty=%v expr=%s rects=%v", r.Penalty, r.Expr.String(), r.Rects)
	}
	for i, rect := range r.Rects {
		if !p.Blocks[i].Block.Curve.Fits(rect.W, rect.H) {
			t.Errorf("block %d rect %v does not fit curve %v", i, rect, p.Blocks[i].Block.Curve)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := &Problem{
		Region: geom.RectXYWH(0, 0, 400, 400),
		Blocks: []BlockSpec{soft(40_000), soft(40_000)},
		Pairs:  []dataflow.Pair{{I: 0, J: 1, W: 5}},
	}
	opt := DefaultOptions()
	opt.Seed = 77
	a := Solve(context.Background(), p, opt)
	b := Solve(context.Background(), p, opt)
	if a.Cost != b.Cost || a.Expr.String() != b.Expr.String() {
		t.Errorf("nondeterministic: %v/%s vs %v/%s", a.Cost, a.Expr.String(), b.Cost, b.Expr.String())
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatal("rects nondeterministic")
		}
	}
}

func TestSolveBeatsBadReference(t *testing.T) {
	// The annealed cost must not exceed the cost of the initial balanced
	// expression (sanity: SA keeps the best ever seen).
	n := 6
	blocks := make([]BlockSpec, n)
	for i := range blocks {
		blocks[i] = soft(100_000)
	}
	p := &Problem{
		Region: geom.RectXYWH(0, 0, 900, 700),
		Blocks: blocks,
		Pairs:  []dataflow.Pair{{I: 0, J: 5, W: 50}, {I: 1, J: 4, W: 30}, {I: 2, J: 3, W: 10}},
	}

	// Reference: evaluate the untouched balanced expression.
	sl := make([]slicing.Block, n)
	for i := range blocks {
		sl[i] = blocks[i].Block
	}
	e0 := slicing.NewBalanced(n)
	ev0 := slicing.NewEvaluator(&e0, sl, slicing.DefaultEvalParams()).Eval(p.Region)
	ref := wirecost(ev0, p)

	opt := DefaultOptions()
	opt.Seed = 13
	r := Solve(context.Background(), p, opt)
	if r.Cost > ref {
		t.Errorf("annealed cost %v worse than initial %v", r.Cost, ref)
	}
}

func TestWirecostDegenerateLayoutLoses(t *testing.T) {
	// A layout whose only attraction distance is zero must not erase its
	// violation penalty: the illegal zero-distance layout has to cost more
	// than a nearby legal one. (Regression: penalty · Σ dist·aff scored the
	// degenerate layout 0, beating every legal layout.)
	p := &Problem{
		Region:    geom.RectXYWH(0, 0, 100, 100),
		Blocks:    []BlockSpec{soft(5000)},
		Terminals: []Terminal{{Name: "c", Pos: geom.Pt(50, 50)}},
		Pairs:     []dataflow.Pair{{I: 0, J: 1, W: 5}}, // block <-> center terminal
	}
	// Illegal layout sitting exactly on the terminal: distance sum is zero.
	illegal := &slicing.Eval{
		Rects:          []geom.Rect{geom.RectXYWH(0, 0, 100, 100)},
		ViolationMacro: 1,
		Penalty:        33,
	}
	// Legal layout a couple of DBU off the terminal.
	legal := &slicing.Eval{
		Rects:   []geom.Rect{geom.RectXYWH(2, 2, 100, 100)},
		Penalty: 1,
	}
	ci, cl := wirecost(illegal, p), wirecost(legal, p)
	if ci <= cl {
		t.Errorf("illegal zero-distance layout costs %v, must exceed legal cost %v", ci, cl)
	}
}

func TestAffinityPairsSkipTerminalTerminal(t *testing.T) {
	p := &Problem{
		Region:    geom.RectXYWH(0, 0, 10, 10),
		Blocks:    []BlockSpec{soft(10)},
		Terminals: []Terminal{{Pos: geom.Pt(0, 0)}, {Pos: geom.Pt(9, 9)}},
		Pairs: []dataflow.Pair{
			{I: 0, J: 1, W: 2}, // block-terminal
			{I: 1, J: 2, W: 9}, // terminal-terminal
		},
	}
	var px pairIndex
	px.build(p)
	if len(px.pairs) != 1 || px.pairs[0].I != 0 || px.pairs[0].J != 1 {
		t.Errorf("pairs = %+v, want only block-terminal", px.pairs)
	}
}

// TestSolveDenseAffinity is the dense-input contract: a Problem that
// carries only the dense Affinity solves exactly as one that carries its
// nonzero upper-triangle entries as Pairs. Entries below the diagonal are
// never read, so an asymmetric matrix solves as its upper triangle.
func TestSolveDenseAffinity(t *testing.T) {
	p := benchProblem(9)
	n := len(p.Blocks) + len(p.Terminals)
	aff := make([][]float64, n)
	for i := range aff {
		aff[i] = make([]float64, n)
	}
	for _, pr := range p.Pairs {
		aff[pr.I][pr.J] = pr.W
		aff[pr.J][pr.I] = pr.W + 1 // lower triangle: ignored
	}
	dense := *p
	dense.Pairs, dense.Affinity = nil, aff
	opt := DefaultOptions()
	opt.Seed = 5
	opt.Effort = EffortLow
	want := Solve(context.Background(), p, opt)
	got := Solve(context.Background(), &dense, opt)
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Expr.String() != want.Expr.String() {
		t.Fatalf("dense affinity: cost %v expr %s, pairs: cost %v expr %s",
			got.Cost, got.Expr.String(), want.Cost, want.Expr.String())
	}
	if dense.Pairs != nil {
		t.Error("Solve wrote the converted pairs into the caller's Problem")
	}
}

// TestSolvePoolMatchesUnpooled is the Options.Pool contract: solving with a
// shared (and reused) evaluator pool returns exactly the solution of the
// pool-free path, across several problem sizes through the same pool.
func TestSolvePoolMatchesUnpooled(t *testing.T) {
	pool := &slicing.EvaluatorPool{}
	for _, nb := range []int{2, 7, 4, 12} {
		p := &Problem{Region: geom.RectXYWH(0, 0, 200_000, 160_000)}
		for i := 0; i < nb; i++ {
			w := int64(20_000 + 3_000*(i%5))
			h := int64(15_000 + 2_000*(i%4))
			p.Blocks = append(p.Blocks, BlockSpec{
				Name:  fmt.Sprintf("b%d", i),
				Block: slicing.Block{Curve: shape.FromBoxRotatable(w, h), MinArea: w * h, TargetArea: w * h * 3 / 2},
			})
		}
		p.Terminals = []Terminal{{Name: "t", Pos: geom.Pt(0, 0)}}
		for i := 0; i+1 < nb; i++ {
			p.Pairs = append(p.Pairs, dataflow.Pair{I: int32(i), J: int32(i + 1), W: 1 + float64(i)})
			if i == 0 {
				p.Pairs = append(p.Pairs, dataflow.Pair{I: 0, J: int32(nb), W: 2}) // block 0 pulled to the terminal
			}
		}

		opt := DefaultOptions()
		opt.Seed = int64(nb)
		plain := Solve(context.Background(), p, opt)
		opt.Pool = pool
		pooled := Solve(context.Background(), p, opt)

		if plain.Cost != pooled.Cost || plain.Penalty != pooled.Penalty || plain.Legal != pooled.Legal {
			t.Fatalf("nb=%d: pooled (%v %v %v) != plain (%v %v %v)",
				nb, pooled.Cost, pooled.Penalty, pooled.Legal, plain.Cost, plain.Penalty, plain.Legal)
		}
		for i := range plain.Rects {
			if plain.Rects[i] != pooled.Rects[i] {
				t.Fatalf("nb=%d: rect %d = %v, want %v", nb, i, pooled.Rects[i], plain.Rects[i])
			}
		}
	}
}

// TestDeltaCostMatchesFullRecompute is the differential contract of the
// delta wirecost: across 10k random accepted and rejected moves, the
// incrementally maintained sum must equal a from-scratch costState rebuild
// bit for bit (both fold the contribution array under the same fixed
// association), and track the plain left-to-right wirecost reference to
// within summation-order rounding.
func TestDeltaCostMatchesFullRecompute(t *testing.T) {
	p := benchProblem(14)
	nb := len(p.Blocks)
	blocks := make([]slicing.Block, nb)
	for i := range p.Blocks {
		blocks[i] = p.Blocks[i].Block
	}
	expr := slicing.NewBalanced(nb)
	inc := slicing.NewEvaluator(&expr, blocks, slicing.DefaultEvalParams())
	var cs, ref costState
	cs.init(p, nil)
	ev := inc.Eval(p.Region)
	sum := cs.rebuild(ev.Rects)

	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 10_000; step++ {
		inc.Perturb(rng)
		ev := inc.Eval(p.Region)
		sum = cs.update(ev.Rects, inc.Changed())
		ref.init(p, nil)
		want := ref.rebuild(ev.Rects)
		if sum != want {
			t.Fatalf("step %d: delta sum %v != full rebuild %v (bit mismatch)", step, sum, want)
		}
		plain := wirecost(ev, p) // penalty·(1+sum) with left-to-right fold
		got := ev.Penalty * (1 + sum)
		if diff := math.Abs(got - plain); diff > 1e-9*math.Abs(plain) {
			t.Fatalf("step %d: tree cost %v vs plain wirecost %v beyond rounding", step, got, plain)
		}
		if rng.Intn(2) == 0 {
			cs.undo()
			inc.Undo()
			ev2 := inc.Eval(p.Region)
			ref.init(p, nil)
			if got, want := cs.sum(), ref.rebuild(ev2.Rects); got != want {
				t.Fatalf("step %d: after undo, delta sum %v != full rebuild %v", step, got, want)
			}
		}
	}
}

// TestSolveRestartsDeterministicAcrossWorkers is the multi-start contract:
// a seeded Solve with Restarts=4 must return byte-identical results whether
// the chains run on the calling goroutine (Sched nil) or on a shared
// work-stealing pool of any width.
func TestSolveRestartsDeterministicAcrossWorkers(t *testing.T) {
	p := benchProblem(10)
	solve := func(workers int) *Result {
		opt := DefaultOptions()
		opt.Seed = 21
		opt.Effort = EffortLow
		opt.Restarts = 4
		if workers > 0 {
			pool := sched.NewPool(workers)
			defer pool.Close()
			opt.Sched = pool
		}
		return Solve(context.Background(), p, opt)
	}
	a := solve(0) // serial reference: no scheduler at all
	for _, w := range []int{1, 2, 4} {
		b := solve(w)
		if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) ||
			math.Float64bits(a.Penalty) != math.Float64bits(b.Penalty) ||
			a.Legal != b.Legal || a.Expr.String() != b.Expr.String() {
			t.Fatalf("workers=%d: result differs: cost %v/%v expr %s/%s",
				w, a.Cost, b.Cost, a.Expr.String(), b.Expr.String())
		}
		for i := range a.Rects {
			if a.Rects[i] != b.Rects[i] {
				t.Fatalf("workers=%d: rect %d = %v, want %v", w, i, b.Rects[i], a.Rects[i])
			}
		}
	}
}

// TestSolveRestartsNeverWorse pins the selection rule: chain 0 reproduces
// the single-chain run, so the best of K restarts can never cost more than
// Restarts=1 with the same seed.
func TestSolveRestartsNeverWorse(t *testing.T) {
	p := benchProblem(9)
	opt := DefaultOptions()
	opt.Seed = 8
	opt.Effort = EffortLow
	single := Solve(context.Background(), p, opt)
	opt.Restarts = 5
	multi := Solve(context.Background(), p, opt)
	if multi.Cost > single.Cost {
		t.Fatalf("restarts=5 cost %v worse than single-chain %v", multi.Cost, single.Cost)
	}
}

// wirecost is the reference form of Result.Cost: penalty · (1 + Σ dist ·
// affinity) with a plain left-to-right pair sweep. costState maintains the
// same sum under a fixed summation order instead; the two agree to within
// summation-order rounding.
func wirecost(ev *slicing.Eval, p *Problem) float64 {
	var px pairIndex
	px.build(p)
	nb := len(p.Blocks)
	pos := func(i int) geom.Point {
		if i < nb {
			return ev.Rects[i].Center()
		}
		return p.Terminals[i-nb].Pos
	}
	var sum float64
	for _, pr := range px.pairs {
		d := pos(int(pr.I)).ManhattanDist(pos(int(pr.J)))
		sum += float64(d) * pr.W
	}
	return ev.Penalty * (1 + sum)
}
