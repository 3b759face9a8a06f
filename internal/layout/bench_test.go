package layout

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/shape"
	"repro/internal/slicing"
)

// benchProblem builds a mixed macro/soft level of n blocks with a sparse
// affinity ring plus two corner terminals — the shape of a real HiDaP level.
// The ring is drawn as a dense matrix, the benchmark module's level problem
// (bench/level.go) draws it, and handed over as its pairs.
func benchProblem(n int) *Problem {
	rng := rand.New(rand.NewSource(99))
	blocks := make([]BlockSpec, n)
	for i := range blocks {
		at := int64(40_000 + rng.Intn(60_000))
		b := slicing.Block{TargetArea: at, MinArea: at / 2}
		if i%3 == 0 {
			w := int64(100 + rng.Intn(150))
			h := int64(80 + rng.Intn(120))
			b.Curve = shape.FromBoxRotatable(w, h)
			b.MinArea = w * h
			b.TargetArea = w * h * 3 / 2
		}
		blocks[i] = BlockSpec{Block: b}
	}
	aff := make([][]float64, n+2)
	for i := range aff {
		aff[i] = make([]float64, n+2)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		aff[i][j], aff[j][i] = float64(1+rng.Intn(20)), float64(1+rng.Intn(20))
	}
	aff[0][n], aff[n][0] = 30, 30
	aff[n-1][n+1], aff[n+1][n-1] = 30, 30
	return &Problem{
		Region: geom.RectXYWH(0, 0, 1500, 1200),
		Blocks: blocks,
		Terminals: []Terminal{
			{Name: "sw", Pos: geom.Pt(0, 0)},
			{Name: "ne", Pos: geom.Pt(1500, 1200)},
		},
		Pairs: densePairs(aff, n+2),
	}
}

// BenchmarkLayoutSolve anneals one medium-effort level end to end — the
// hot path of HiDaP layout generation.
func BenchmarkLayoutSolve(b *testing.B) {
	p := benchProblem(12)
	opt := DefaultOptions()
	opt.Seed = 7
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Solve(context.Background(), p, opt)
		if len(r.Rects) != len(p.Blocks) {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkLayoutSolve24 is the same level at twice the block count, where
// the incremental assign and delta wirecost pay for themselves: each move
// touches O(depth + degree) state instead of the whole level.
func BenchmarkLayoutSolve24(b *testing.B) {
	p := benchProblem(24)
	opt := DefaultOptions()
	opt.Seed = 7
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Solve(context.Background(), p, opt)
		if len(r.Rects) != len(p.Blocks) {
			b.Fatal("bad result")
		}
	}
}
