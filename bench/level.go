package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/shape"
	"repro/internal/slicing"
)

// solveMS is the median wall time of layout.Solve on a fixed synthetic
// level of n blocks at medium effort, serially, with warm scratch.
func solveMS(ctx context.Context, n int, seed int64) float64 {
	p := levelProblem(n)
	opt := layout.DefaultOptions()
	opt.Seed = sched.Derive(seed, streamLayout, int64(n))
	opt.Pool = &slicing.EvaluatorPool{}
	layout.Solve(ctx, p, opt)
	var ms []float64
	for k := 0; k < 21; k++ {
		t0 := time.Now()
		layout.Solve(ctx, p, opt)
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms)
}

// levelProblem is the level hidap-bench -sched-bench solves: n mixed
// macro/soft blocks on a sparse affinity ring plus two corner terminals,
// the shape of a real HiDaP level.
func levelProblem(n int) *layout.Problem {
	rng := rand.New(rand.NewSource(99))
	blocks := make([]layout.BlockSpec, n)
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
		blocks[i] = layout.BlockSpec{Block: b}
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
	return &layout.Problem{
		Region: geom.RectXYWH(0, 0, 1500, 1200),
		Blocks: blocks,
		Terminals: []layout.Terminal{
			{Name: "sw", Pos: geom.Pt(0, 0)},
			{Name: "ne", Pos: geom.Pt(1500, 1200)},
		},
		Affinity: aff,
	}
}
