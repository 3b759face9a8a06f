package route_test

import (
	"context"
	"testing"

	"repro/circuits"
	"repro/internal/handfp"
	"repro/internal/place"
	"repro/internal/route"
)

// estimateSink keeps BenchmarkEstimate's result live.
var estimateSink *route.Result

// BenchmarkEstimate runs the congestion model on suite circuit c8 at scale
// 100 with handFP macros and placed cells, the placement a Table III row
// evaluates.
func BenchmarkEstimate(b *testing.B) {
	spec, err := circuits.SuiteSpec("c8")
	if err != nil {
		b.Fatal(err)
	}
	spec.Scale = 100
	g := circuits.Generate(spec)
	ctx := context.Background()
	pl, err := handfp.Place(ctx, g.Design, g.Intent, handfp.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := place.Run(ctx, pl, place.DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimateSink = route.Estimate(pl, route.DefaultOptions())
	}
}
