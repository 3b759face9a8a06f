package place_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/circuits"
	"repro/internal/handfp"
	"repro/internal/indeda"
	"repro/internal/place"
	"repro/internal/placement"
)

// cellsGolden is the sha256 of every cell's position after place.Run with
// DefaultOptions on the placements listed in TestCellPlacementGolden. The
// macro goldens (TestFlowsGolden, TestPlaceGolden) hash only macros; this one
// pins the standard-cell placer. Update it only for a deliberate behaviour
// change.
const cellsGolden = "5888a311cb0cfd59b700c2b5a7a46c7564b868dd890fc749ed1c1fee844caf20"

// macroPlaced returns suite circuit name at the given scale with its macros
// placed by flow ("handfp" or "indeda") at seed 1, as the table_suite
// benchmark places them before running the cell placer.
func macroPlaced(tb testing.TB, name string, scale int, flow string) *placement.Placement {
	tb.Helper()
	spec, err := circuits.SuiteSpec(name)
	if err != nil {
		tb.Fatal(err)
	}
	spec.Scale = scale
	g := circuits.Generate(spec)
	ctx := context.Background()
	var pl *placement.Placement
	switch flow {
	case "handfp":
		pl, err = handfp.Place(ctx, g.Design, g.Intent, handfp.Options{Seed: 1})
	case "indeda":
		pl, err = indeda.Place(ctx, g.Design, indeda.Options{Seed: 1, HighEffort: true, WallWeight: 0.4})
	default:
		tb.Fatalf("unknown flow %q", flow)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return pl
}

func TestCellPlacementGolden(t *testing.T) {
	cases := []struct {
		circuit string
		scale   int
		flow    string
	}{
		{"c1", 100, "handfp"},
		{"c1", 100, "indeda"},
		{"c8", 100, "handfp"},
		{"c8", 100, "indeda"},
		{"c1", 2000, "handfp"},
	}
	h := sha256.New()
	for _, tc := range cases {
		pl := macroPlaced(t, tc.circuit, tc.scale, tc.flow)
		if err := place.Run(context.Background(), pl, place.DefaultOptions()); err != nil {
			t.Fatalf("%s/%d/%s: %v", tc.circuit, tc.scale, tc.flow, err)
		}
		fmt.Fprintf(h, "%s %d %s\n", tc.circuit, tc.scale, tc.flow)
		var buf [16]byte
		for _, p := range pl.Pos {
			binary.LittleEndian.PutUint64(buf[:8], uint64(p.X))
			binary.LittleEndian.PutUint64(buf[8:], uint64(p.Y))
			h.Write(buf[:])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != cellsGolden {
		t.Fatalf("cell placements sha256 = %s, want %s", got, cellsGolden)
	}
}

// TestRunAllocs checks that the placer's scratch is allocated once per Run,
// not per solve/spread round: doubling the rounds may not add a single
// allocation to a Run.
func TestRunAllocs(t *testing.T) {
	pl := macroPlaced(t, "c8", 100, "handfp")
	allocs := func(iterations int) float64 {
		opt := place.DefaultOptions()
		opt.Iterations = iterations
		return testing.AllocsPerRun(2, func() {
			if err := place.Run(context.Background(), pl, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	six, twelve := allocs(6), allocs(12)
	t.Logf("allocs per Run: %.0f at 6 iterations, %.0f at 12", six, twelve)
	if twelve > six {
		t.Errorf("allocs per Run grow with iterations: %.0f at 12 > %.0f at 6", twelve, six)
	}
}

// BenchmarkRun places the cells of suite circuits c8 and c1 at scale 100
// around their handFP macro placements. Run resets every movable cell, so one
// placement is reused across iterations. c1's macros leave many overfull bins
// ringed by full or blocked ones, so it leans on the spare-bin search more
// than c8 does.
func BenchmarkRun(b *testing.B) {
	for _, circuit := range []string{"c8", "c1"} {
		b.Run(circuit, func(b *testing.B) {
			pl := macroPlaced(b, circuit, 100, "handfp")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := place.Run(context.Background(), pl, place.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
