package mbonds

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/geom"
	"repro/internal/placement"
)

// TestRefineAllocs pins the refinement anneal's step, one Propose plus its
// Undo, at zero steady-state allocations, with every move kind drawn.
func TestRefineAllocs(t *testing.T) {
	d, macros := chainWithPort(t, 8)
	pl := placement.New(d)
	for i, m := range macros {
		pl.Place(m, geom.Pt(int64(i)*20_000, 40_000))
	}
	rf := newRefiner(pl, macros, Extract(d), RefineParams{
		OverlapW: 1, Step: 5_000, Slides: 2, WallW: 0.5,
	})
	rf.Cost()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		rf.Propose(rng)
		rf.Undo()
	}
	if avg := testing.AllocsPerRun(400, func() {
		rf.Propose(rng)
		rf.Undo()
	}); avg != 0 {
		t.Fatalf("Propose+Undo allocates %.2f objects/run, want 0", avg)
	}
}

// TestRefineKeepsOrientationsAndReducesCost checks that the anneal lowers
// the bond cost of a spread-out chain without touching any orientation.
func TestRefineKeepsOrientationsAndReducesCost(t *testing.T) {
	d, macros := chainWithPort(t, 8)
	bonds := Extract(d)
	pl := placement.New(d)
	for i, m := range macros {
		pl.PlaceOriented(m, geom.Pt(int64(i)*40_000, int64(i%2)*80_000), geom.MX)
	}
	p := RefineParams{OverlapW: 1, Step: 10_000, Slides: 3}
	before := newRefiner(pl, macros, bonds, p).Cost()
	Refine(context.Background(), pl, macros, bonds, p, anneal.Options{Seed: 1, MovesPerRound: 32, MaxRounds: 40})
	if after := newRefiner(pl, macros, bonds, p).Cost(); after >= before {
		t.Errorf("refinement cost %v -> %v, want lower", before, after)
	}
	for _, m := range macros {
		if pl.Orient[m] != geom.MX {
			t.Errorf("macro %d orientation %v, want MX kept", m, pl.Orient[m])
		}
		if !d.Die.ContainsRect(pl.Rect(m)) {
			t.Errorf("macro %d at %v escapes the die", m, pl.Rect(m))
		}
	}
}
