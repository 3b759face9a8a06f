package indeda

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// paperOptions is the paper's setup, as the flows run it.
var paperOptions = Options{HighEffort: true, WallWeight: 0.4}

func wallDesign(t testing.TB) *netlist.Design {
	b := netlist.NewBuilder("wd")
	b.SetDie(geom.RectXYWH(0, 0, 200_000, 200_000))
	var prev netlist.CellID = netlist.None
	for i := 0; i < 8; i++ {
		m := b.AddMacro(fmt.Sprintf("m%d", i), 30_000, 20_000, "")
		if prev != netlist.None {
			b.Wire(fmt.Sprintf("n%d", i), prev, m)
		}
		prev = m
	}
	p := b.AddPort("in")
	b.SetPortPos(p, geom.Pt(0, 100_000))
	b.Wire("np", p, netlist.CellID(0))
	for i := 0; i < 50; i++ {
		b.AddComb(fmt.Sprintf("c%d", i), 1_000_000, "")
	}
	return b.MustBuild()
}

func TestPlaceLegal(t *testing.T) {
	d := wallDesign(t)
	pl, err := Place(context.Background(), d, paperOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.AllMacrosPlaced() {
		t.Fatal("macros unplaced")
	}
	if ov := pl.MacroOverlapArea(); ov != 0 {
		t.Errorf("overlap = %d", ov)
	}
	if err := pl.MacrosInsideDie(); err != nil {
		t.Error(err)
	}
}

func TestPlacePrefersWalls(t *testing.T) {
	d := wallDesign(t)
	pl, err := Place(context.Background(), d, paperOptions)
	if err != nil {
		t.Fatal(err)
	}
	// The industrial-style baseline should leave most macros near a die
	// edge (within 15% of the span).
	die := d.Die
	margin := die.W * 15 / 100
	nearWall := 0
	for _, m := range d.Macros() {
		r := pl.Rect(m)
		if r.X-die.X < margin || die.X2()-r.X2() < margin ||
			r.Y-die.Y < margin || die.Y2()-r.Y2() < margin {
			nearWall++
		}
	}
	if nearWall < 6 {
		t.Errorf("only %d of 8 macros near walls", nearWall)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	d := wallDesign(t)
	a, err := Place(context.Background(), d, Options{Seed: 3, HighEffort: false, WallWeight: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(context.Background(), d, Options{Seed: 3, HighEffort: false, WallWeight: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Macros() {
		if a.Pos[m] != b.Pos[m] {
			t.Fatalf("macro %d nondeterministic", m)
		}
	}
}

func TestPlaceNoMacros(t *testing.T) {
	b := netlist.NewBuilder("empty")
	b.AddComb("c", 100, "")
	d := b.MustBuild()
	pl, err := Place(context.Background(), d, paperOptions)
	if err != nil || pl == nil {
		t.Fatalf("macro-free design should succeed: %v", err)
	}
}

func TestConnectivityPullsChainTogether(t *testing.T) {
	// Macro chain m0-m1-...-m7: the annealer should keep consecutive
	// macros closer on average than random pairs.
	d := wallDesign(t)
	pl, err := Place(context.Background(), d, paperOptions)
	if err != nil {
		t.Fatal(err)
	}
	macros := d.Macros()
	var adjSum, allSum float64
	adjN, allN := 0, 0
	for i := range macros {
		for j := i + 1; j < len(macros); j++ {
			dist := float64(pl.Center(macros[i]).ManhattanDist(pl.Center(macros[j])))
			if j == i+1 {
				adjSum += dist
				adjN++
			}
			allSum += dist
			allN++
		}
	}
	if adjSum/float64(adjN) >= allSum/float64(allN) {
		t.Errorf("adjacent macros (%v) not closer than average pair (%v)",
			adjSum/float64(adjN), allSum/float64(allN))
	}
}
