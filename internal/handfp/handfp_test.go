package handfp

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

func design(t testing.TB) (*netlist.Design, Intent) {
	b := netlist.NewBuilder("hd")
	b.SetDie(geom.RectXYWH(0, 0, 100_000, 100_000))
	intent := Intent{}
	var prev netlist.CellID = netlist.None
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("m%d", i)
		m := b.AddMacro(name, 20_000, 10_000, "")
		intent[name] = geom.RectXYWH(int64(i)*22_000, 0, 20_000, 10_000)
		if prev != netlist.None {
			b.Wire(fmt.Sprintf("n%d", i), prev, m)
		}
		prev = m
	}
	return b.MustBuild(), intent
}

func TestPlaceHonorsIntent(t *testing.T) {
	d, intent := design(t)
	pl, err := Place(context.Background(), d, intent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Refinement slides are local: macros stay within a quarter-die of
	// their intended spot.
	for _, m := range d.Macros() {
		name := d.Cell(m).Name
		want := intent[name].Center()
		got := pl.Center(m)
		if got.ManhattanDist(want) > d.Die.W/2 {
			t.Errorf("%s drifted from intent: %v vs %v", name, got, want)
		}
	}
	if ov := pl.MacroOverlapArea(); ov != 0 {
		t.Errorf("overlap = %d", ov)
	}
	if err := pl.MacrosInsideDie(); err != nil {
		t.Error(err)
	}
}

func TestPlaceRotatedIntent(t *testing.T) {
	d, intent := design(t)
	// Rotate m3's intent: 10000x20000.
	intent["m3"] = geom.RectXYWH(0, 50_000, 10_000, 20_000)
	pl, err := Place(context.Background(), d, intent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m3 := d.CellByName("m3")
	r := pl.Rect(m3)
	if r.W != 10_000 || r.H != 20_000 {
		t.Errorf("m3 outline = %v, want rotated 10000x20000", r)
	}
	// The flipping pass may compose mirrors onto the rotation; any
	// orientation with a swapped outline realizes the rotated intent.
	if !pl.Orient[m3].Swapped() {
		t.Errorf("m3 orient = %v, want a 90-degree family orientation", pl.Orient[m3])
	}
}

func TestPlaceMissingIntentFails(t *testing.T) {
	d, intent := design(t)
	delete(intent, "m2")
	if _, err := Place(context.Background(), d, intent, Options{}); err == nil {
		t.Error("expected error for missing intent")
	}
}

func TestRefineImprovesOrKeepsWL(t *testing.T) {
	d, intent := design(t)
	pinned, err := pinIntent(d, intent)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Place(context.Background(), d, intent, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if refined.TotalHPWL() > pinned.TotalHPWL() {
		t.Errorf("refinement regressed WL: %d -> %d", pinned.TotalHPWL(), refined.TotalHPWL())
	}
}

func TestPlaceDeterministic(t *testing.T) {
	d, intent := design(t)
	a, _ := Place(context.Background(), d, intent, Options{})
	b, _ := Place(context.Background(), d, intent, Options{})
	for _, m := range d.Macros() {
		if a.Pos[m] != b.Pos[m] || a.Orient[m] != b.Orient[m] {
			t.Fatal("nondeterministic")
		}
	}
}
