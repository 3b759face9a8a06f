package place

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// anchored builds a design with two fixed macros at opposite corners and two
// groups of cells, each group wired exclusively to one macro.
func anchored(t testing.TB) (*netlist.Design, *placement.Placement, []netlist.CellID, []netlist.CellID) {
	b := netlist.NewBuilder("anch")
	b.SetDie(geom.RectXYWH(0, 0, 100_000, 100_000))
	mA := b.AddMacro("mA", 10_000, 10_000, "")
	mB := b.AddMacro("mB", 10_000, 10_000, "")
	var ga, gb []netlist.CellID
	for i := 0; i < 40; i++ {
		a := b.AddComb(fmt.Sprintf("a%d", i), 20_000, "")
		ga = append(ga, a)
		b.Wire(fmt.Sprintf("na%d", i), mA, a)
		c := b.AddComb(fmt.Sprintf("b%d", i), 20_000, "")
		gb = append(gb, c)
		b.Wire(fmt.Sprintf("nb%d", i), mB, c)
	}
	d := b.MustBuild()
	pl := placement.New(d)
	pl.Place(mA, geom.Pt(0, 0))
	pl.Place(mB, geom.Pt(90_000, 90_000))
	return d, pl, ga, gb
}

func TestRunRequiresMacros(t *testing.T) {
	b := netlist.NewBuilder("x")
	b.AddMacro("m", 100, 100, "")
	b.AddComb("c", 100, "")
	d := b.MustBuild()
	pl := placement.New(d)
	if err := Run(context.Background(), pl, DefaultOptions()); err == nil {
		t.Error("expected error with unplaced macro")
	}
}

func TestRunPlacesEverything(t *testing.T) {
	_, pl, _, _ := anchored(t)
	if err := Run(context.Background(), pl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range pl.D.Cells {
		if !pl.Placed[i] {
			t.Fatalf("cell %s unplaced", pl.D.Cells[i].Name)
		}
	}
}

func TestRunPullsCellsToAnchors(t *testing.T) {
	d, pl, ga, gb := anchored(t)
	if err := Run(context.Background(), pl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	mA := d.CellByName("mA")
	mB := d.CellByName("mB")
	cA := pl.Center(mA)
	cB := pl.Center(mB)
	// Every a-cell must be closer to mA than to mB, and vice versa.
	misplacedA, misplacedB := 0, 0
	for _, id := range ga {
		c := pl.Center(id)
		if c.ManhattanDist(cA) > c.ManhattanDist(cB) {
			misplacedA++
		}
	}
	for _, id := range gb {
		c := pl.Center(id)
		if c.ManhattanDist(cB) > c.ManhattanDist(cA) {
			misplacedB++
		}
	}
	if misplacedA > 0 || misplacedB > 0 {
		t.Errorf("misplaced cells: %d near-A cells, %d near-B cells", misplacedA, misplacedB)
	}
}

func TestRunKeepsCellsInDie(t *testing.T) {
	d, pl, _, _ := anchored(t)
	if err := Run(context.Background(), pl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range d.Cells {
		id := netlist.CellID(i)
		if d.Cells[i].Kind == netlist.KindPort {
			continue
		}
		if !d.Die.ContainsRect(pl.Rect(id)) {
			t.Fatalf("cell %s at %v outside die", d.Cells[i].Name, pl.Rect(id))
		}
	}
}

func TestRunEvictsFromMacros(t *testing.T) {
	d, pl, _, _ := anchored(t)
	if err := Run(context.Background(), pl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	macros := []geom.Rect{}
	for _, m := range d.Macros() {
		macros = append(macros, pl.Rect(m))
	}
	inside := 0
	for i := range d.Cells {
		id := netlist.CellID(i)
		switch d.Cells[i].Kind {
		case netlist.KindComb, netlist.KindFlop:
			c := pl.Center(id)
			for _, mr := range macros {
				if mr.Contains(c) {
					inside++
				}
			}
		}
	}
	if inside > 0 {
		t.Errorf("%d cell centers sit on macros", inside)
	}
}

func TestRunDeterministic(t *testing.T) {
	_, pl1, _, _ := anchored(t)
	_, pl2, _, _ := anchored(t)
	if err := Run(context.Background(), pl1, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), pl2, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range pl1.Pos {
		if pl1.Pos[i] != pl2.Pos[i] {
			t.Fatalf("cell %d nondeterministic: %v vs %v", i, pl1.Pos[i], pl2.Pos[i])
		}
	}
}

func TestSpreadRelievesDensity(t *testing.T) {
	// All cells wired to one central macro: without spreading they would
	// collapse onto it; spreading must pull bin peaks below ~3x target.
	b := netlist.NewBuilder("dense")
	b.SetDie(geom.RectXYWH(0, 0, 50_000, 50_000))
	m := b.AddMacro("m", 5_000, 5_000, "")
	for i := 0; i < 200; i++ {
		c := b.AddComb(fmt.Sprintf("c%d", i), 100_000, "")
		b.Wire(fmt.Sprintf("n%d", i), m, c)
	}
	d := b.MustBuild()
	pl := placement.New(d)
	pl.Place(m, geom.Pt(22_500, 22_500))
	if err := Run(context.Background(), pl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Count distinct cell center positions: heavy collapse would leave
	// only a handful.
	distinct := map[geom.Point]bool{}
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.KindComb {
			distinct[pl.Center(netlist.CellID(i))] = true
		}
	}
	if len(distinct) < 20 {
		t.Errorf("cells collapsed to %d positions; spreading ineffective", len(distinct))
	}
}
