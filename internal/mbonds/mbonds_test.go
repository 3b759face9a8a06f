package mbonds

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// chainWithPort builds m0 -> reg -> m1 -> reg -> m2 and a port feeding m0.
func chainWithPort(t testing.TB, width int) (*netlist.Design, []netlist.CellID) {
	t.Helper()
	b := netlist.NewBuilder("mb")
	b.SetDie(geom.RectXYWH(0, 0, 100_000, 100_000))
	var macros []netlist.CellID
	for i := 0; i < 3; i++ {
		macros = append(macros, b.AddMacro(fmt.Sprintf("m%d", i), 10_000, 10_000, ""))
	}
	// Port -> comb -> reg -> m0.
	for bit := 0; bit < width; bit++ {
		p := b.AddPort(fmt.Sprintf("in[%d]", bit))
		b.SetPortPos(p, geom.Pt(0, int64(bit)*1000))
		r := b.AddFlop(fmt.Sprintf("pr[%d]", bit), "")
		b.Wire(fmt.Sprintf("pn%d", bit), p, r)
		b.Wire(fmt.Sprintf("pm%d", bit), r, macros[0])
	}
	// m0 -> reg -> m1 -> reg -> m2 (width bits each).
	for hop := 0; hop < 2; hop++ {
		for bit := 0; bit < width; bit++ {
			r := b.AddFlop(fmt.Sprintf("h%d[%d]", hop, bit), "")
			b.Wire(fmt.Sprintf("ha%d_%d", hop, bit), macros[hop], r)
			b.Wire(fmt.Sprintf("hb%d_%d", hop, bit), r, macros[hop+1])
		}
	}
	return b.MustBuild(), macros
}

func TestExtractFindsChain(t *testing.T) {
	d, macros := chainWithPort(t, 8)
	bonds := Extract(d)
	byPair := map[[2]netlist.CellID]float64{}
	portBonds := 0
	for _, bo := range bonds {
		if bo.B == netlist.None {
			portBonds++
			continue
		}
		byPair[[2]netlist.CellID{bo.A, bo.B}] += bo.W
	}
	if w := byPair[[2]netlist.CellID{macros[0], macros[1]}]; w < 8 {
		t.Errorf("m0-m1 bond = %v, want >= 8 bits", w)
	}
	if w := byPair[[2]netlist.CellID{macros[1], macros[2]}]; w < 8 {
		t.Errorf("m1-m2 bond = %v, want >= 8 bits", w)
	}
	if portBonds == 0 {
		t.Error("no port bonds extracted")
	}
}

// pipeline builds m0 -> stages 4-bit register stages -> m1, a path of
// stages+1 sequential hops between the two macros.
func pipeline(t testing.TB, stages int) (*netlist.Design, []netlist.CellID) {
	t.Helper()
	b := netlist.NewBuilder("pipe")
	b.SetDie(geom.RectXYWH(0, 0, 100_000, 100_000))
	macros := []netlist.CellID{
		b.AddMacro("m0", 10_000, 10_000, ""),
		b.AddMacro("m1", 10_000, 10_000, ""),
	}
	for bit := 0; bit < 4; bit++ {
		prev := macros[0]
		for s := 0; s < stages; s++ {
			r := b.AddFlop(fmt.Sprintf("s%d[%d]", s, bit), "")
			b.Wire(fmt.Sprintf("n%d_%d", s, bit), prev, r)
			prev = r
		}
		b.Wire(fmt.Sprintf("n%d_%d", stages, bit), prev, macros[1])
	}
	return b.MustBuild(), macros
}

func TestExtractHopLimit(t *testing.T) {
	// The hop budget is 4: macros 4 hops apart (3 register stages) bond,
	// macros 5 hops apart (4 stages) do not.
	for _, tc := range []struct {
		stages int
		bond   bool
	}{{3, true}, {4, false}} {
		d, macros := pipeline(t, tc.stages)
		found := false
		for _, bo := range Extract(d) {
			if bo.A == macros[0] && bo.B == macros[1] {
				found = true
			}
		}
		if found != tc.bond {
			t.Errorf("%d register stages: m0-m1 bond found = %v, want %v", tc.stages, found, tc.bond)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	d, _ := chainWithPort(t, 4)
	a := Extract(d)
	b := Extract(d)
	if len(a) != len(b) {
		t.Fatal("bond count differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bond %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWLRespondsToDistance(t *testing.T) {
	d, macros := chainWithPort(t, 4)
	bonds := Extract(d)
	near := placement.New(d)
	far := placement.New(d)
	for i, m := range macros {
		near.Place(m, geom.Pt(int64(i)*12_000, 0))
		far.Place(m, geom.Pt(int64(i)*45_000, int64(i%2)*80_000))
	}
	if WL(near, bonds) >= WL(far, bonds) {
		t.Errorf("near WL %v >= far WL %v", WL(near, bonds), WL(far, bonds))
	}
}
