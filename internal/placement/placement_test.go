package placement

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

func design(t *testing.T) (*netlist.Design, netlist.CellID, netlist.CellID, netlist.CellID) {
	t.Helper()
	b := netlist.NewBuilder("p")
	b.SetDie(geom.RectXYWH(0, 0, 10000, 10000))
	in := b.AddPort("in")
	b.SetPortPos(in, geom.Pt(0, 5000))
	m := b.AddMacro("m", 2000, 1000, "")
	c := b.AddComb("c", 500, "")
	n := b.Net("n")
	b.Connect(in, n, netlist.DirOut)
	b.ConnectAt(m, n, netlist.DirIn, geom.Pt(0, 500)) // pin on macro west edge
	b.Connect(c, n, netlist.DirIn)
	return b.MustBuild(), in, m, c
}

func TestNewPinsPorts(t *testing.T) {
	d, in, _, _ := design(t)
	p := New(d)
	if !p.Placed[in] {
		t.Fatal("port not auto-placed")
	}
	if p.Pos[in] != geom.Pt(0, 5000) {
		t.Errorf("port pos = %v", p.Pos[in])
	}
}

func TestRectAndCenter(t *testing.T) {
	d, _, m, _ := design(t)
	p := New(d)
	p.Place(m, geom.Pt(100, 200))
	r := p.Rect(m)
	if r != geom.RectXYWH(100, 200, 2000, 1000) {
		t.Errorf("Rect = %v", r)
	}
	if p.Center(m) != geom.Pt(1100, 700) {
		t.Errorf("Center = %v", p.Center(m))
	}
}

func TestOrientedRectSwapsDims(t *testing.T) {
	d, _, m, _ := design(t)
	p := New(d)
	p.PlaceOriented(m, geom.Pt(0, 0), geom.R90)
	r := p.Rect(m)
	if r.W != 1000 || r.H != 2000 {
		t.Errorf("R90 outline = %v, want 1000x2000", r)
	}
}

func TestPinPosOrientation(t *testing.T) {
	d, _, m, _ := design(t)
	p := New(d)
	// Pin offset (0, 500) in a 2000x1000 macro.
	p.Place(m, geom.Pt(100, 100))
	var pid netlist.PinID = -1
	for _, q := range d.Cell(m).Pins {
		pid = q
	}
	if got := p.PinPos(pid); got != geom.Pt(100, 600) {
		t.Errorf("R0 pin = %v, want (100,600)", got)
	}
	// MY mirrors left-right: x offset becomes 2000-0 = 2000.
	p.PlaceOriented(m, geom.Pt(100, 100), geom.MY)
	if got := p.PinPos(pid); got != geom.Pt(2100, 600) {
		t.Errorf("MY pin = %v, want (2100,600)", got)
	}
	// MX mirrors top-bottom: y offset becomes 1000-500 = 500 (same here).
	p.PlaceOriented(m, geom.Pt(100, 100), geom.MX)
	if got := p.PinPos(pid); got != geom.Pt(100, 600) {
		t.Errorf("MX pin = %v, want (100,600)", got)
	}
}

func TestNetHPWL(t *testing.T) {
	d, _, m, c := design(t)
	p := New(d)
	p.Place(m, geom.Pt(1000, 0)) // pin at (1000, 500)
	p.Place(c, geom.Pt(500, 500))
	// Pins: port (0,5000), macro pin (1000,500), comb (500,500).
	want := int64((1000 - 0) + (5000 - 500))
	if got := p.NetHPWL(0); got != want {
		t.Errorf("NetHPWL = %d, want %d", got, want)
	}
	if got := p.TotalHPWL(); got != want {
		t.Errorf("TotalHPWL = %d, want %d", got, want)
	}
}

func TestHPWLSkipsUnplaced(t *testing.T) {
	d, _, m, _ := design(t)
	p := New(d)
	p.Place(m, geom.Pt(1000, 0))
	// Port placed + macro placed = 2 pins; comb unplaced and skipped.
	if got := p.NetHPWL(0); got != 1000+4500 {
		t.Errorf("NetHPWL = %d", got)
	}
}

func TestMacroOverlap(t *testing.T) {
	b := netlist.NewBuilder("ov")
	b.SetDie(geom.RectXYWH(0, 0, 10000, 10000))
	m1 := b.AddMacro("m1", 1000, 1000, "")
	m2 := b.AddMacro("m2", 1000, 1000, "")
	d := b.MustBuild()
	p := New(d)
	p.Place(m1, geom.Pt(0, 0))
	p.Place(m2, geom.Pt(500, 500))
	if got := p.MacroOverlapArea(); got != 500*500 {
		t.Errorf("overlap = %d, want 250000", got)
	}
	p.Place(m2, geom.Pt(1000, 0))
	if got := p.MacroOverlapArea(); got != 0 {
		t.Errorf("overlap = %d, want 0", got)
	}
}

func TestMacrosInsideDie(t *testing.T) {
	d, _, m, _ := design(t)
	p := New(d)
	p.Place(m, geom.Pt(9000, 0)) // 2000 wide: escapes the 10000 die
	if err := p.MacrosInsideDie(); err == nil {
		t.Error("expected die violation")
	}
	p.Place(m, geom.Pt(8000, 0))
	if err := p.MacrosInsideDie(); err != nil {
		t.Errorf("unexpected: %v", err)
	}
}

func TestAllMacrosPlaced(t *testing.T) {
	d, _, m, _ := design(t)
	p := New(d)
	if p.AllMacrosPlaced() {
		t.Error("macro not yet placed")
	}
	p.Place(m, geom.Pt(0, 0))
	if !p.AllMacrosPlaced() {
		t.Error("macro placed but not reported")
	}
}

func TestClone(t *testing.T) {
	d, _, m, _ := design(t)
	p := New(d)
	p.Place(m, geom.Pt(1, 2))
	q := p.Clone()
	q.Place(m, geom.Pt(9, 9))
	if p.Pos[m] != geom.Pt(1, 2) {
		t.Error("clone aliases original")
	}
}
