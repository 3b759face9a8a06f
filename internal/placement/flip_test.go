package placement

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

func TestFlipMacrosFacesPinToItsNet(t *testing.T) {
	d, _, m, _ := design(t)
	pin := d.Cell(m).Pins[0]
	for _, start := range []geom.Orient{geom.R0, geom.R0.FlipX(), geom.R0.FlipY(), geom.R0.FlipX().FlipY()} {
		p := New(d)
		p.PlaceOriented(m, geom.Pt(5000, 4500), start)
		p.FlipMacros([]netlist.CellID{m}, nil, nil, 1)
		// The net's other placed pin is the port at x=0: the best mirror
		// image keeps the macro pin on the west edge.
		if got := p.PinPos(pin).X; got != 5000 {
			t.Errorf("from %v: pin x = %d after flipping, want 5000 (orient %v)", start, got, p.Orient[m])
		}
		if p.Pos[m] != geom.Pt(5000, 4500) {
			t.Errorf("from %v: flipping moved the macro to %v", start, p.Pos[m])
		}
	}
}

// TestFlipMacrosScoresEachPinAgainstTheOthers pins the flipping rule for a
// macro with two pins on one net: each pin is scored against the net's
// other endpoints alone, not against the whole net's bounding box once per
// pin. On this design the two rules choose differently.
func TestFlipMacrosScoresEachPinAgainstTheOthers(t *testing.T) {
	b := netlist.NewBuilder("twopin")
	b.SetDie(geom.RectXYWH(0, 0, 400_000, 100_000))
	m := b.AddMacro("m", 20_000, 2_000, "")
	// Net n1 holds two macro pins (x offsets 10k and 18k) and two ports
	// above the macro's x span at offsets 8k and 16k; net n2 holds one
	// macro pin (x offset 13k) and a port far to the west. Every pin and
	// port sits at the macro's mid height, so only mirroring x matters.
	const x0, y0 = 200_000, 50_000
	n1, n2 := b.Net("n1"), b.Net("n2")
	for i, pp := range []struct {
		x   int64
		net netlist.NetID
		dir netlist.PinDir
	}{{x0 + 8_000, n1, netlist.DirOut}, {x0 + 16_000, n1, netlist.DirIn}, {0, n2, netlist.DirOut}} {
		p := b.AddPort(string(rune('a' + i)))
		b.SetPortPos(p, geom.Pt(pp.x, y0+1_000))
		b.Connect(p, pp.net, pp.dir)
	}
	b.ConnectAt(m, n1, netlist.DirIn, geom.Pt(10_000, 1_000))
	b.ConnectAt(m, n1, netlist.DirIn, geom.Pt(18_000, 1_000))
	c := b.ConnectAt(m, n2, netlist.DirIn, geom.Pt(13_000, 1_000))
	d := b.MustBuild()

	// Per pin against the other endpoints, mirroring costs n1 4k more and
	// saves n2 6k: flip. The whole-net HPWL counted once per pin doubles
	// n1's 4k: keep.
	wholeNetPerPin := func(p *Placement) int64 {
		var sum int64
		for _, pid := range d.Cell(m).Pins {
			sum += p.NetHPWL(d.Pin(pid).Net)
		}
		return sum
	}
	kept, flipped := New(d), New(d)
	kept.Place(m, geom.Pt(x0, y0))
	flipped.PlaceOriented(m, geom.Pt(x0, y0), geom.R0.FlipY())
	if a, b := wholeNetPerPin(kept), wholeNetPerPin(flipped); a >= b {
		t.Fatalf("whole-net rule: R0 %d, mirrored %d; the design no longer separates the rules", a, b)
	}

	p := New(d)
	p.Place(m, geom.Pt(x0, y0))
	if flips := p.FlipMacros([]netlist.CellID{m}, nil, nil, 1); flips != 1 {
		t.Fatalf("flips = %d, want 1", flips)
	}
	if got := p.PinPos(c).X; got != x0+7_000 {
		t.Errorf("n2 pin x = %d, want %d (mirrored to the west)", got, x0+7_000)
	}
	if p.Pos[m] != geom.Pt(x0, y0) {
		t.Errorf("flipping moved the macro to %v", p.Pos[m])
	}
}
