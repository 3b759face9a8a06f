package netlist

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// buildTiny constructs a small design used by several tests:
//
//	port in -> comb g1 -> flop r[0], r[1] -> macro m1 (in sub "u")
func buildTiny(t *testing.T) *Design {
	t.Helper()
	b := NewBuilder("tiny")
	b.SetDie(geom.RectXYWH(0, 0, 10000, 10000))
	in := b.AddPort("in")
	g1 := b.AddComb("g1", 500, "")
	r0 := b.AddFlop("u/r[0]", "u")
	r1 := b.AddFlop("u/r[1]", "u")
	m1 := b.AddMacro("u/m1", 2000, 1000, "u")
	b.Wire("n_in", in, g1)
	b.Wire("n_g1", g1, r0, r1)
	b.Wire("n_r0", r0, m1)
	b.Wire("n_r1", r1, m1)
	d, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestBuilderBasics(t *testing.T) {
	d := buildTiny(t)
	if d.NumCells() != 5 {
		t.Errorf("NumCells = %d, want 5", d.NumCells())
	}
	if len(d.Nets) != 4 {
		t.Errorf("Nets = %d, want 4", len(d.Nets))
	}
	st := d.Stats()
	if st.Comb != 1 || st.Flops != 2 || st.MacroCells != 1 || st.PortCells != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if st.MacroArea != 2000*1000 {
		t.Errorf("MacroArea = %d", st.MacroArea)
	}
	if st.Pins != 9 { // 2 + 3 + 2 + 2 across the four nets
		t.Errorf("Pins = %d, want 9", st.Pins)
	}
}

func TestHierarchyConstruction(t *testing.T) {
	b := NewBuilder("h")
	b.AddComb("a/b/c/x", 100, "a/b/c")
	b.AddComb("a/b/y", 100, "a/b")
	b.AddComb("z", 100, "")
	d := b.MustBuild()

	if len(d.Hier) != 4 { // root, a, a/b, a/b/c
		t.Fatalf("HierNodes = %d, want 4", len(d.Hier))
	}
	abc := d.NodeByPath("a/b/c")
	if abc == None {
		t.Fatal("node a/b/c missing")
	}
	if d.Node(abc).Name != "c" {
		t.Errorf("local name = %q, want c", d.Node(abc).Name)
	}
	ab := d.NodeByPath("a/b")
	if d.Node(abc).Parent != ab {
		t.Errorf("parent of a/b/c is %d, want %d", d.Node(abc).Parent, ab)
	}
	// Subtree cells of "a" = x and y.
	cells := d.SubtreeCells(d.NodeByPath("a"), nil)
	if len(cells) != 2 {
		t.Errorf("SubtreeCells(a) = %v, want 2 cells", cells)
	}
}

func TestHierIdempotent(t *testing.T) {
	b := NewBuilder("h")
	id1 := b.Hier("x/y")
	id2 := b.Hier("x/y")
	if id1 != id2 {
		t.Errorf("Hier not idempotent: %d vs %d", id1, id2)
	}
	d := b.MustBuild()
	if len(d.Hier) != 3 {
		t.Errorf("HierNodes = %d, want 3", len(d.Hier))
	}
}

func TestValidateCatchesMultipleDrivers(t *testing.T) {
	b := NewBuilder("bad")
	c1 := b.AddComb("c1", 100, "")
	c2 := b.AddComb("c2", 100, "")
	n := b.Net("n")
	b.Connect(c1, n, DirOut)
	b.Connect(c2, n, DirOut)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should reject double-driven net")
	} else if !strings.Contains(err.Error(), "drivers") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestConnectRangeChecks(t *testing.T) {
	b := NewBuilder("bad")
	n := b.Net("n")
	b.Connect(CellID(99), n, DirIn)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should surface Connect range error")
	}
}

func TestDefaultDie(t *testing.T) {
	b := NewBuilder("d")
	b.AddMacro("m", 1000, 1000, "")
	d := b.MustBuild()
	if d.Die.Empty() {
		t.Fatal("default die not assigned")
	}
	if d.Die.Area() < 1000*1000 {
		t.Errorf("die area %d smaller than cell area", d.Die.Area())
	}
}

func TestLookups(t *testing.T) {
	d := buildTiny(t)
	id := d.CellByName("u/m1")
	if id == None {
		t.Fatal("CellByName failed")
	}
	if d.Cell(id).Kind != KindMacro {
		t.Errorf("kind = %v, want macro", d.Cell(id).Kind)
	}
	if d.CellByName("nope") != None {
		t.Error("CellByName should return None for unknown cells")
	}
	if got := d.Macros(); len(got) != 1 || got[0] != id {
		t.Errorf("Macros = %v", got)
	}
	if got := d.Ports(); len(got) != 1 {
		t.Errorf("Ports = %v", got)
	}
}

func TestPinBackReferences(t *testing.T) {
	d := buildTiny(t)
	for i := range d.Cells {
		for _, pid := range d.Cells[i].Pins {
			if d.Pin(pid).Cell != CellID(i) {
				t.Fatalf("pin %d back-reference broken", pid)
			}
		}
	}
	for i := range d.Nets {
		for _, pid := range d.Nets[i].Pins {
			if d.Pin(pid).Net != NetID(i) {
				t.Fatalf("net pin %d back-reference broken", pid)
			}
		}
	}
}

func TestWireDirections(t *testing.T) {
	d := buildTiny(t)
	n := d.Nets[0] // n_in: in -> g1
	outs, ins := 0, 0
	for _, pid := range n.Pins {
		if d.Pin(pid).Dir == DirOut {
			outs++
		} else {
			ins++
		}
	}
	if outs != 1 || ins != 1 {
		t.Errorf("n_in drivers=%d sinks=%d", outs, ins)
	}
}

func TestArrayBase(t *testing.T) {
	cases := []struct {
		name string
		base string
		bit  int
		ok   bool
	}{
		{"data[7]", "data", 7, true},
		{"top/u1/pipe_r[0]", "top/u1/pipe_r", 0, true},
		{"reg_12", "reg", 12, true},
		{"a/b/bus_3", "a/b/bus", 3, true},
		{"plain", "plain", 0, false},
		{"x[abc]", "x[abc]", 0, false},
		{"trailing_", "trailing_", 0, false},
		{"_7", "_7", 0, false},                   // no base before underscore
		{"[5]", "[5]", 0, false},                 // no base before bracket
		{"n[12345678]", "n[12345678]", 0, false}, // index too long
		{"mixed_9]", "mixed", 9, false},          // malformed bracket falls to underscore? no: ends with ']' but no '['
	}
	for _, c := range cases {
		base, bit, ok := ArrayBase(c.name)
		if c.ok {
			if !ok || base != c.base || bit != c.bit {
				t.Errorf("ArrayBase(%q) = (%q,%d,%v), want (%q,%d,true)", c.name, base, bit, ok, c.base, c.bit)
			}
		} else if ok && c.name != "mixed_9]" {
			t.Errorf("ArrayBase(%q) = (%q,%d,%v), want not-ok", c.name, base, bit, ok)
		}
	}
}

func TestArrayBaseGroupsBits(t *testing.T) {
	names := []string{"u/r[0]", "u/r[1]", "u/r[2]", "u/r[31]"}
	bases := map[string]int{}
	for _, n := range names {
		base, _, ok := ArrayBase(n)
		if !ok {
			t.Fatalf("ArrayBase(%q) failed", n)
		}
		bases[base]++
	}
	if len(bases) != 1 || bases["u/r"] != 4 {
		t.Errorf("grouping failed: %v", bases)
	}
}

func TestStatsCellArea(t *testing.T) {
	d := buildTiny(t)
	st := d.Stats()
	wantMacro := int64(2000 * 1000)
	if st.CellArea <= wantMacro {
		t.Errorf("CellArea = %d, want > macro area %d", st.CellArea, wantMacro)
	}
}

func TestKindAndDirStrings(t *testing.T) {
	if KindMacro.String() != "macro" || KindComb.String() != "comb" {
		t.Error("CellKind.String broken")
	}
	if DirIn.String() != "in" || DirOut.String() != "out" {
		t.Error("PinDir.String broken")
	}
}

// TestArrayBaseQuick: bracket-form round trip for arbitrary lowercase bases.
func TestArrayBaseQuick(t *testing.T) {
	f := func(raw []byte, bit uint8) bool {
		base := make([]byte, 0, len(raw)+1)
		base = append(base, 'a')
		for _, c := range raw {
			base = append(base, 'a'+c%26)
		}
		name := fmt.Sprintf("%s[%d]", base, bit)
		gotBase, gotBit, ok := ArrayBase(name)
		return ok && gotBase == string(base) && gotBit == int(bit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuilderQuickCellCounts: builder cell accounting matches stats for
// arbitrary mixes of cell kinds.
func TestBuilderQuickCellCounts(t *testing.T) {
	f := func(comb, flops, macros uint8) bool {
		b := NewBuilder("q")
		for i := 0; i < int(comb%16); i++ {
			b.AddComb(fmt.Sprintf("c%d", i), 100, "")
		}
		for i := 0; i < int(flops%16); i++ {
			b.AddFlop(fmt.Sprintf("f%d", i), "")
		}
		for i := 0; i < int(macros%8); i++ {
			b.AddMacro(fmt.Sprintf("m%d", i), 100, 100, "")
		}
		d := b.MustBuild()
		st := d.Stats()
		return st.Comb == int(comb%16) && st.Flops == int(flops%16) &&
			st.MacroCells == int(macros%8) && len(d.Macros()) == st.MacroCells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestIsqrt pins isqrt to floor(sqrt(v)) across the int64 range, including
// the values above 2^62 whose squares overflow.
func TestIsqrt(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 4, 15, 16, 17, 1 << 40, 1<<62 - 1, 1 << 62, 1<<62 + 1, math.MaxInt64} {
		x := isqrt(v)
		lo := new(big.Int).Mul(big.NewInt(x), big.NewInt(x))
		hi := new(big.Int).Mul(big.NewInt(x+1), big.NewInt(x+1))
		if lo.Cmp(big.NewInt(v)) > 0 || hi.Cmp(big.NewInt(v)) <= 0 {
			t.Errorf("isqrt(%d) = %d, not the floor square root", v, x)
		}
	}
	if isqrt(-5) != 0 {
		t.Errorf("isqrt(-5) = %d, want 0", isqrt(-5))
	}
}
