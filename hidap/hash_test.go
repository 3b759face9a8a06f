package hidap

import (
	"bytes"
	"testing"

	"repro/circuits"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// hashTestDesign covers every field WriteJSON emits: a two-level
// hierarchy, all four cell kinds, pin offsets on a macro, and one port
// with an explicit position beside one without.
func hashTestDesign(t testing.TB, cellNames ...string) *Design {
	t.Helper()
	b := netlist.NewBuilder("hashy")
	b.SetDie(geom.RectXYWH(0, 0, 900000, 700000)).SetRowHeight(2000)
	ram := b.AddMacro("a/ram", 20000, 16000, "a")
	q := b.AddFlop("a/b/q", "a/b")
	u := b.AddComb("u", 3000, "")
	in := b.AddPort("in")
	b.AddPort("out")
	b.SetPortPos(in, geom.Pt(0, 350000))
	for _, name := range cellNames {
		b.AddComb(name, 3000, "")
	}
	n := b.Net("d")
	b.ConnectAt(ram, n, netlist.DirOut, geom.Pt(100, 200))
	b.Connect(q, n, netlist.DirIn)
	b.Wire("g", q, u)
	b.Wire("i", in, u)
	return b.MustBuild()
}

func jsonOf(t testing.TB, d *Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netlist.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func roundTrip(t testing.TB, d *Design) *Design {
	t.Helper()
	rd, err := netlist.ReadJSON(bytes.NewReader(jsonOf(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestHashDesignContent checks that the design key follows the
// interchange form: it survives a WriteJSON/ReadJSON round trip, and any
// single emitted field, string boundary or port position changes it.
func TestHashDesignContent(t *testing.T) {
	base := hashTestDesign(t)
	key := hashDesign(base)
	if len(key) != 24 {
		t.Fatalf("key %q: want 24 hex digits", key)
	}
	if got := hashDesign(roundTrip(t, base)); got != key {
		t.Fatalf("round trip changed the key: %s -> %s", key, got)
	}

	mutations := []struct {
		name string
		mut  func(d *Design)
	}{
		{"name", func(d *Design) { d.Name = "hashz" }},
		{"die x", func(d *Design) { d.Die.X++ }},
		{"die y", func(d *Design) { d.Die.Y++ }},
		{"die w", func(d *Design) { d.Die.W++ }},
		{"die h", func(d *Design) { d.Die.H++ }},
		{"row height", func(d *Design) { d.RowHeight++ }},
		{"cell name", func(d *Design) { d.Cells[2].Name = "v" }},
		{"cell kind", func(d *Design) { d.Cells[2].Kind = netlist.KindFlop }},
		{"cell width", func(d *Design) { d.Cells[0].Width++ }},
		{"cell height", func(d *Design) { d.Cells[0].Height++ }},
		{"cell hier", func(d *Design) { d.Cells[1].Hier = d.Cells[0].Hier }},
		{"hier path", func(d *Design) { d.Node(d.Cells[0].Hier).Path = "z" }},
		{"net name", func(d *Design) { d.Nets[0].Name = "e" }},
		{"pin cell", func(d *Design) { d.Pins[1].Cell = 2 }},
		{"pin net", func(d *Design) { d.Pins[1].Net = 1 }},
		{"pin dir", func(d *Design) { d.Pins[1].Dir = netlist.DirOut }},
		{"pin offset x", func(d *Design) { d.Pins[0].Offset.X++ }},
		{"pin offset y", func(d *Design) { d.Pins[0].Offset.Y++ }},
	}
	seen := map[string]string{key: "base"}
	for _, m := range mutations {
		d := roundTrip(t, base)
		m.mut(d)
		if bytes.Equal(jsonOf(t, d), jsonOf(t, base)) {
			t.Fatalf("%s: mutation does not change WriteJSON output", m.name)
		}
		k := hashDesign(d)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key %s equals the key of %s", m.name, k, prev)
		}
		seen[k] = m.name
	}

	// Port positions live outside the exported fields: build the variants.
	for _, pos := range []geom.Point{geom.Pt(1, 350000), geom.Pt(0, 350001)} {
		b := netlist.NewBuilder("p")
		p := b.AddPort("in")
		b.Wire("i", p, b.AddComb("u", 3000, ""))
		ref := netlist.NewBuilder("p")
		rp := ref.AddPort("in")
		ref.Wire("i", rp, ref.AddComb("u", 3000, ""))
		ref.SetPortPos(rp, geom.Pt(0, 350000))
		b.SetPortPos(p, pos)
		if hashDesign(b.MustBuild()) == hashDesign(ref.MustBuild()) {
			t.Errorf("port position %v: key unchanged", pos)
		}
	}

	// Moving the boundary between adjacent strings changes the key.
	if hashDesign(hashTestDesign(t, "ab", "c")) == hashDesign(hashTestDesign(t, "a", "bc")) {
		t.Error(`cells "ab"+"c" and "a"+"bc" share a key`)
	}
}

func flatHashDesign() *Design {
	return circuits.GenFlat(circuits.Spec{Name: "hash", Cells: 50_000, Macros: 24,
		Subsystems: 4, BusWidth: 32, PipelineDepth: 2, Scale: 1, Seed: 1}).Design
}

// TestHashDesignAllocs checks that hashing allocates a small constant
// amount, whatever the design's size.
func TestHashDesignAllocs(t *testing.T) {
	small, large := hashTestDesign(t), flatHashDesign()
	as := testing.AllocsPerRun(10, func() { hashDesign(small) })
	al := testing.AllocsPerRun(3, func() { hashDesign(large) })
	if as != al || al > 3 {
		t.Fatalf("hashDesign allocates %v times on %d cells and %v on %d; want one constant <= 3",
			as, len(small.Cells), al, len(large.Cells))
	}
}

// BenchmarkHashDesign hashes a 50k-instance flat design, the input the
// engine's cache-miss path sees (compare BenchmarkClusterFlat in
// internal/autocluster).
func BenchmarkHashDesign(b *testing.B) {
	d := flatHashDesign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashDesign(d)
	}
}
