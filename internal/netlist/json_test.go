package netlist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder("jt")
	b.SetDie(geom.RectXYWH(0, 0, 50_000, 40_000))
	b.SetRowHeight(1400)
	in := b.AddPort("in[0]")
	b.SetPortPos(in, geom.Pt(0, 20_000))
	g := b.AddComb("g", 2000, "")
	r := b.AddFlop("u/r[0]", "u")
	m := b.AddMacro("u/mem", 9_000, 6_000, "u")
	b.Wire("n0", in, g)
	b.Wire("n1", g, r)
	n2 := b.Net("n2")
	b.Connect(r, n2, DirOut)
	b.ConnectAt(m, n2, DirIn, geom.Pt(0, 3_000))
	d := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if d2.Name != d.Name || d2.Die != d.Die || d2.RowHeight != d.RowHeight {
		t.Errorf("header mismatch: %s %v %d", d2.Name, d2.Die, d2.RowHeight)
	}
	s1, s2 := d.Stats(), d2.Stats()
	if s1 != s2 {
		t.Errorf("stats mismatch: %+v vs %+v", s1, s2)
	}
	for i := range d.Cells {
		if d.Cells[i].Name != d2.Cells[i].Name || d.Cells[i].Kind != d2.Cells[i].Kind {
			t.Fatalf("cell %d mismatch", i)
		}
	}
	// Hierarchy preserved.
	if d2.NodeByPath("u") == None {
		t.Error("hierarchy node lost")
	}
	// Pin offsets preserved.
	m2 := d2.CellByName("u/mem")
	found := false
	for _, pid := range d2.Cell(m2).Pins {
		if d2.Pin(pid).Offset == geom.Pt(0, 3_000) {
			found = true
		}
	}
	if !found {
		t.Error("macro pin offset lost")
	}
	// Port position preserved.
	in2 := d2.CellByName("in[0]")
	if d2.PortPos(in2) != geom.Pt(0, 20_000) {
		t.Errorf("port pos = %v", d2.PortPos(in2))
	}
}

// TestReadJSONErrors pins the decoder's input checks, one case per
// rejection, each error naming the offending field; the design the outline
// and port_pos cases vary still reads at the size bound.
// hugeNoDieDesign has no die and two macros of 2^31×2^31 and 2^31×2^30
// DBU, each within ReadJSON's per-cell bound.
const hugeNoDieDesign = `{"name":"x","cells":[` +
	`{"name":"a","kind":"macro","w":2147483648,"h":2147483648},` +
	`{"name":"b","kind":"macro","w":2147483648,"h":1073741824}],"nets":[],"pins":[]}`

func TestReadJSONErrors(t *testing.T) {
	design := func(macroW, macroH, portPos string) string {
		return `{"name":"x","die":[0,0,100,100],"cells":[` +
			`{"name":"m","kind":"macro","w":` + macroW + `,"h":` + macroH + `},` +
			`{"name":"p","kind":"port"},{"name":"g","kind":"comb","w":2,"h":1}],` +
			`"nets":["n"],"pins":[{"cell":1,"net":0,"dir":"out"},{"cell":0,"net":0,"dir":"in"}]` +
			`,"port_pos":[` + portPos + `]}`
	}
	cases := []struct {
		name, src, frag string
	}{
		{"garbage", "{not json", "json"},
		{"bad kind", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"c","kind":"gizmo"}],"nets":[],"pins":[]}`, "kind"},
		{"bad net ref", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"c","kind":"comb","w":1,"h":1}],"nets":[],"pins":[{"cell":0,"net":5,"dir":"in"}]}`, "range"},
		{"negative w", design("-100", "10", ""), "w -100 out of range"},
		{"negative h", design("10", "-1", ""), "h -1 out of range"},
		{"w overflows area", design("9223372036854775807", "10", ""), "w 9223372036854775807 out of range"},
		{"h past bound", design("10", "2147483649", ""), "h 2147483649 out of range"},
		{"port index truncates", design("10", "10", "[4294967297,5,7]"), "port_pos 0: cell 4294967297 out of range"},
		{"port index negative", design("10", "10", "[1,0,0],[-1,5,7]"), "port_pos 1: cell -1 out of range"},
		{"port index past last cell", design("10", "10", "[9,2,2]"), "port_pos 0: cell 9 out of range"},
		{"port pos on a macro", design("10", "10", "[0,1,1]"), "port_pos 0: cell 0 is a macro, not a port"},
		{"port pos on a comb", design("10", "10", "[2,1,1]"), "port_pos 0: cell 2 is a comb, not a port"},
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.frag)
		}
	}
	// No die, and two macros within the per-cell bound whose areas sum
	// past what the default die sizing can hold (2^62 + 2^61; ×100 wraps
	// int64): rejected, not read with a wrapped 1×1 die.
	if _, err := ReadJSON(strings.NewReader(hugeNoDieDesign)); err == nil || !strings.Contains(err.Error(), "too large to size a default die") {
		t.Errorf("huge design without a die: err = %v, want the default-die size error", err)
	}
	d, err := ReadJSON(strings.NewReader(design("2147483648", "2147483648", "[1,0,50]")))
	if err != nil {
		t.Fatalf("valid design: %v", err)
	}
	if m := d.Cell(d.CellByName("m")); m.Width != 1<<31 || m.Height != 1<<31 {
		t.Errorf("macro outline = %dx%d, want %dx%d", m.Width, m.Height, 1<<31, 1<<31)
	}
	if p := d.CellByName("p"); !d.HasPortPos(p) || d.PortPos(p) != geom.Pt(0, 50) {
		t.Errorf("port position lost")
	}
}

func TestJSONDeterministicOutput(t *testing.T) {
	d := buildTiny(t)
	var a, b bytes.Buffer
	if err := WriteJSON(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, d); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("JSON output nondeterministic")
	}
}
