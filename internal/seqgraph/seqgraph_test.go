package seqgraph

import (
	"fmt"
	"testing"

	"repro/internal/netlist"
)

// pipeline builds: in[0..7] -> comb -> a[0..7] -> comb -> b[0..7] -> mem,
// plus a single-bit control flop that the MinBits filter must drop.
func pipeline(t *testing.T) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("pipe")
	mem := b.AddMacro("u/mem", 3000, 2000, "u")
	ctl := b.AddFlop("ctl", "")
	b.Wire("n_ctl", ctl) // dangling single-bit register
	for i := 0; i < 8; i++ {
		in := b.AddPort(fmt.Sprintf("in[%d]", i))
		g1 := b.AddComb(fmt.Sprintf("g1_%dx", i), 200, "")
		a := b.AddFlop(fmt.Sprintf("u/a[%d]", i), "u")
		g2 := b.AddComb(fmt.Sprintf("g2_%dx", i), 200, "")
		bb := b.AddFlop(fmt.Sprintf("u/b[%d]", i), "u")
		b.Wire(fmt.Sprintf("ni%d", i), in, g1)
		b.Wire(fmt.Sprintf("na%d", i), g1, a)
		b.Wire(fmt.Sprintf("nb%d", i), a, g2)
		b.Wire(fmt.Sprintf("nc%d", i), g2, bb)
		b.Wire(fmt.Sprintf("nd%d", i), bb, mem)
	}
	return b.MustBuild()
}

func TestBuildClusters(t *testing.T) {
	d := pipeline(t)
	g := Build(d, DefaultParams())

	st := g.Stats()
	if st.Macros != 1 {
		t.Errorf("macros = %d, want 1", st.Macros)
	}
	if st.Registers != 2 { // u/a and u/b; ctl dropped by MinBits
		t.Errorf("registers = %d, want 2", st.Registers)
	}
	if st.Ports != 1 {
		t.Errorf("ports = %d, want 1", st.Ports)
	}
	a := g.NodeByName("u/a")
	if a < 0 || g.Nodes[a].Bits != 8 {
		t.Fatalf("register u/a missing or wrong width: %+v", g.Nodes[a])
	}
	if g.NodeByName("ctl") >= 0 {
		t.Error("single-bit ctl should be discarded")
	}
	in := g.NodeByName("in")
	if in < 0 || g.Nodes[in].Kind != KindPort || g.Nodes[in].Bits != 8 {
		t.Fatalf("port cluster wrong: %+v", g.Nodes[in])
	}
}

func TestBuildEdges(t *testing.T) {
	d := pipeline(t)
	g := Build(d, DefaultParams())
	in := g.NodeByName("in")
	a := g.NodeByName("u/a")
	bn := g.NodeByName("u/b")
	mem := g.NodeByName("u/mem")

	if bits, ok := g.EdgeBits(in, a); !ok || bits != 8 {
		t.Errorf("in->a = (%d,%v), want 8 bits", bits, ok)
	}
	if bits, ok := g.EdgeBits(a, bn); !ok || bits != 8 {
		t.Errorf("a->b = (%d,%v), want 8 bits", bits, ok)
	}
	if bits, ok := g.EdgeBits(bn, mem); !ok || bits != 8 {
		t.Errorf("b->mem = (%d,%v), want 8 bits", bits, ok)
	}
	// No skip edges: combinational tracing must stop at registers.
	if _, ok := g.EdgeBits(in, bn); ok {
		t.Error("in->b edge should not exist (blocked by register a)")
	}
	if _, ok := g.EdgeBits(a, mem); ok {
		t.Error("a->mem edge should not exist (blocked by register b)")
	}
}

func TestMacroFanout(t *testing.T) {
	// Macro drives a 4-bit bus into a register: edge width 4 from the
	// macro's four driven nets.
	b := netlist.NewBuilder("m")
	mem := b.AddMacro("mem", 1000, 1000, "")
	for i := 0; i < 4; i++ {
		r := b.AddFlop(fmt.Sprintf("q[%d]", i), "")
		b.Wire(fmt.Sprintf("n%d", i), mem, r)
	}
	d := b.MustBuild()
	g := Build(d, DefaultParams())
	m := g.NodeByName("mem")
	q := g.NodeByName("q")
	if bits, ok := g.EdgeBits(m, q); !ok || bits != 4 {
		t.Errorf("mem->q = (%d,%v), want 4", bits, ok)
	}
}

func TestReconvergenceCountsOnce(t *testing.T) {
	// One register bit fans out through two comb cells that reconverge on
	// the same target register: the edge is still 1 bit wide.
	b := netlist.NewBuilder("rc")
	src := b.AddFlop("s[0]", "")
	s2 := b.AddFlop("s[1]", "")
	g1 := b.AddComb("g1", 100, "")
	g2 := b.AddComb("g2", 100, "")
	dst0 := b.AddFlop("t[0]", "")
	dst1 := b.AddFlop("t[1]", "")
	b.Wire("ns", src, g1, g2)
	b.Wire("n1", g1, dst0)
	b.Wire("n2", g2, dst0)
	b.Wire("ns2", s2, dst1) // keep t 2 bits wide via a second path
	d := b.MustBuild()
	g := Build(d, DefaultParams())
	s := g.NodeByName("s")
	tt := g.NodeByName("t")
	bits, ok := g.EdgeBits(s, tt)
	if !ok {
		t.Fatal("s->t edge missing")
	}
	// s[0] reaches t (once, despite two paths); s[1] reaches t. Want 2.
	if bits != 2 {
		t.Errorf("s->t bits = %d, want 2", bits)
	}
}

func TestSelfLoopSkipped(t *testing.T) {
	b := netlist.NewBuilder("loop")
	r0 := b.AddFlop("r[0]", "")
	r1 := b.AddFlop("r[1]", "")
	g1 := b.AddComb("inv", 100, "")
	b.Wire("n0", r0, g1)
	b.Wire("n1", g1, r1) // r[0] -> r[1] inside the same array: self loop
	d := b.MustBuild()
	g := Build(d, DefaultParams())
	r := g.NodeByName("r")
	if r < 0 {
		t.Fatal("register r missing")
	}
	if len(g.Out[r]) != 0 {
		t.Errorf("self loop recorded: %+v", g.Out[r])
	}
}

func TestCombLoopTerminates(t *testing.T) {
	// A combinational cycle (illegal RTL, but the builder permits it) must
	// not hang the cone traversal.
	b := netlist.NewBuilder("cyc")
	r := b.AddFlop("r[0]", "")
	r2 := b.AddFlop("r[1]", "")
	c1 := b.AddComb("c1", 100, "")
	c2 := b.AddComb("c2", 100, "")
	t1 := b.AddFlop("t[0]", "")
	t2 := b.AddFlop("t[1]", "")
	b.Wire("n0", r, c1)
	b.Wire("n1", c1, c2, t1)
	b.Wire("n2", c2, c1, t2) // c1 <-> c2 cycle
	b.Wire("nr2", r2, t1, t2)
	d := b.MustBuild()
	g := Build(d, DefaultParams())
	rn := g.NodeByName("r")
	tn := g.NodeByName("t")
	// r[0] reaches t through the cycle (counted once); r[1] directly.
	if bits, ok := g.EdgeBits(rn, tn); !ok || bits != 2 {
		t.Errorf("r->t = (%d,%v), want 2 bits", bits, ok)
	}
}

func TestMinBitsZeroKeepsAll(t *testing.T) {
	d := pipeline(t)
	g := Build(d, Params{MinBits: 0})
	if g.NodeByName("ctl") < 0 {
		t.Error("MinBits=0 should keep single-bit registers")
	}
}

func TestCellNodeMapping(t *testing.T) {
	d := pipeline(t)
	g := Build(d, DefaultParams())
	for i := range d.Cells {
		c := d.Cell(netlist.CellID(i))
		node := g.CellNode[i]
		switch c.Kind {
		case netlist.KindComb:
			if node != -1 {
				t.Errorf("comb cell %s mapped to node %d", c.Name, node)
			}
		case netlist.KindMacro:
			if node < 0 || g.Nodes[node].Kind != KindMacro {
				t.Errorf("macro %s not mapped", c.Name)
			}
		}
	}
}

func TestStatsTotals(t *testing.T) {
	d := pipeline(t)
	g := Build(d, DefaultParams())
	st := g.Stats()
	if st.Nodes != len(g.Nodes) {
		t.Error("stats node count mismatch")
	}
	if st.Edges != 3 {
		t.Errorf("edges = %d, want 3", st.Edges)
	}
	if st.TotalBits != 8+8+8+1 { // in, a, b, mem(1)
		t.Errorf("TotalBits = %d", st.TotalBits)
	}
}

func TestDeterministicBuild(t *testing.T) {
	d := pipeline(t)
	g1 := Build(d, DefaultParams())
	g2 := Build(d, DefaultParams())
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatal("node count nondeterministic")
	}
	for i := range g1.Nodes {
		if g1.Nodes[i].Name != g2.Nodes[i].Name {
			t.Fatalf("node order nondeterministic at %d", i)
		}
		if len(g1.Out[i]) != len(g2.Out[i]) {
			t.Fatalf("edges nondeterministic at %d", i)
		}
		for j := range g1.Out[i] {
			if g1.Out[i][j] != g2.Out[i][j] {
				t.Fatalf("edge %d/%d differs", i, j)
			}
		}
	}
}

func TestMacroPaths(t *testing.T) {
	// m1 -> q[0..3] -> m2 -> m3: m1 reaches m2 over two hops, m2 reaches
	// m3 directly, and m1 never reaches m3 because the search stops at m2.
	b := netlist.NewBuilder("mp")
	m1 := b.AddMacro("m1", 1000, 1000, "")
	m2 := b.AddMacro("m2", 1000, 1000, "")
	m3 := b.AddMacro("m3", 1000, 1000, "")
	for i := 0; i < 4; i++ {
		r := b.AddFlop(fmt.Sprintf("q[%d]", i), "")
		b.Wire(fmt.Sprintf("a%d", i), m1, r)
		b.Wire(fmt.Sprintf("b%d", i), r, m2)
	}
	b.Wire("c0", m2, m3)
	b.Wire("c1", m2, m3)
	g := Build(b.MustBuild(), DefaultParams())
	n1, n2, n3 := g.NodeByName("m1"), g.NodeByName("m2"), g.NodeByName("m3")
	want := []MacroPath{
		{From: n1, To: n2, Latency: 2, Bits: 4},
		{From: n2, To: n3, Latency: 1, Bits: 2},
	}
	got := g.MacroPaths()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("MacroPaths = %v, want %v", got, want)
	}
	if again := g.MacroPaths(); &again[0] != &got[0] {
		t.Error("second call recomputed the paths instead of sharing them")
	}
	var zero Graph
	if p := zero.MacroPaths(); len(p) != 0 {
		t.Errorf("zero Graph MacroPaths = %v, want none", p)
	}
}
