package circuits

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/seqgraph"
)

func testSpec() Spec {
	return Spec{Name: "t1", Cells: 400_000, Macros: 12, Subsystems: 3,
		BusWidth: 32, PipelineDepth: 2, Scale: 200, Seed: 9}
}

func TestGenerateBasics(t *testing.T) {
	g := Generate(testSpec())
	d := g.Design
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := d.Stats()
	if st.MacroCells != 12 {
		t.Errorf("macros = %d, want 12", st.MacroCells)
	}
	want := testSpec().ScaledCells()
	if st.Cells < want {
		t.Errorf("cells = %d, want >= %d", st.Cells, want)
	}
	if st.Cells > want*3 {
		t.Errorf("cells = %d, way over budget %d", st.Cells, want)
	}
	if d.Die.Empty() {
		t.Error("die not set")
	}
	// Utilization sanity: cell area below die area.
	if st.CellArea >= d.Die.Area() {
		t.Errorf("overfull die: cells %d, die %d", st.CellArea, d.Die.Area())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSpec())
	b := Generate(testSpec())
	if a.Design.NumCells() != b.Design.NumCells() {
		t.Fatal("cell count differs between runs")
	}
	for i := range a.Design.Cells {
		if a.Design.Cells[i].Name != b.Design.Cells[i].Name {
			t.Fatalf("cell %d name differs", i)
		}
	}
	for name, r := range a.Intent {
		if b.Intent[name] != r {
			t.Fatalf("intent differs for %s", name)
		}
	}
}

func TestGenerateIntentCoversAllMacros(t *testing.T) {
	g := Generate(testSpec())
	for _, m := range g.Design.Macros() {
		name := g.Design.Cell(m).Name
		r, ok := g.Intent[name]
		if !ok {
			t.Fatalf("no intent for %s", name)
		}
		if !g.Design.Die.ContainsRect(r) {
			t.Errorf("intent for %s escapes die: %v", name, r)
		}
		c := g.Design.Cell(m)
		if r.Area() != c.Area() {
			t.Errorf("intent area mismatch for %s: %d vs %d", name, r.Area(), c.Area())
		}
	}
}

func TestGenerateHierarchyShape(t *testing.T) {
	g := Generate(testSpec())
	d := g.Design
	tr := hier.New(d)
	// Top declustering should find the subsystems as blocks.
	res := tr.Decluster(d.Root())
	subBlocks := 0
	for _, b := range res.Blocks {
		if strings.HasPrefix(b.Name, "sub") {
			subBlocks++
		}
	}
	if subBlocks != 3 {
		names := []string{}
		for _, b := range res.Blocks {
			names = append(names, b.Name)
		}
		t.Errorf("top blocks = %v, want the 3 subsystems", names)
	}
}

func TestGenerateDataflowVisible(t *testing.T) {
	g := Generate(testSpec())
	sg := seqgraph.Build(g.Design, seqgraph.DefaultParams())
	st := sg.Stats()
	if st.Macros != 12 {
		t.Errorf("Gseq macros = %d", st.Macros)
	}
	if st.Registers < 30 {
		t.Errorf("Gseq registers = %d, want a rich sequential structure", st.Registers)
	}
	if st.Edges < st.Registers {
		t.Errorf("Gseq edges = %d, want at least one per register", st.Edges)
	}
	if st.Ports != 2 { // din and dout clusters
		t.Errorf("Gseq ports = %d, want 2", st.Ports)
	}
}

func TestSuiteMacroCountsMatchPaper(t *testing.T) {
	want := map[string]int{
		"c1": 32, "c2": 100, "c3": 94, "c4": 122,
		"c5": 133, "c6": 90, "c7": 108, "c8": 37,
	}
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite size = %d", len(suite))
	}
	for _, s := range suite {
		if want[s.Name] != s.Macros {
			t.Errorf("%s macros = %d, want %d", s.Name, s.Macros, want[s.Name])
		}
	}
}

func TestSuiteSpecLookup(t *testing.T) {
	s, err := SuiteSpec("c3")
	if err != nil || s.Macros != 94 {
		t.Errorf("SuiteSpec(c3) = %+v, %v", s, err)
	}
	if _, err := SuiteSpec("nope"); err == nil {
		t.Error("expected error for unknown circuit")
	}
}

func TestSuiteGeneratesAllAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation in -short mode")
	}
	for _, s := range Suite() {
		s.Scale = 2000 // tiny for test speed
		g := Generate(s)
		if err := g.Design.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if got := g.Design.Stats().MacroCells; got != s.Macros {
			t.Errorf("%s: macros = %d, want %d", s.Name, got, s.Macros)
		}
	}
}

func TestFig1Design(t *testing.T) {
	g := Fig1Design()
	d := g.Design
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Macros()); got != 16 {
		t.Fatalf("macros = %d, want 16", got)
	}
	// Top-level structure: left, right, x.
	tr := hier.New(d)
	res := tr.Decluster(d.Root())
	names := map[string]bool{}
	for _, b := range res.Blocks {
		names[b.Name] = true
	}
	for _, wantName := range []string{"left", "right", "x"} {
		if !names[wantName] {
			t.Errorf("top blocks missing %q: %v", wantName, names)
		}
	}
	// Second level: two 4-macro groups per side.
	left := d.NodeByPath("left")
	res2 := tr.Decluster(left)
	if len(res2.Blocks) != 2 {
		t.Errorf("left declusters into %d blocks, want 2 groups", len(res2.Blocks))
	}
	for _, b := range res2.Blocks {
		if b.MacroCount() != 4 {
			t.Errorf("group %s has %d macros, want 4", b.Name, b.MacroCount())
		}
	}
	if len(g.Intent) != 16 {
		t.Errorf("intent covers %d macros", len(g.Intent))
	}
}

func TestABCDX(t *testing.T) {
	g := ABCDX()
	d := g.Design
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Macros()); got != 8 {
		t.Fatalf("macros = %d, want 8", got)
	}
	tr := hier.New(d)
	res := tr.Decluster(d.Root())
	names := map[string]int{}
	for _, b := range res.Blocks {
		names[b.Name] = b.MacroCount()
	}
	for _, blk := range []string{"A", "B", "C", "D"} {
		if names[blk] != 2 {
			t.Errorf("block %s macro count = %d, want 2 (%v)", blk, names[blk], names)
		}
	}
	if _, ok := names["x"]; !ok {
		t.Errorf("X block missing: %v", names)
	}
}

func TestABCDXFlows(t *testing.T) {
	// The point of the example: block flow connects every block to X;
	// macro flow chains A -> B -> C -> D.
	g := ABCDX()
	d := g.Design
	tr := hier.New(d)
	decl := tr.Decluster(d.Root())
	sg := seqgraph.Build(d, seqgraph.DefaultParams())

	gdf := dataflowBuild(sg, decl)
	idx := map[string]int32{}
	for i := range decl.Blocks {
		idx[decl.Blocks[i].Name] = int32(i)
	}
	for _, blk := range []string{"A", "B", "C", "D"} {
		if !gdf.hasBlockFlow(idx[blk], idx["x"]) {
			t.Errorf("block flow %s->x missing", blk)
		}
	}
	for _, pair := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}} {
		if !gdf.hasMacroFlow(idx[pair[0]], idx[pair[1]]) {
			t.Errorf("macro flow %s->%s missing", pair[0], pair[1])
		}
	}
	if gdf.hasMacroFlow(idx["A"], idx["D"]) {
		t.Error("unexpected direct macro flow A->D")
	}
}

// gdfWrap exposes edge existence checks over the dataflow graph.
type gdfWrap struct {
	bf, mf map[[2]int32]bool
}

func dataflowBuild(sg *seqgraph.Graph, decl *hier.Result) *gdfWrap {
	g := dataflow.Build(sg, decl)
	w := &gdfWrap{bf: map[[2]int32]bool{}, mf: map[[2]int32]bool{}}
	for k := range g.BlockFlow {
		w.bf[[2]int32{k.From, k.To}] = true
	}
	for k := range g.MacroFlow {
		w.mf[[2]int32{k.From, k.To}] = true
	}
	return w
}

func (g *gdfWrap) hasBlockFlow(a, b int32) bool { return g.bf[[2]int32{a, b}] }
func (g *gdfWrap) hasMacroFlow(a, b int32) bool { return g.mf[[2]int32{a, b}] }

func TestGenerateArrayNamesCluster(t *testing.T) {
	g := Generate(testSpec())
	count := 0
	for i := range g.Design.Cells {
		c := &g.Design.Cells[i]
		if c.Kind == netlist.KindFlop {
			if _, _, ok := netlist.ArrayBase(c.Name); !ok {
				t.Fatalf("flop %s has no array index", c.Name)
			}
			count++
		}
	}
	if count == 0 {
		t.Fatal("no flops generated")
	}
}

func TestStarTopology(t *testing.T) {
	spec := testSpec()
	spec.Topology = "star"
	g := Generate(spec)
	if err := g.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	// The crossbar hub register exists and every subsystem reaches it.
	sg := seqgraph.Build(g.Design, seqgraph.DefaultParams())
	hub := sg.NodeByName("xbar/hub")
	if hub < 0 {
		t.Fatal("crossbar hub register missing")
	}
	// Hub has fanin from every subsystem's uplink pipeline.
	fanin := 0
	for u := range sg.Out {
		for _, e := range sg.Out[u] {
			if e.To == hub {
				fanin++
			}
		}
	}
	if fanin < spec.Subsystems {
		t.Errorf("hub fanin = %d, want >= %d", fanin, spec.Subsystems)
	}
}

func TestStarTopologyPlaces(t *testing.T) {
	spec := testSpec()
	spec.Topology = "star"
	g := Generate(spec)
	// The full flow must handle the star interconnect.
	tr := hier.New(g.Design)
	res := tr.Decluster(g.Design.Root())
	if len(res.Blocks) < spec.Subsystems {
		t.Errorf("blocks = %d, want >= %d subsystems", len(res.Blocks), spec.Subsystems)
	}
}

func TestGenFlat(t *testing.T) {
	h := Generate(testSpec())
	f := GenFlat(testSpec())
	if len(f.Design.Hier) != 1 {
		t.Fatalf("flat design has %d hier nodes, want 1", len(f.Design.Hier))
	}
	hs, fs := h.Design.Stats(), f.Design.Stats()
	hs.HierNodes, fs.HierNodes = 0, 0
	if hs != fs {
		t.Fatalf("flat stats diverge: %+v vs %+v", fs, hs)
	}
	for i := range h.Design.Cells {
		if h.Design.Cells[i].Name != f.Design.Cells[i].Name {
			t.Fatalf("cell %d renamed by flattening", i)
		}
	}
	if len(f.Intent) != len(h.Intent) {
		t.Fatalf("intent changed: %d vs %d places", len(f.Intent), len(h.Intent))
	}
	// Spec.Flat is the same knob.
	s := testSpec()
	s.Flat = true
	if got := len(Generate(s).Design.Hier); got != 1 {
		t.Fatalf("Spec.Flat design has %d hier nodes, want 1", got)
	}
}

// TestGenerateFewMacros generates specs with 0–4 macros and 0–5 subsystems
// (0 takes the default 4), hierarchical and flat. Each must build a valid
// design with exactly its macros, every one of them in the intent, and one
// subsystem per macro at most (one if there are none).
func TestGenerateFewMacros(t *testing.T) {
	for macros := 0; macros <= 4; macros++ {
		for subs := 0; subs <= 5; subs++ {
			for _, gen := range []func(Spec) *Generated{Generate, GenFlat} {
				spec := Spec{Name: "few", Macros: macros, Subsystems: subs, Seed: int64(10*macros + subs)}
				g := gen(spec)
				d := g.Design
				where := fmt.Sprintf("macros %d subsystems %d flat %v", macros, subs, g.Spec.Flat)
				if err := d.Validate(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if got := len(d.Macros()); got != macros {
					t.Errorf("%s: design has %d macros", where, got)
				}
				if len(g.Intent) != macros {
					t.Errorf("%s: intent has %d macros", where, len(g.Intent))
				}
				built := 0
				for d.CellByName(fmt.Sprintf("sub%d/in_r[0]", built)) != netlist.None {
					built++
				}
				if want := min(g.Spec.Subsystems, max(macros, 1)); built != want {
					t.Errorf("%s: %d subsystems built, want %d", where, built, want)
				}
			}
		}
	}
}
