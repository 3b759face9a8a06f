package hier

import (
	"slices"
	"testing"

	"repro/internal/netlist"
)

// fig1Style builds the hierarchy of the paper's Fig. 1/Fig. 5 example:
//
//	root
//	├── left   (8 macros in wrappers, some glue)
//	├── right  (8 macros in wrappers, some glue)
//	└── x      (big standard cell block, leaf)
func fig1Style(t *testing.T) *netlist.Design {
	t.Helper()
	return fig1Builder().MustBuild()
}

// fig1Builder is fig1Style before Build, for tests that add cells to it.
func fig1Builder() *netlist.Builder {
	b := netlist.NewBuilder("fig1")
	for _, side := range []string{"left", "right"} {
		for i := 0; i < 8; i++ {
			path := side + "/ram" + string(rune('0'+i))
			b.AddMacro(path+"/mem", 2000, 1500, path)
			b.AddComb(path+"/ctl", 3_000, path)
		}
		b.AddComb(side+"/glue", 50_000, side)
	}
	// The x block: pure standard cells, sized to dominate min_area checks.
	b.AddComb("x/logic0", 30_000_000, "x")
	b.AddComb("x/logic1", 30_000_000, "x")
	return b
}

func TestAggregates(t *testing.T) {
	d := fig1Style(t)
	tr := New(d)
	root := d.Root()
	if got := tr.MacroCount(root); got != 16 {
		t.Errorf("root macros = %d, want 16", got)
	}
	left := d.NodeByPath("left")
	if got := tr.MacroCount(left); got != 8 {
		t.Errorf("left macros = %d, want 8", got)
	}
	x := d.NodeByPath("x")
	if got := tr.MacroCount(x); got != 0 {
		t.Errorf("x macros = %d, want 0", got)
	}
	if tr.Area(root) != tr.Area(left)+tr.Area(d.NodeByPath("right"))+tr.Area(x) {
		t.Error("root area is not the sum of its children")
	}
	// Comb footprints snap to the row grid, so allow a sliver of rounding.
	if got := tr.Area(x); got < 59_900_000 || got > 60_000_000 {
		t.Errorf("x area = %d, want ~60M", got)
	}
}

func TestMacrosUnder(t *testing.T) {
	d := fig1Style(t)
	tr := New(d)
	ms := tr.MacrosUnder(d.Root(), nil)
	if len(ms) != 16 {
		t.Errorf("MacrosUnder(root) = %d, want 16", len(ms))
	}
	ms = tr.MacrosUnder(d.NodeByPath("right"), nil)
	if len(ms) != 8 {
		t.Errorf("MacrosUnder(right) = %d, want 8", len(ms))
	}
}

func TestDeclusterTopLevel(t *testing.T) {
	d := fig1Style(t)
	tr := New(d)
	res := tr.Decluster(d.Root())
	// Expect exactly three blocks: left, right (macros) and x (area > 40%).
	if len(res.Blocks) != 3 {
		names := []string{}
		for _, b := range res.Blocks {
			names = append(names, b.Name)
		}
		t.Fatalf("blocks = %d (%v), want 3", len(res.Blocks), names)
	}
	byName := map[string]*Block{}
	for i := range res.Blocks {
		byName[res.Blocks[i].Name] = &res.Blocks[i]
	}
	if b := byName["left"]; b == nil || b.MacroCount() != 8 {
		t.Errorf("left block missing or wrong macro count: %+v", b)
	}
	if b := byName["x"]; b == nil || b.MacroCount() != 0 {
		t.Errorf("x block missing or has macros: %+v", b)
	}
}

func TestDeclusterRecursionLevel(t *testing.T) {
	d := fig1Style(t)
	tr := New(d)
	left := d.NodeByPath("left")
	res := tr.Decluster(left)
	// Each ram wrapper has a macro -> 8 blocks; glue cell is small.
	if len(res.Blocks) != 8 {
		t.Fatalf("blocks = %d, want 8", len(res.Blocks))
	}
	for _, b := range res.Blocks {
		if b.MacroCount() != 1 {
			t.Errorf("block %s macro count = %d, want 1", b.Name, b.MacroCount())
		}
	}
	if res.GlueArea == 0 {
		t.Error("left/glue should be glue area")
	}
}

func TestDeclusterLeafWithDirectMacros(t *testing.T) {
	// A wrapper whose macros are direct cells: bare-macro blocks appear.
	b := netlist.NewBuilder("leafy")
	b.AddMacro("grp/m0", 100, 100, "grp")
	b.AddMacro("grp/m1", 100, 100, "grp")
	b.AddComb("grp/c", 50, "grp")
	d := b.MustBuild()
	tr := New(d)
	res := tr.Decluster(d.NodeByPath("grp"))
	if len(res.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2 bare macros", len(res.Blocks))
	}
	for _, blk := range res.Blocks {
		if blk.Macro == netlist.None || blk.Node != netlist.None {
			t.Errorf("expected bare-macro block, got %+v", blk)
		}
	}
}

func TestDeclusterWrapperCollapse(t *testing.T) {
	// root -> wrap -> {a (4 macros), b (4 macros)}: declustering the root
	// must see through the single wrapper.
	b := netlist.NewBuilder("wrap")
	for _, g := range []string{"wrap/a", "wrap/b"} {
		for i := 0; i < 4; i++ {
			p := g + "/r" + string(rune('0'+i))
			b.AddMacro(p+"/mem", 500, 500, p)
		}
	}
	d := b.MustBuild()
	tr := New(d)
	res := tr.Decluster(d.Root())
	if len(res.Blocks) != 2 {
		names := []string{}
		for _, blk := range res.Blocks {
			names = append(names, blk.Name)
		}
		t.Fatalf("blocks = %v, want [wrap/a wrap/b]", names)
	}
}

// TestDeclusterPartition checks the fundamental cut invariant: every
// non-port cell under nh lands in exactly one block or in glue; cells
// outside stay Outside.
func TestDeclusterPartition(t *testing.T) {
	d := fig1Style(t)
	tr := New(d)
	left := d.NodeByPath("left")
	res := tr.Decluster(left)

	underLeft := map[netlist.CellID]bool{}
	for _, cid := range d.SubtreeCells(left, nil) {
		underLeft[cid] = true
	}
	var blockArea, glueArea int64
	for i := range d.Cells {
		cid := netlist.CellID(i)
		c := d.Cell(cid)
		m := res.CellBlock[i]
		if c.Kind == netlist.KindPort {
			continue
		}
		if underLeft[cid] {
			if m == Outside {
				t.Fatalf("cell %s under left marked Outside", c.Name)
			}
			if m == Glue {
				glueArea += c.Area()
			} else {
				blockArea += c.Area()
			}
		} else if m != Outside {
			t.Fatalf("cell %s outside left marked %d", c.Name, m)
		}
	}
	if got := blockArea + glueArea; got != tr.Area(left) {
		t.Errorf("partition area %d != subtree area %d", got, tr.Area(left))
	}
	if glueArea != res.GlueArea {
		t.Errorf("GlueArea = %d, computed %d", res.GlueArea, glueArea)
	}
	// Glue lists exactly the Glue-marked cells, each once.
	listed := map[netlist.CellID]bool{}
	for _, cid := range res.Glue {
		if res.CellBlock[cid] != Glue || listed[cid] {
			t.Fatalf("Glue lists %s (CellBlock %d, repeated %v)", d.Cell(cid).Name, res.CellBlock[cid], listed[cid])
		}
		listed[cid] = true
	}
	for i, m := range res.CellBlock {
		if m == Glue && !listed[netlist.CellID(i)] {
			t.Fatalf("glue cell %s missing from Glue", d.Cells[i].Name)
		}
	}
	if len(res.Glue) == 0 {
		t.Error("fixture has no glue; the Glue checks are vacuous")
	}
}

// TestDeclusterBlockAreas: block Area equals the sum of member cell areas.
func TestDeclusterBlockAreas(t *testing.T) {
	d := fig1Style(t)
	tr := New(d)
	res := tr.Decluster(d.Root())
	for _, b := range res.Blocks {
		var sum int64
		for _, cid := range b.Cells {
			sum += d.Cell(cid).Area()
		}
		if sum != b.Area {
			t.Errorf("block %s Area = %d, member sum %d", b.Name, b.Area, sum)
		}
	}
}

func TestDeclusterDeterministic(t *testing.T) {
	d := fig1Style(t)
	tr := New(d)
	a := tr.Decluster(d.Root())
	b := tr.Decluster(d.Root())
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatal("nondeterministic block count")
	}
	for i := range a.Blocks {
		if a.Blocks[i].Name != b.Blocks[i].Name {
			t.Fatalf("nondeterministic order: %s vs %s", a.Blocks[i].Name, b.Blocks[i].Name)
		}
	}
}

func TestMinAreaControlsSoftBlocks(t *testing.T) {
	// A soft leaf y of ~16% of the design falls under min_area (40%) and
	// drops to glue, while x (~47%) stays a block.
	b := fig1Builder()
	b.AddComb("y/logic", 20_000_000, "y")
	d := b.MustBuild()
	tr := New(d)
	res := tr.Decluster(d.Root())
	var names []string
	for _, b := range res.Blocks {
		names = append(names, b.Name)
	}
	if len(names) != 3 || !slices.Contains(names, "x") || slices.Contains(names, "y") {
		t.Errorf("blocks = %v, want left, right and x (y under min_area is glue)", names)
	}
	if y := tr.Area(d.NodeByPath("y")); res.GlueArea < y {
		t.Errorf("GlueArea = %d, want >= area of y (%d)", res.GlueArea, y)
	}
}

// TestAggregatesRenumberedIDs checks that New tolerates hierarchies whose
// node IDs are not in builder (parent-before-child) order, as produced by
// netlist.ReplaceHier and the autocluster rewrite pass.
func TestAggregatesRenumberedIDs(t *testing.T) {
	d := fig1Style(t)
	// Rebuild the hierarchy with leaves numbered BEFORE their parents:
	// root(0) -> mem(3) -> {bank0(1), bank1(2)}, logic cells at root.
	nodes := []netlist.NewHierNode{
		{Parent: netlist.None},
		{Name: "bank0", Parent: 3},
		{Name: "bank1", Parent: 3},
		{Name: "mem", Parent: 0},
	}
	cellNode := make([]netlist.HierID, len(d.Cells))
	macros := 0
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.KindMacro {
			cellNode[i] = netlist.HierID(1 + macros%2)
			macros++
		}
	}
	nd, err := netlist.ReplaceHier(d, nodes, cellNode)
	if err != nil {
		t.Fatalf("ReplaceHier: %v", err)
	}
	tr := New(nd)
	if got := tr.MacroCount(3); got != 16 {
		t.Errorf("mem macros = %d, want 16 (got wrong bottom-up order?)", got)
	}
	if got := tr.MacroCount(0); got != 16 {
		t.Errorf("root macros = %d, want 16", got)
	}
	if tr.Area(3) != tr.Area(1)+tr.Area(2) {
		t.Errorf("mem area %d != bank0 %d + bank1 %d", tr.Area(3), tr.Area(1), tr.Area(2))
	}
	var macroArea int64
	for i := range nd.Cells {
		if nd.Cells[i].Kind == netlist.KindMacro {
			macroArea += nd.Cells[i].Area()
		}
	}
	if tr.Area(3) != macroArea {
		t.Errorf("mem area = %d, want %d", tr.Area(3), macroArea)
	}
}
