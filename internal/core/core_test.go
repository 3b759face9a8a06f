package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/shape"
)

// miniSoC builds a two-subsystem design with four macros per subsystem,
// register pipelines inside each subsystem, a wide bus between the two, and
// ports on the west edge feeding subsystem A.
func miniSoC(t testing.TB) *netlist.Design {
	b := netlist.NewBuilder("minisoc")
	b.SetDie(geom.RectXYWH(0, 0, 60_000, 60_000))

	addSub := func(name string) (regs []netlist.CellID, macros []netlist.CellID) {
		for mi := 0; mi < 4; mi++ {
			path := fmt.Sprintf("%s/ram%d", name, mi)
			m := b.AddMacro(path+"/mem", 9_000, 6_000, path)
			macros = append(macros, m)
			// Each macro has a 16-bit input register in its wrapper.
			for bit := 0; bit < 16; bit++ {
				r := b.AddFlop(fmt.Sprintf("%s/d[%d]", path, bit), path)
				b.ConnectAt(m, b.Wire(fmt.Sprintf("%s_n%d", path, bit), r), netlist.DirIn,
					geom.Pt(0, int64(200+bit*100)))
				regs = append(regs, r)
			}
			b.AddComb(path+"/lg", 200_000, path)
		}
		b.AddComb(name+"/glue", 2_000_000, name)
		return regs, macros
	}
	aRegs, _ := addSub("subA")
	bRegs, _ := addSub("subB")

	// 32-bit pipeline A -> B through a glue register stage.
	for bit := 0; bit < 32; bit++ {
		src := aRegs[bit%len(aRegs)]
		mid := b.AddFlop(fmt.Sprintf("xfer/t[%d]", bit), "xfer")
		dst := bRegs[bit%len(bRegs)]
		c1 := b.AddComb(fmt.Sprintf("xc1_%dx", bit), 300, "xfer")
		b.Wire(fmt.Sprintf("xa%d", bit), src, c1)
		b.Wire(fmt.Sprintf("xb%d", bit), c1, mid)
		c2 := b.AddComb(fmt.Sprintf("xc2_%dx", bit), 300, "xfer")
		b.Wire(fmt.Sprintf("xc%d", bit), mid, c2)
		b.Wire(fmt.Sprintf("xd%d", bit), c2, dst)
	}

	// 16 west-edge ports feeding subsystem A registers.
	for bit := 0; bit < 16; bit++ {
		p := b.AddPort(fmt.Sprintf("din[%d]", bit))
		b.SetPortPos(p, geom.Pt(0, int64(10_000+bit*2_000)))
		c := b.AddComb(fmt.Sprintf("pc_%dx", bit), 300, "")
		b.Wire(fmt.Sprintf("pi%d", bit), p, c)
		b.Wire(fmt.Sprintf("pa%d", bit), c, aRegs[bit])
	}
	return b.MustBuild()
}

func TestPlaceEndToEnd(t *testing.T) {
	d := miniSoC(t)
	opt := DefaultOptions()
	opt.Seed = 42
	opt.Trace = true
	res, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	pl := res.Placement
	if !pl.AllMacrosPlaced() {
		t.Fatal("macros left unplaced")
	}
	if err := pl.MacrosInsideDie(); err != nil {
		t.Fatal(err)
	}
	if ov := pl.MacroOverlapArea(); ov != 0 {
		t.Errorf("macro overlap area = %d, want 0", ov)
	}
	if res.Levels < 3 {
		t.Errorf("Levels = %d, want >= 3 (top + two subsystems)", res.Levels)
	}
	if len(res.Trace) == 0 {
		t.Error("trace requested but empty")
	}
	if res.Trace[0].Depth != 0 || len(res.Trace[0].Blocks) < 2 {
		t.Errorf("top trace level: %+v", res.Trace[0])
	}
}

func TestPlaceDeterministic(t *testing.T) {
	d := miniSoC(t)
	opt := DefaultOptions()
	opt.Seed = 7
	r1, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Macros() {
		if r1.Placement.Pos[m] != r2.Placement.Pos[m] ||
			r1.Placement.Orient[m] != r2.Placement.Orient[m] {
			t.Fatalf("macro %s nondeterministic: %v/%v vs %v/%v",
				d.Cell(m).Name,
				r1.Placement.Pos[m], r1.Placement.Orient[m],
				r2.Placement.Pos[m], r2.Placement.Orient[m])
		}
	}
}

func TestPlaceSeedMatters(t *testing.T) {
	d := miniSoC(t)
	a, err := Place(context.Background(), d, Options{Knobs: Knobs{Lambda: 0.5, K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(context.Background(), d, Options{Knobs: Knobs{Lambda: 0.5, K: 2, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, m := range d.Macros() {
		if a.Placement.Pos[m] != b.Placement.Pos[m] {
			same = false
		}
	}
	if same {
		t.Log("warning: different seeds produced identical placements (possible but suspicious)")
	}
}

func TestPlaceSubsystemCohesion(t *testing.T) {
	// Macros of the same subsystem should cluster: the mean intra-subsystem
	// macro distance must be below the mean inter-subsystem distance.
	d := miniSoC(t)
	opt := DefaultOptions()
	opt.Seed = 3
	res, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	var subA, subB []geom.Point
	for _, m := range d.Macros() {
		c := res.Placement.Center(m)
		if d.Cell(m).Name[:4] == "subA" {
			subA = append(subA, c)
		} else {
			subB = append(subB, c)
		}
	}
	intra := meanDist(subA, subA) + meanDist(subB, subB)
	inter := 2 * meanDist(subA, subB)
	if intra >= inter {
		t.Errorf("intra-subsystem distance %v not below inter %v", intra, inter)
	}
}

func meanDist(a, b []geom.Point) float64 {
	var sum float64
	n := 0
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				continue
			}
			d := a[i].ManhattanDist(b[j])
			if d == 0 {
				continue
			}
			sum += float64(d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestPlaceNoMacrosFails(t *testing.T) {
	b := netlist.NewBuilder("nomacro")
	b.AddComb("c", 100, "")
	d := b.MustBuild()
	if _, err := Place(context.Background(), d, DefaultOptions()); err == nil {
		t.Error("expected error for macro-free design")
	}
}

func TestGenerateShapeCurves(t *testing.T) {
	d := miniSoC(t)
	tr := hier.New(d)
	sc := GenerateShapeCurves(context.Background(), tr, 1)

	// Every node with macros has a non-empty curve.
	for i := range d.Hier {
		id := netlist.HierID(i)
		if tr.SubMacros[id] > 0 {
			c, ok := sc.ByNode[id]
			if !ok || c.Empty() {
				t.Errorf("node %s: missing shape curve", d.Node(id).Path)
			}
		} else if _, ok := sc.ByNode[id]; ok {
			t.Errorf("node %s: unexpected curve for macro-free node", d.Node(id).Path)
		}
	}

	// The subsystem curve must be able to hold its four 9000x6000 macros:
	// min area >= 4 * macro area.
	sub := d.NodeByPath("subA")
	c := sc.ByNode[sub]
	if c.MinArea() < 4*9000*6000 {
		t.Errorf("subA curve min area %d below macro area", c.MinArea())
	}
	// And some corner must be achievable in a reasonable bounding box
	// (say within 3x the ideal square side).
	side := int64(1)
	for side*side < 4*9000*6000 {
		side *= 2
	}
	if !c.Fits(3*side, 3*side) {
		t.Errorf("subA curve cannot fit a generous square: %v", c)
	}
}

func TestShapeCurveLeafRotatable(t *testing.T) {
	d := miniSoC(t)
	tr := hier.New(d)
	sc := GenerateShapeCurves(context.Background(), tr, 1)
	for m, c := range sc.ByMacro {
		cell := d.Cell(m)
		if !c.Fits(cell.Width, cell.Height) || !c.Fits(cell.Height, cell.Width) {
			t.Errorf("macro %s curve not rotatable: %v", cell.Name, c)
		}
	}
}

func TestComposePartsTwo(t *testing.T) {
	a := shape.FromBox(10, 20)
	b := shape.FromBox(30, 5)
	c := composeParts(context.Background(), []shape.Curve{a, b}, 1, nil)
	// H composition: 40 x 20; V composition: 30 x 25.
	if !c.Fits(40, 20) || !c.Fits(30, 25) {
		t.Errorf("compose missing realizations: %v", c)
	}
	if c.Fits(29, 19) {
		t.Errorf("compose too optimistic: %v", c)
	}
}

func TestLegalizeMacrosSeparates(t *testing.T) {
	b := netlist.NewBuilder("lg")
	b.SetDie(geom.RectXYWH(0, 0, 10_000, 10_000))
	var ids []netlist.CellID
	for i := 0; i < 4; i++ {
		ids = append(ids, b.AddMacro(fmt.Sprintf("m%d", i), 2_000, 2_000, ""))
	}
	d := b.MustBuild()
	pl := placement.New(d)
	// Stack all four at the same spot.
	for _, id := range ids {
		pl.Place(id, geom.Pt(4_000, 4_000))
	}
	legalize.Macros(pl, d.Die)
	if ov := pl.MacroOverlapArea(); ov != 0 {
		t.Errorf("overlap after legalize = %d", ov)
	}
	if err := pl.MacrosInsideDie(); err != nil {
		t.Error(err)
	}
}

func TestFlippingImprovesPinWL(t *testing.T) {
	// A macro with its pin on the east edge, connected to a port on the
	// west: flipping must mirror the macro so the pin faces west.
	b := netlist.NewBuilder("flip")
	b.SetDie(geom.RectXYWH(0, 0, 10_000, 10_000))
	m := b.AddMacro("m", 2_000, 1_000, "")
	p := b.AddPort("in")
	b.SetPortPos(p, geom.Pt(0, 500))
	n := b.Net("n")
	b.Connect(p, n, netlist.DirOut)
	b.ConnectAt(m, n, netlist.DirIn, geom.Pt(2_000, 500)) // east-edge pin
	d := b.MustBuild()

	pl := placement.New(d)
	pl.Place(m, geom.Pt(4_000, 0))
	before := pl.TotalHPWL()
	flips := pl.FlipMacros(d.Macros(), nil, nil, 4)
	after := pl.TotalHPWL()
	if flips != 1 {
		t.Errorf("flips = %d, want 1", flips)
	}
	if after >= before {
		t.Errorf("flipping did not improve WL: %d -> %d", before, after)
	}
	if pl.Orient[m] != geom.MY {
		t.Errorf("orientation = %v, want MY", pl.Orient[m])
	}
}

func TestFlatModePlacesAllMacros(t *testing.T) {
	d := miniSoC(t)
	opt := DefaultOptions()
	opt.Flat = true
	opt.Seed = 5
	opt.Trace = true
	res, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.AllMacrosPlaced() {
		t.Fatal("flat mode left macros unplaced")
	}
	if ov := res.Placement.MacroOverlapArea(); ov != 0 {
		t.Errorf("flat overlap = %d", ov)
	}
	if res.Levels != 1 {
		t.Errorf("flat Levels = %d, want 1", res.Levels)
	}
	if len(res.Trace) != 1 || len(res.Trace[0].Blocks) != len(d.Macros()) {
		t.Errorf("flat trace should have one level with one block per macro")
	}
}

// TestTargetAreasGlueAdoption exercises §IV-C (Fig. 6) directly: glue
// cells join their BFS-nearest block's target area.
func TestTargetAreasGlueAdoption(t *testing.T) {
	b := netlist.NewBuilder("ta")
	b.SetDie(geom.RectXYWH(0, 0, 200_000, 200_000))
	// Two macro blocks; glue g1 wired to block A, glue g2 wired to block B,
	// orphan glue g3 connected to nothing.
	mA := b.AddMacro("A/mem", 10_000, 10_000, "A")
	mB := b.AddMacro("B/mem", 10_000, 10_000, "B")
	rA := b.AddFlop("A/r[0]", "A")
	rB := b.AddFlop("B/r[0]", "B")
	b.Wire("na", rA, mA)
	b.Wire("nb", rB, mB)
	g1 := b.AddComb("glue/g1", 40_000_000, "glue")
	g2 := b.AddComb("glue/g2", 40_000_000, "glue")
	b.AddComb("glue/g3", 10_000_000, "glue")
	b.Wire("ng1", rA, g1)
	b.Wire("ng2", rB, g2)
	d := b.MustBuild()

	st := &flowState{
		d:    d,
		tree: hier.New(d),
		bp:   graphBipartite(d),
	}
	decl := st.tree.Decluster(d.Root())
	if len(decl.Blocks) != 2 {
		t.Fatalf("blocks = %d, want A and B", len(decl.Blocks))
	}
	at := st.targetAreas(decl)
	for i := range decl.Blocks {
		// Each block's target area grew by its adopted glue (~40M) plus a
		// half share of the 10M orphan.
		extra := at[i] - decl.Blocks[i].Area
		if extra < 40_000_000 || extra > 50_000_000 {
			t.Errorf("block %s adopted %d glue area, want ~45M", decl.Blocks[i].Name, extra)
		}
	}
}

func graphBipartite(d *netlist.Design) *graph.Bipartite { return graph.BipartiteFromDesign(d) }
