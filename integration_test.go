package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/circuits"
	"repro/hidap"
	"repro/internal/flows"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/place"
)

// TestEndToEndSuiteCircuit runs all three flows on a small suite circuit
// and checks the cross-flow invariants the tables rely on.
func TestEndToEndSuiteCircuit(t *testing.T) {
	spec, err := circuits.SuiteSpec("c1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 1000
	g := circuits.Generate(spec)

	opt := flows.DefaultOptions()
	opt.Effort = layout.EffortLow
	opt.Lambdas = []float64{0.5}

	var rows []*flows.Metrics
	for _, f := range []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP} {
		m, pl, err := flows.Run(context.Background(), g, f, opt)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if ov := pl.MacroOverlapArea(); ov != 0 {
			t.Errorf("%s: overlapping macros (%d)", f, ov)
		}
		if err := pl.MacrosInsideDie(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		// Every movable cell must be placed for the metrics to mean anything.
		for i := range g.Design.Cells {
			if g.Design.Cells[i].Kind != netlist.KindPort && !pl.Placed[i] {
				t.Fatalf("%s: cell %s unplaced", f, g.Design.Cells[i].Name)
			}
		}
		rows = append(rows, m)
	}
	flows.Normalize(rows)
	sums := flows.Summarize(rows)
	if len(sums) != 3 {
		t.Fatalf("summaries: %d", len(sums))
	}
}

// placeHiDaP places d with the "hidap" flow as one non-evaluating job on a
// one-worker Engine whose config is built from opts.
func placeHiDaP(t *testing.T, d *hidap.Design, opts ...hidap.Option) (*hidap.Placement, error) {
	t.Helper()
	eng := hidap.NewEngine(hidap.NewConfig(opts...), hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	res, err := eng.Run(context.Background(), hidap.Job{Design: d, Placer: "hidap"})
	if err != nil {
		return nil, err
	}
	return res.Placement, nil
}

// TestVerilogExportImport writes a generated circuit as flat Verilog and
// elaborates it back, checking the structural counts survive.
func TestVerilogExportImport(t *testing.T) {
	g := circuits.Generate(circuits.Spec{
		Name: "vx", Cells: 100_000, Macros: 4, Subsystems: 2,
		BusWidth: 16, Scale: 1000, Seed: 7,
	})
	d := g.Design

	// Build a library covering the design's macro outlines.
	lib := hidap.DefaultLibrary()
	type outline struct{ w, h int64 }
	seen := map[outline]bool{}
	for _, m := range d.Macros() {
		c := d.Cell(m)
		o := outline{c.Width, c.Height}
		if seen[o] {
			continue
		}
		seen[o] = true
		ins := 0
		for _, pid := range c.Pins {
			if d.Pin(pid).Dir == netlist.DirIn {
				ins++
			}
		}
		lib.AddMacro(fmt.Sprintf("MACRO_%dX%d", c.Width, c.Height), c.Width, c.Height, ins)
	}

	var sb strings.Builder
	if err := hidap.WriteVerilog(&sb, d, lib); err != nil {
		t.Fatal(err)
	}
	d2, err := hidap.ParseVerilog(sb.String(), "vx", lib)
	if err != nil {
		t.Fatalf("re-elaborate: %v", err)
	}
	s1, s2 := d.Stats(), d2.Stats()
	if s1.MacroCells != s2.MacroCells || s1.Flops != s2.Flops || s1.Comb != s2.Comb {
		t.Errorf("structure changed: %+v vs %+v", s1, s2)
	}
}

// TestPlaceOverfullDie injects an infeasible instance: macros whose total
// area exceeds the die. The flow must not panic and must keep macros
// inside the die (overlaps allowed only if physically unavoidable — here
// they are, so we only check containment and termination).
func TestPlaceOverfullDie(t *testing.T) {
	b := hidap.NewDesign("overfull")
	b.SetDie(hidap.RectXYWH(0, 0, 50_000, 50_000))
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("u%d", i)
		m := b.AddMacro(path+"/mem", 30_000, 30_000, path) // 4x900M > 2500M die
		r := b.AddFlop(path+"/d[0]", path)
		b.Wire(fmt.Sprintf("n%d", i), r, m)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placeHiDaP(t, d)
	if err != nil {
		t.Fatalf("Place should degrade gracefully: %v", err)
	}
	if err := pl.MacrosInsideDie(); err != nil {
		t.Error(err)
	}
}

// TestPlaceMacroLargerThanDie: a single macro that cannot fit is clamped
// to the die origin-side without crashing, both hierarchically and flat
// (where the macro is the one block of a layout level).
func TestPlaceMacroLargerThanDie(t *testing.T) {
	b := hidap.NewDesign("giant")
	b.SetDie(hidap.RectXYWH(0, 0, 10_000, 10_000))
	b.AddMacro("m", 20_000, 5_000, "u")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts []hidap.Option
	}{{"hierarchical", nil}, {"flat", []hidap.Option{hidap.WithFlat()}}} {
		pl, err := placeHiDaP(t, d, mode.opts...)
		if err != nil {
			t.Fatalf("%s: Place: %v", mode.name, err)
		}
		m := d.Macros()[0]
		r := pl.Rect(m)
		if r.X != 0 && r.X2() != d.Die.X2() {
			t.Errorf("%s: oversized macro not anchored to die: %v", mode.name, r)
		}
	}
}

// TestPlaceMacroOnlyDesign: no standard cells at all.
func TestPlaceMacroOnlyDesign(t *testing.T) {
	b := hidap.NewDesign("macroonly")
	b.SetDie(hidap.RectXYWH(0, 0, 100_000, 100_000))
	var prev hidap.CellID = -1
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("u%d", i)
		m := b.AddMacro(path+"/mem", 20_000, 15_000, path)
		if prev >= 0 {
			b.Wire(fmt.Sprintf("n%d", i), prev, m)
		}
		prev = m
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placeHiDaP(t, d)
	if err != nil {
		t.Fatal(err)
	}
	if ov := pl.MacroOverlapArea(); ov != 0 {
		t.Errorf("overlap = %d", ov)
	}
	// Cell placement over a macro-only design is a no-op but must succeed.
	if err := place.Run(context.Background(), pl, place.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

// TestDEFHandoff: place, export DEF, re-import onto a fresh placement.
func TestDEFHandoff(t *testing.T) {
	g := circuits.ABCDX()
	pl, err := placeHiDaP(t, g.Design)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hidap.WriteDEF(&sb, pl); err != nil {
		t.Fatal(err)
	}
	fresh := pl.Clone()
	for _, m := range g.Design.Macros() {
		fresh.Placed[m] = false
	}
	if err := hidap.ApplyDEF(fresh, strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	for _, m := range g.Design.Macros() {
		if fresh.Pos[m] != pl.Pos[m] || fresh.Orient[m] != pl.Orient[m] {
			t.Fatalf("DEF handoff mismatch on %s", g.Design.Cell(m).Name)
		}
	}
}
