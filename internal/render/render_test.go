package render

import (
	"strings"
	"testing"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/geom"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/seqgraph"
)

func placedABCDX(t *testing.T) (*circuits.Generated, *placement.Placement) {
	t.Helper()
	g := circuits.ABCDX()
	pl := placement.New(g.Design)
	for _, m := range g.Design.Macros() {
		r := g.Intent[g.Design.Cell(m).Name]
		pl.Place(m, geom.Pt(r.X, r.Y))
	}
	return g, pl
}

func TestFloorplanSVG(t *testing.T) {
	_, pl := placedABCDX(t)
	var sb strings.Builder
	Floorplan(&sb, pl, 400)
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	// 8 macros plus die plus port markers: expect many rects.
	if strings.Count(svg, "<rect") < 9 {
		t.Errorf("rects = %d, want >= 9", strings.Count(svg, "<rect"))
	}
}

func TestBlockTraceSVG(t *testing.T) {
	die := geom.RectXYWH(0, 0, 1000, 1000)
	level := core.LevelTrace{
		Region: die,
		Blocks: []core.TraceBlock{
			{Name: "a", Rect: geom.RectXYWH(0, 0, 500, 1000), MacroCount: 4},
			{Name: "b", Rect: geom.RectXYWH(500, 0, 500, 1000), MacroCount: 0},
		},
	}
	var sb strings.Builder
	BlockTrace(&sb, die, level, 300)
	svg := sb.String()
	if !strings.Contains(svg, ">4</text>") {
		t.Error("macro count label missing")
	}
}

func TestDensityMapSVGAndASCII(t *testing.T) {
	_, pl := placedABCDX(t)
	// Give every movable cell a position so density has content.
	for i := range pl.D.Cells {
		if !pl.Placed[i] {
			pl.Place(netlist.CellID(i), pl.D.Die.Center())
		}
	}
	dm := metrics.Density(pl, 16)
	var sb strings.Builder
	DensityMap(&sb, pl, dm, 320)
	if !strings.Contains(sb.String(), "</svg>") {
		t.Error("density SVG incomplete")
	}
	txt := DensityASCII(dm)
	lines := strings.Split(strings.TrimRight(txt, "\n"), "\n")
	if len(lines) != 16 {
		t.Errorf("ascii rows = %d, want 16", len(lines))
	}
	for _, ln := range lines {
		if len(ln) != 16 {
			t.Fatalf("ascii row width %d, want 16", len(ln))
		}
	}
}

func TestDataflowSVG(t *testing.T) {
	g, pl := placedABCDX(t)
	tr := hier.New(g.Design)
	decl := tr.Decluster(g.Design.Root())
	sg := seqgraph.Build(g.Design, seqgraph.DefaultParams())
	gdf := dataflow.Build(sg, decl)
	pairs := gdf.Pairs(dataflow.DefaultParams())
	rects := make([]geom.Rect, len(decl.Blocks))
	for i := range rects {
		rects[i] = geom.RectXYWH(int64(i)*100_000, 0, 90_000, 90_000)
	}
	var sb strings.Builder
	Dataflow(&sb, g.Design.Die, gdf, pairs, rects, nil, 400)
	svg := sb.String()
	if strings.Count(svg, "<line") == 0 {
		t.Error("no affinity edges drawn")
	}
	if !strings.Contains(svg, "</svg>") {
		t.Error("incomplete SVG")
	}
	_ = pl
}

func TestHeatRamp(t *testing.T) {
	if heat(0) != "#ffffff" {
		t.Errorf("heat(0) = %s, want white", heat(0))
	}
	if heat(1) == heat(0) {
		t.Error("heat ramp flat")
	}
	if heat(-1) != heat(0) || heat(2) != heat(1) {
		t.Error("heat not clamped")
	}
}
