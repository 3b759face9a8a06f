package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/layout"
)

// TestPlaceLevelAllocs bounds the bytes one core.Place allocates per design
// cell per recursion level, with the design artifacts prebuilt the way the
// Engine caches them. A level that did O(design) work would allocate a few
// whole-design arrays per level and break the bound.
func TestPlaceLevelAllocs(t *testing.T) {
	const maxBytesPerCellLevel = 32
	c4, err := circuits.SuiteSpec("c4")
	if err != nil {
		t.Fatal(err)
	}
	c4.Scale = 100
	specs := []circuits.Spec{
		{
			Name: "soc", Cells: 2_000_000, Macros: 40, Subsystems: 16,
			BusWidth: 64, PipelineDepth: 2, Scale: 2000, Seed: 201,
		},
		c4,
	}
	for _, spec := range specs {
		g := circuits.Generate(spec)
		d := g.Design
		opt := core.DefaultOptions()
		opt.Effort = layout.EffortLow
		opt.Parallelism = 1
		opt.SeqGraph = g.SeqGraph()
		opt.Tree = hier.New(d)
		opt.Bipartite = graph.BipartiteFromDesign(d)
		// The first call fills the caches an Engine keeps warm across jobs.
		if _, err := core.Place(context.Background(), d, opt); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := core.Place(context.Background(), d, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		perCellLevel := float64(bytes) / float64(len(d.Cells)*res.Levels)
		t.Logf("%s: %d cells, %d levels, %d bytes: %.1f bytes per cell per level",
			spec.Name, len(d.Cells), res.Levels, bytes, perCellLevel)
		if perCellLevel > maxBytesPerCellLevel {
			t.Errorf("%s: %.1f bytes per cell per level, want <= %d", spec.Name, perCellLevel, maxBytesPerCellLevel)
		}
	}
}
