package hidap

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hier"
	"repro/internal/seqgraph"
)

// FlowEdge describes one dataflow-graph edge for inspection and
// visualization (the arrows of the paper's Figs. 2 and 9d).
type FlowEdge struct {
	From, To string
	// Bits is the total bus width over all latencies.
	Bits int64
	// MinLatency is the shortest path latency in sequential hops.
	MinLatency int32
	// Score is the affinity contribution score(h, k).
	Score float64
}

// DataflowEdges declusters the top level of a design and returns its block
// flow and macro flow edge lists, scored with decay exponent k.
func DataflowEdges(d *Design, k float64) (blockFlow, macroFlow []FlowEdge) {
	tr := hier.New(d)
	decl := tr.Decluster(d.Root())
	sg := seqgraph.Build(d, seqgraph.DefaultParams())
	gdf := dataflow.Build(sg, decl)
	conv := func(m map[dataflow.EdgeKey]*dataflow.Histogram) []FlowEdge {
		// Iterate in sorted key order, then stable-sort by display name:
		// the name sort alone left identically-named nodes in map order.
		keys := make([]dataflow.EdgeKey, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].From != keys[j].From {
				return keys[i].From < keys[j].From
			}
			return keys[i].To < keys[j].To
		})
		out := make([]FlowEdge, 0, len(keys))
		for _, key := range keys {
			h := m[key]
			e := FlowEdge{
				From:  gdf.Nodes[key.From].Name,
				To:    gdf.Nodes[key.To].Name,
				Bits:  h.TotalBits(),
				Score: h.Score(k),
			}
			if len(h.Bins) > 0 {
				e.MinLatency = h.Bins[0].Latency
			}
			out = append(out, e)
		}
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].From != out[j].From {
				return out[i].From < out[j].From
			}
			return out[i].To < out[j].To
		})
		return out
	}
	return conv(gdf.BlockFlow), conv(gdf.MacroFlow)
}

// ShapePoint is one Pareto corner of a shape curve: a minimal bounding box
// that can hold a slicing placement of a block's macros (paper Fig. 4).
type ShapePoint struct {
	W, H int64
}

// ShapeCurveFor computes the shape curve of the macros under a hierarchy
// path ("" for the whole design). It returns nil when the subtree holds no
// macros.
func ShapeCurveFor(d *Design, path string) []ShapePoint {
	nh := d.NodeByPath(path)
	if nh == -1 {
		return nil
	}
	tr := hier.New(d)
	//hidapvet:allow ctxflow synchronous inspection helper with no cancellation surface; curve generation for one node is fast
	sc := core.GenerateShapeCurves(context.Background(), tr, 1)
	curve, ok := sc.ByNode[nh]
	if !ok {
		return nil
	}
	var out []ShapePoint
	for _, p := range curve.Points() {
		out = append(out, ShapePoint{W: p.W, H: p.H})
	}
	return out
}

// TopBlocks returns the names and macro counts of the blocks the first
// declustering level produces — the partition of the paper's Fig. 1a.
func TopBlocks(d *Design) (names []string, macroCounts []int) {
	tr := hier.New(d)
	decl := tr.Decluster(d.Root())
	for i := range decl.Blocks {
		names = append(names, decl.Blocks[i].Name)
		macroCounts = append(macroCounts, decl.Blocks[i].MacroCount())
	}
	return names, macroCounts
}
