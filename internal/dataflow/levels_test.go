package dataflow

import (
	"context"
	"testing"

	"repro/circuits"
	"repro/internal/hier"
	"repro/internal/sched"
	"repro/internal/seqgraph"
)

// buildMacroFlowRef is the per-level macro-flow search Build ran before
// Gseq cached the searches (seqgraph.Graph.MacroPaths): a BFS from every
// macro of the level, repeated at every level.
func (g *Graph) buildMacroFlowRef(sg *seqgraph.Graph) {
	n := len(sg.Nodes)
	dist := make([]int32, n)
	for si := range sg.Nodes {
		if sg.Nodes[si].Kind != seqgraph.KindMacro {
			continue
		}
		fromNode := g.SeqToNode[si]
		if fromNode < 0 {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		queue := queue{}
		dist[si] = 0
		queue.push(int32(si))
		for !queue.empty() {
			u := queue.pop()
			for _, e := range sg.Out[u] {
				v := e.To
				if dist[v] >= 0 {
					continue
				}
				dist[v] = dist[u] + 1
				if sg.Nodes[v].Kind == seqgraph.KindMacro {
					toNode := g.SeqToNode[v]
					if toNode >= 0 && toNode != fromNode {
						g.addBits(g.MacroFlow, fromNode, toNode, dist[v], int64(e.Bits))
					}
					continue // never traverse through macros
				}
				queue.push(v)
			}
		}
	}
}

// buildBlockFlowRef is the block-flow search with a whole-Gseq distance
// reset before every source, as Build ran it before the reset followed the
// nodes each search touched.
func (g *Graph) buildBlockFlowRef(sg *seqgraph.Graph) {
	dist := make([]int32, len(sg.Nodes))
	for from := range g.Nodes {
		for i := range dist {
			dist[i] = -1
		}
		queue := queue{}
		for _, si := range g.Nodes[from].Seq {
			dist[si] = 0
			queue.push(si)
		}
		for !queue.empty() {
			u := queue.pop()
			for _, e := range sg.Out[u] {
				v := e.To
				if dist[v] >= 0 {
					continue
				}
				dist[v] = dist[u] + 1
				target := g.SeqToNode[v]
				if target >= 0 && target != int32(from) {
					g.addBits(g.BlockFlow, int32(from), target, dist[v], int64(e.Bits))
					continue
				}
				if target < 0 {
					queue.push(v)
				}
			}
		}
	}
}

// recursionLevels returns the declustering of every level the HiDaP
// recursion floorplans with two or more blocks: the root, then every block
// with two or more macros, depth first.
func recursionLevels(tree *hier.Tree) []*hier.Result {
	var out []*hier.Result
	var walk func(decl *hier.Result)
	walk = func(decl *hier.Result) {
		if len(decl.Blocks) < 2 {
			return
		}
		out = append(out, decl)
		for i := range decl.Blocks {
			if b := &decl.Blocks[i]; b.MacroCount() >= 2 {
				walk(tree.Decluster(b.Node))
			}
		}
	}
	walk(tree.Decluster(tree.D.Root()))
	return out
}

// sameFlows reports the first difference between two edge-histogram maps.
func sameFlows(t *testing.T, what string, got, want map[EdgeKey]*Histogram) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g == nil || len(g.Bins) != len(w.Bins) {
			t.Fatalf("%s: edge %v = %v, want %v", what, k, g, w)
		}
		for i := range w.Bins {
			if g.Bins[i] != w.Bins[i] {
				t.Fatalf("%s: edge %v bins %v, want %v", what, k, g.Bins, w.Bins)
			}
		}
	}
}

// TestBuildMatchesReference holds Build to the per-level reference
// searches at every multi-block level of the suite circuits' recursion:
// the same histograms, and bit-identical affinity pairs at several λ.
func TestBuildMatchesReference(t *testing.T) {
	for _, spec := range circuits.Suite() {
		spec.Scale = 400
		gen := circuits.Generate(spec)
		sg := gen.SeqGraph()
		levels := recursionLevels(hier.New(gen.Design))
		if len(levels) < 2 {
			t.Fatalf("%s: %d multi-block levels; the recursion is not exercised", spec.Name, len(levels))
		}
		for li, decl := range levels {
			got := Build(sg, decl)
			ref := &Graph{
				Nodes:     got.Nodes,
				SeqToNode: got.SeqToNode,
				BlockFlow: make(map[EdgeKey]*Histogram),
				MacroFlow: make(map[EdgeKey]*Histogram),
			}
			ref.buildBlockFlowRef(sg)
			ref.buildMacroFlowRef(sg)
			sameFlows(t, spec.Name+" block flow", got.BlockFlow, ref.BlockFlow)
			sameFlows(t, spec.Name+" macro flow", got.MacroFlow, ref.MacroFlow)
			for _, lambda := range []float64{0.2, 0.5, 0.8} {
				p := Params{Lambda: lambda, K: 2}
				samePairs(t, spec.Name, got.Pairs(p), ref.Pairs(p))
			}
			if li == 0 && len(got.MacroFlow) == 0 {
				t.Fatalf("%s: top level has no macro flow; the check is vacuous", spec.Name)
			}
		}
	}
}

// TestBuildConcurrentFirstUse runs Build on one fresh Gseq from several
// tasks at once, so the tasks race to fill the Gseq's macro-path cache
// (run under -race in CI). Every task must get the serial result.
func TestBuildConcurrentFirstUse(t *testing.T) {
	spec, err := circuits.SuiteSpec("c5")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 400
	gen := circuits.Generate(spec)
	decl := hier.New(gen.Design).Decluster(gen.Design.Root())
	want := Build(seqgraph.Build(gen.Design, seqgraph.DefaultParams()), decl)

	shared := seqgraph.Build(gen.Design, seqgraph.DefaultParams())
	pool := sched.NewPool(4)
	defer pool.Close()
	got := make([]*Graph, 8)
	g := pool.Group(context.Background())
	for i := range got {
		g.Go(func(context.Context) { got[i] = Build(shared, decl) })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	for _, gi := range got {
		sameFlows(t, "concurrent macro flow", gi.MacroFlow, want.MacroFlow)
		samePairs(t, "concurrent", gi.Pairs(p), want.Pairs(p))
	}
}
