// Package dataflow builds the dataflow graph Gdf of the paper (§II-C,
// §IV-D) and derives the affinity matrix Maff used by layout generation,
// as its sorted nonzero pairs.
//
// Gdf nodes are the floorplanning blocks of the current level plus the
// fixed terminals (multi-bit ports and macros outside the level). Every
// ordered node pair carries two latency histograms:
//
//   - block flow (E^b_df): paths found by a BFS over Gseq that starts from
//     all components of a block and traverses only glue logic;
//   - macro flow (E^m_df): paths between macros that may cross any Gseq
//     node except other macros.
//
// A histogram bin at latency l holds the number of bits arriving over
// shortest paths with l sequential hops. The affinity of an edge is
// score(h, k) = Σ bits_l / l^k, and the blended affinity is
// λ·score(block) + (1−λ)·score(macro), exactly the paper's parametric form.
package dataflow

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/hier"
	"repro/internal/seqgraph"
)

// Class classifies Gdf nodes.
type Class uint8

const (
	// ClassBlock is a floorplanning block of the current level.
	ClassBlock Class = iota
	// ClassPort is a multi-bit port terminal (fixed position).
	ClassPort
	// ClassExtMacro is a macro outside the current level (fixed position).
	ClassExtMacro
)

func (c Class) String() string {
	switch c {
	case ClassBlock:
		return "block"
	case ClassPort:
		return "port"
	case ClassExtMacro:
		return "extmacro"
	}
	return "?"
}

// Node is one Gdf vertex.
type Node struct {
	Class Class
	Name  string
	// Block is the block index for ClassBlock nodes, else -1.
	Block int32
	// Seq lists the member Gseq nodes.
	Seq []int32
}

// Bin is one histogram bin: Bits bits arriving at the given latency.
type Bin struct {
	Latency int32
	Bits    int64
}

// Histogram condenses the connectivity of one Gdf edge.
type Histogram struct {
	Bins []Bin // sorted by latency
}

// Add accumulates bits at a latency (clamped to a minimum of 1 so that the
// score stays finite on purely combinational block-to-block paths).
func (h *Histogram) Add(latency int32, bits int64) {
	if latency < 1 {
		latency = 1
	}
	i := sort.Search(len(h.Bins), func(i int) bool { return h.Bins[i].Latency >= latency })
	if i < len(h.Bins) && h.Bins[i].Latency == latency {
		h.Bins[i].Bits += bits
		return
	}
	h.Bins = append(h.Bins, Bin{})
	copy(h.Bins[i+1:], h.Bins[i:])
	h.Bins[i] = Bin{Latency: latency, Bits: bits}
}

// TotalBits returns the histogram mass.
func (h *Histogram) TotalBits() int64 {
	var t int64
	for _, b := range h.Bins {
		t += b.Bits
	}
	return t
}

// Score evaluates the paper's Σ bits_i / latency_i^k.
func (h *Histogram) Score(k float64) float64 {
	var s float64
	for _, b := range h.Bins {
		s += float64(b.Bits) / powf(float64(b.Latency), k)
	}
	return s
}

// powf computes x^k for x >= 1 without importing math for the common small
// integer exponents used here.
func powf(x, k float64) float64 {
	switch k {
	case 0:
		return 1
	case 1:
		return x
	case 2:
		return x * x
	case 3:
		return x * x * x
	}
	// Rare non-integer k: exp(k ln x) via a couple of Newton-ish terms is
	// overkill; fall back to repeated multiplication on the integer part
	// and linear blend on the fraction. Accuracy is ample for scoring.
	ik := int(k)
	r := 1.0
	for i := 0; i < ik; i++ {
		r *= x
	}
	frac := k - float64(ik)
	if frac > 0 {
		r *= 1 + frac*(x-1)
	}
	return r
}

// EdgeKey identifies a directed Gdf edge (from, to).
type EdgeKey struct{ From, To int32 }

// Graph is the dataflow graph of one floorplanning level.
type Graph struct {
	Nodes []Node
	// SeqToNode maps Gseq node -> Gdf node index, or -1 (glue).
	SeqToNode []int32
	// BlockFlow and MacroFlow hold the per-edge histograms.
	BlockFlow map[EdgeKey]*Histogram
	MacroFlow map[EdgeKey]*Histogram
}

// Build constructs Gdf for one level.
//
// sg is the design's sequential graph; decl is the declustering result of
// the level (block membership per design cell). Terminals (ports and
// macros whose cells are Outside the level) become fixed Gdf nodes.
func Build(sg *seqgraph.Graph, decl *hier.Result) *Graph {
	g := &Graph{
		SeqToNode: make([]int32, len(sg.Nodes)),
		BlockFlow: make(map[EdgeKey]*Histogram),
		MacroFlow: make(map[EdgeKey]*Histogram),
	}
	for i := range g.SeqToNode {
		g.SeqToNode[i] = -1
	}

	// Blocks first, in declustering order: Gdf node index == block index.
	for bi := range decl.Blocks {
		g.Nodes = append(g.Nodes, Node{
			Class: ClassBlock,
			Name:  decl.Blocks[bi].Name,
			Block: int32(bi),
		})
	}
	for si := range sg.Nodes {
		sn := &sg.Nodes[si]
		m := membership(sg, decl, int32(si))
		switch {
		case m >= 0:
			g.SeqToNode[si] = m
			g.Nodes[m].Seq = append(g.Nodes[m].Seq, int32(si))
		case sn.Kind == seqgraph.KindPort:
			g.SeqToNode[si] = int32(len(g.Nodes))
			g.Nodes = append(g.Nodes, Node{
				Class: ClassPort, Name: sn.Name, Block: -1, Seq: []int32{int32(si)},
			})
		case sn.Kind == seqgraph.KindMacro && isOutside(sg, decl, int32(si)):
			g.SeqToNode[si] = int32(len(g.Nodes))
			g.Nodes = append(g.Nodes, Node{
				Class: ClassExtMacro, Name: sn.Name, Block: -1, Seq: []int32{int32(si)},
			})
		default:
			// Glue registers (inside or outside the level): traversable.
		}
	}

	g.buildBlockFlow(sg)
	g.buildMacroFlow(sg)
	return g
}

// membership returns the block index of a Gseq node, or -1. A Gseq node's
// cells always share one hierarchy level, so the first cell decides.
func membership(sg *seqgraph.Graph, decl *hier.Result, si int32) int32 {
	m := decl.CellBlock[sg.Nodes[si].Cells[0]]
	if m >= 0 {
		return m
	}
	return -1
}

func isOutside(sg *seqgraph.Graph, decl *hier.Result, si int32) bool {
	return decl.CellBlock[sg.Nodes[si].Cells[0]] == hier.Outside
}

// buildBlockFlow runs, for every block and terminal, a multi-source BFS
// over Gseq that traverses only glue nodes and records arrivals into other
// blocks and terminals (paper: blue paths of Fig. 7a). Running the search
// from terminals as well makes input-port → block flow visible; edges in
// Gseq are directed, so a search seeded only at blocks would never see it.
func (g *Graph) buildBlockFlow(sg *seqgraph.Graph) {
	dist := make([]int32, len(sg.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	var q queue
	var seen []int32 // nodes whose dist the previous search set
	for from := range g.Nodes {
		// Undo only what the previous search touched, so a search costs
		// what it visits rather than the size of Gseq.
		for _, v := range seen {
			dist[v] = -1
		}
		seen = seen[:0]
		q.reset()
		for _, si := range g.Nodes[from].Seq {
			dist[si] = 0
			seen = append(seen, si)
			q.push(si)
		}
		for !q.empty() {
			u := q.pop()
			for _, e := range sg.Out[u] {
				v := e.To
				if dist[v] >= 0 {
					continue
				}
				dist[v] = dist[u] + 1
				seen = append(seen, v)
				target := g.SeqToNode[v]
				if target >= 0 && target != int32(from) {
					// Arrival: bits of the final hop at the path latency.
					g.addBits(g.BlockFlow, int32(from), target, dist[v], int64(e.Bits))
					continue // do not traverse through blocks/terminals
				}
				if target < 0 {
					q.push(v) // glue: keep going
				}
				// target == from: re-entered own block; stop.
			}
		}
	}
}

// buildMacroFlow aggregates, onto the Gdf edge of the owning blocks and
// terminals, every shortest path from a macro to another macro that crosses
// any Gseq node except macros (paper: red paths of Fig. 7a). The searches
// do not depend on the level, so Gseq runs them once (MacroPaths); a level
// only maps their endpoints onto its nodes and drops paths inside one node.
func (g *Graph) buildMacroFlow(sg *seqgraph.Graph) {
	for _, p := range sg.MacroPaths() {
		fromNode, toNode := g.SeqToNode[p.From], g.SeqToNode[p.To]
		if fromNode >= 0 && toNode >= 0 && toNode != fromNode {
			g.addBits(g.MacroFlow, fromNode, toNode, p.Latency, int64(p.Bits))
		}
	}
}

func (g *Graph) addBits(m map[EdgeKey]*Histogram, from, to, latency int32, bits int64) {
	k := EdgeKey{from, to}
	h := m[k]
	if h == nil {
		h = &Histogram{}
		m[k] = h
	}
	h.Add(latency, bits)
}

// queue is a simple FIFO of Gseq node indices.
type queue struct {
	items []int32
	head  int
}

func (q *queue) reset()       { q.items, q.head = q.items[:0], 0 }
func (q *queue) push(v int32) { q.items = append(q.items, v) }
func (q *queue) empty() bool  { return q.head >= len(q.items) }
func (q *queue) pop() int32   { v := q.items[q.head]; q.head++; return v }

// Params parameterizes the affinity computation.
type Params struct {
	// Lambda blends block flow (λ) against macro flow (1−λ).
	Lambda float64
	// K is the latency decay exponent of score(h, k).
	K float64
}

// DefaultParams returns λ=0.5, k=2.
func DefaultParams() Params { return Params{Lambda: 0.5, K: 2} }

// Pair is one nonzero entry of the symmetric affinity matrix Maff: the
// affinity W between Gdf nodes I < J.
type Pair struct {
	I, J int32
	W    float64
}

// Pairs computes Maff as its nonzero upper-triangle entries, sorted by
// (I, J): for every unordered node pair the λ-blend of both directions'
// histogram scores. A level has far fewer edges than node pairs, so this
// costs the level's edges, not its nodes squared.
//
// Each weight sums its contributions from 0 in one fixed order — block
// flow I→J, block flow J→I, macro flow I→J, macro flow J→I — because float
// addition is not associative: map-order accumulation would make the
// weights' bit patterns differ run to run, nondeterminism that feeds
// straight into λ-candidate costs. Regression-pinned by
// TestAffinityAccumulationOrder. Pairs whose weight sums to exactly 0 are
// dropped.
func (g *Graph) Pairs(p Params) []Pair {
	// contrib is one directed edge's share of a pair; dir ranks it in the
	// accumulation order above.
	type contrib struct {
		i, j int32
		dir  uint8
		s    float64
	}
	mk := func(k EdgeKey, flow uint8, s float64) contrib {
		if k.From < k.To {
			return contrib{k.From, k.To, flow, s}
		}
		return contrib{k.To, k.From, flow + 1, s}
	}
	cs := make([]contrib, 0, len(g.BlockFlow)+len(g.MacroFlow))
	for k, h := range g.BlockFlow {
		cs = append(cs, mk(k, 0, p.Lambda*h.Score(p.K)))
	}
	for k, h := range g.MacroFlow {
		cs = append(cs, mk(k, 2, (1-p.Lambda)*h.Score(p.K)))
	}
	slices.SortFunc(cs, func(a, b contrib) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		if c := cmp.Compare(a.j, b.j); c != 0 {
			return c
		}
		return cmp.Compare(a.dir, b.dir)
	})
	pairs := make([]Pair, 0, len(cs))
	for k := 0; k < len(cs); {
		pr := Pair{I: cs[k].i, J: cs[k].j}
		for ; k < len(cs) && cs[k].i == pr.I && cs[k].j == pr.J; k++ {
			pr.W += cs[k].s
		}
		if pr.I != pr.J && pr.W != 0 {
			pairs = append(pairs, pr)
		}
	}
	return pairs
}

// Affinity is the dense (len(Nodes))² view of Pairs, symmetric with a zero
// diagonal. Of the program, only the benchmark module still reads it; the
// rest takes Pairs, which costs the level's edges instead.
func (g *Graph) Affinity(p Params) [][]float64 {
	n := len(g.Nodes)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, pr := range g.Pairs(p) {
		m[pr.I][pr.J] = pr.W
		m[pr.J][pr.I] = pr.W
	}
	return m
}

// Stats is the Gdf row of Table I.
type Stats struct {
	Nodes      int
	Blocks     int
	Ports      int
	ExtMacros  int
	BlockEdges int
	MacroEdges int
}

// Stats summarizes the graph.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), BlockEdges: len(g.BlockFlow), MacroEdges: len(g.MacroFlow)}
	for i := range g.Nodes {
		switch g.Nodes[i].Class {
		case ClassBlock:
			s.Blocks++
		case ClassPort:
			s.Ports++
		case ClassExtMacro:
			s.ExtMacros++
		}
	}
	return s
}
