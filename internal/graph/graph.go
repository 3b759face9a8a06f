// Package graph provides the compact connectivity structures used to
// traverse Gnet: a bipartite cell–net incidence in CSR (compressed sparse
// row) form, plus the reusable multi-source BFS used for glue-logic area
// assignment (paper §IV-C, which cites Then et al., "The more the merrier",
// for the traversal pattern).
//
// High-fanout nets make a materialized cell-to-cell clique quadratic; the
// bipartite form keeps every traversal linear in the number of pins.
package graph

import "repro/internal/netlist"

// CSR is a compressed adjacency: the neighbors of vertex v are
// Targets[Offsets[v]:Offsets[v+1]].
type CSR struct {
	Offsets []int32
	Targets []int32
}

// Row returns the adjacency list of vertex v.
func (c *CSR) Row(v int32) []int32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// NumVertices returns the number of rows.
func (c *CSR) NumVertices() int { return len(c.Offsets) - 1 }

// buildCSR packs (src, dst) pairs, provided via a counting pass and a fill
// pass, into CSR form. count[v] must hold the out-degree of v.
func buildCSR(count []int32, fill func(place func(src, dst int32))) CSR {
	n := len(count)
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + count[i]
	}
	targets := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	fill(func(src, dst int32) {
		targets[cursor[src]] = dst
		cursor[src]++
	})
	return CSR{Offsets: offsets, Targets: targets}
}

// Bipartite is the cell–net incidence of Gnet, direction-blind.
type Bipartite struct {
	CellNets CSR // cell -> nets it touches
	NetCells CSR // net -> cells on it
}

// BipartiteFromDesign builds the bipartite incidence of a design.
func BipartiteFromDesign(d *netlist.Design) *Bipartite {
	cellCount := make([]int32, len(d.Cells))
	netCount := make([]int32, len(d.Nets))
	for i := range d.Pins {
		cellCount[d.Pins[i].Cell]++
		netCount[d.Pins[i].Net]++
	}
	return &Bipartite{
		CellNets: buildCSR(cellCount, func(place func(src, dst int32)) {
			for i := range d.Pins {
				place(int32(d.Pins[i].Cell), int32(d.Pins[i].Net))
			}
		}),
		NetCells: buildCSR(netCount, func(place func(src, dst int32)) {
			for i := range d.Pins {
				place(int32(d.Pins[i].Net), int32(d.Pins[i].Cell))
			}
		}),
	}
}

// Unlabeled marks target cells a Labeler did not reach.
const Unlabeled int32 = -1

// Labeler runs repeated multi-source BFS labelings over one Bipartite,
// reusing its buffers across calls. Generation stamps mark what the current
// call has seen, so a call costs what its search visits, not the design
// size. A Labeler is not safe for concurrent use.
type Labeler struct {
	bp *Bipartite
	// gen numbers the current call. A cell is labeled (labelGen), a net
	// visited (netGen) or a cell a target (targetGen) in this call exactly
	// when its stamp equals gen; older stamps are stale.
	gen       uint32
	labelGen  []uint32
	labels    []int32
	netGen    []uint32
	targetGen []uint32
	remaining int // distinct targets not yet labeled
	queue     []int32
	out       []int32
}

// NewLabeler returns a Labeler over bp.
func (bp *Bipartite) NewLabeler() *Labeler {
	nCells := bp.CellNets.NumVertices()
	return &Labeler{
		bp:        bp,
		labelGen:  make([]uint32, nCells),
		labels:    make([]int32, nCells),
		netGen:    make([]uint32, bp.NetCells.NumVertices()),
		targetGen: make([]uint32, nCells),
	}
}

// Label runs a multi-source BFS over cells (stepping cell → net → cell)
// from the given seed cells and returns the label of each target cell:
// out[i] is the label of the seed nearest to targets[i], or Unlabeled where
// no seed reaches it. Ties resolve to the seed dequeued first, which is
// deterministic given the seed order; a duplicate seed keeps its first
// label. A BFS label is final the moment a cell is first reached, so the
// search stops as soon as every target has one. The returned slice is
// reused by the next call.
func (l *Labeler) Label(seeds, seedLabels, targets []int32) []int32 {
	l.gen++
	if l.gen == 0 {
		// The stamps wrapped around: clear them so no stale stamp can
		// equal a new generation.
		clear(l.labelGen)
		clear(l.netGen)
		clear(l.targetGen)
		l.gen = 1
	}
	l.remaining = 0
	for _, c := range targets {
		if l.targetGen[c] != l.gen {
			l.targetGen[c] = l.gen
			l.remaining++
		}
	}
	l.queue = l.queue[:0]
	if l.remaining > 0 {
		l.search(seeds, seedLabels)
	}
	l.out = l.out[:0]
	for _, c := range targets {
		label := Unlabeled
		if l.labelGen[c] == l.gen {
			label = l.labels[c]
		}
		l.out = append(l.out, label)
	}
	return l.out
}

// search runs the BFS until it is exhausted or every target is labeled.
func (l *Labeler) search(seeds, seedLabels []int32) {
	for i, s := range seeds {
		if l.labelGen[s] != l.gen && l.reach(s, seedLabels[i]) {
			return
		}
	}
	for head := 0; head < len(l.queue); head++ {
		v := l.queue[head]
		for _, nid := range l.bp.CellNets.Row(v) {
			if l.netGen[nid] == l.gen {
				continue
			}
			l.netGen[nid] = l.gen
			for _, c := range l.bp.NetCells.Row(nid) {
				if l.labelGen[c] != l.gen && l.reach(c, l.labels[v]) {
					return
				}
			}
		}
	}
}

// reach labels cell c, queues it, and reports whether every target now has
// a label.
func (l *Labeler) reach(c, label int32) bool {
	l.labelGen[c] = l.gen
	l.labels[c] = label
	l.queue = append(l.queue, c)
	if l.targetGen[c] == l.gen {
		l.remaining--
	}
	return l.remaining == 0
}
