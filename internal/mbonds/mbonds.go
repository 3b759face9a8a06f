// Package mbonds derives macro-level attraction bonds from the flat
// netlist: for every macro, a bounded breadth-first search over the
// sequential graph finds the macros and ports reachable within a few
// register hops, weighted by bus width. This is the connectivity model a
// netlist-only floorplanner works with — no hierarchy, no array names, no
// latency decay. Refine is the one refinement anneal both comparison flows
// (IndEDA, handFP) run on it: swap, slide and, with a wall weight, snap
// moves scored by bond wirelength plus overlap (and wall) penalties.
package mbonds

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/seqgraph"
)

// Bond is one attraction: between two macros, or a macro and a fixed point.
type Bond struct {
	A netlist.CellID
	// B is the peer macro, or None when the bond targets a fixed point.
	B netlist.CellID
	// Fixed is the attraction point when B is None (a port position).
	Fixed geom.Point
	// W is the bond weight (bits reaching within the hop budget).
	W float64
}

// maxHops is the BFS depth of the extraction over Gseq: macro wrappers put
// one or two register stages between macros.
const maxHops = 4

// Extract computes the bond list of a design. Deterministic: bonds are
// sorted by (A, B).
func Extract(d *netlist.Design) []Bond {
	// Gseq with no width filtering: a plain netlist tool sees everything.
	sg := seqgraph.Build(d, seqgraph.Params{MinBits: 0})

	// Undirected adjacency over Gseq so attraction is symmetric.
	type edge struct {
		to   int32
		bits int32
	}
	adj := make([][]edge, len(sg.Nodes))
	for u := range sg.Out {
		for _, e := range sg.Out[u] {
			adj[u] = append(adj[u], edge{e.To, e.Bits})
			adj[e.To] = append(adj[e.To], edge{int32(u), e.Bits})
		}
	}

	isMacro := func(n int32) bool { return sg.Nodes[n].Kind == seqgraph.KindMacro }
	isPort := func(n int32) bool { return sg.Nodes[n].Kind == seqgraph.KindPort }

	portPos := func(n int32) geom.Point {
		var sx, sy, cnt int64
		for _, cid := range sg.Nodes[n].Cells {
			pp := d.PortPos(cid)
			sx += pp.X
			sy += pp.Y
			cnt++
		}
		if cnt == 0 {
			return d.Die.Center()
		}
		return geom.Pt(sx/cnt, sy/cnt)
	}

	type key struct{ a, b netlist.CellID }
	macroBond := map[key]float64{}
	type pkey struct {
		a netlist.CellID
		p int32
	}
	portBond := map[pkey]float64{}

	dist := make([]int32, len(sg.Nodes))
	for si := range sg.Nodes {
		if !isMacro(int32(si)) {
			continue
		}
		src := sg.Nodes[si].Cells[0]
		for i := range dist {
			dist[i] = -1
		}
		queue := []int32{int32(si)}
		dist[si] = 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if dist[u] >= maxHops {
				continue
			}
			for _, e := range adj[u] {
				if dist[e.to] >= 0 {
					continue
				}
				dist[e.to] = dist[u] + 1
				switch {
				case isMacro(e.to):
					dst := sg.Nodes[e.to].Cells[0]
					if dst == src {
						continue
					}
					a, b := src, dst
					if a > b {
						a, b = b, a
					}
					macroBond[key{a, b}] += float64(e.bits)
					// Do not traverse through macros.
				case isPort(e.to):
					portBond[pkey{src, e.to}] += float64(e.bits)
					// Ports terminate paths too.
				default:
					queue = append(queue, e.to)
				}
			}
		}
	}

	bonds := make([]Bond, 0, len(macroBond)+len(portBond))
	for k, w := range macroBond {
		bonds = append(bonds, Bond{A: k.a, B: k.b, W: w})
	}
	for k, w := range portBond {
		bonds = append(bonds, Bond{A: k.a, B: netlist.None, Fixed: portPos(k.p), W: w})
	}
	sort.Slice(bonds, func(i, j int) bool {
		if bonds[i].A != bonds[j].A {
			return bonds[i].A < bonds[j].A
		}
		if bonds[i].B != bonds[j].B {
			return bonds[i].B < bonds[j].B
		}
		if bonds[i].Fixed.X != bonds[j].Fixed.X {
			return bonds[i].Fixed.X < bonds[j].Fixed.X
		}
		return bonds[i].Fixed.Y < bonds[j].Fixed.Y
	})
	return bonds
}

// WL evaluates the bond wirelength of a macro placement: Σ W · dist.
func WL(pl *placement.Placement, bonds []Bond) float64 {
	var sum float64
	for i := range bonds {
		b := &bonds[i]
		pa := pl.Center(b.A)
		var pb geom.Point
		if b.B == netlist.None {
			pb = b.Fixed
		} else {
			pb = pl.Center(b.B)
		}
		sum += b.W * float64(pa.ManhattanDist(pb))
	}
	return sum
}
