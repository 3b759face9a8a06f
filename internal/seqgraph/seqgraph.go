// Package seqgraph builds the sequential graph Gseq of the paper (§II-C,
// §IV-D): a directed graph whose vertices are macros, multi-bit registers
// and multi-bit ports, and whose edges capture one-sequential-hop
// connectivity with the bus width that crosses the hop.
//
// Construction from Gnet follows the paper's four steps:
//
//  1. combinational cells are elided by tracing through them,
//  2. flops and ports are clustered into arrays using component names
//     (name[n] / name_n),
//  3. edges between sequential components are inferred by traversing the
//     combinational fanout cones of every driven net,
//  4. array nodes narrower than a threshold are discarded to reduce graph
//     size while keeping the relatively big components.
//
// Edge width is exact per bit: the width of edge (u, v) is the number of
// distinct output nets of u whose combinational cone reaches v. A path of k
// edges has latency k (k sequential captures).
package seqgraph

import (
	"sort"
	"sync"

	"repro/internal/netlist"
)

// NodeKind classifies Gseq vertices.
type NodeKind uint8

const (
	// KindRegister is a multi-bit register (clustered flops).
	KindRegister NodeKind = iota
	// KindMacro is a hard macro.
	KindMacro
	// KindPort is a multi-bit port (clustered top-level port bits).
	KindPort
)

func (k NodeKind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindMacro:
		return "macro"
	case KindPort:
		return "port"
	}
	return "?"
}

// Node is one Gseq vertex.
type Node struct {
	Kind NodeKind
	Name string // array base name (full hierarchical prefix kept)
	Bits int32  // node weight: number of clustered bits (1 for macros' cell count)
	// Cells are the Gnet cells clustered into this node: the flop bits of a
	// register, the bit cells of a port, or the single macro cell.
	Cells []netlist.CellID
	// Hier is the hierarchy node of the first member cell; registers never
	// cluster across hierarchy levels because base names keep full paths.
	Hier netlist.HierID
}

// Edge is a directed Gseq edge u -> v carrying Bits bus width.
type Edge struct {
	To   int32
	Bits int32
}

// Graph is the sequential graph.
type Graph struct {
	D     *netlist.Design
	Nodes []Node
	// Out[u] lists the outgoing edges of node u, sorted by target.
	Out [][]Edge
	// CellNode maps every design cell to its Gseq node, or -1 (combinational
	// cells and discarded narrow arrays).
	CellNode []int32

	macroOnce  sync.Once
	macroPaths []MacroPath
}

// Params controls Gseq construction.
type Params struct {
	// MinBits discards register and port arrays narrower than this
	// (macros are always kept). The paper uses an unspecified threshold;
	// 2 removes single-bit control flops by default.
	MinBits int32
}

// DefaultParams returns the default construction parameters.
func DefaultParams() Params { return Params{MinBits: 2} }

// Build constructs Gseq from a design.
func Build(d *netlist.Design, p Params) *Graph {
	g := &Graph{D: d, CellNode: make([]int32, len(d.Cells))}
	for i := range g.CellNode {
		g.CellNode[i] = -1
	}

	// Steps 2 and 4: cluster flops and ports into arrays, filter narrow ones.
	type cluster struct {
		kind  NodeKind
		cells []netlist.CellID
	}
	byBase := map[string]*cluster{}
	var order []string // deterministic node order
	addMember := func(base string, kind NodeKind, cid netlist.CellID) {
		cl, ok := byBase[base]
		if !ok {
			cl = &cluster{kind: kind}
			byBase[base] = cl
			order = append(order, base)
		}
		cl.cells = append(cl.cells, cid)
	}
	for i := range d.Cells {
		cid := netlist.CellID(i)
		c := d.Cell(cid)
		switch c.Kind {
		case netlist.KindFlop:
			base, _, _ := netlist.ArrayBase(c.Name)
			addMember("r:"+base, KindRegister, cid)
		case netlist.KindPort:
			base, _, _ := netlist.ArrayBase(c.Name)
			addMember("p:"+base, KindPort, cid)
		case netlist.KindMacro:
			// Every macro is its own node.
			g.Nodes = append(g.Nodes, Node{
				Kind:  KindMacro,
				Name:  c.Name,
				Bits:  1,
				Cells: []netlist.CellID{cid},
				Hier:  c.Hier,
			})
			g.CellNode[cid] = int32(len(g.Nodes) - 1)
		}
	}
	for _, base := range order {
		cl := byBase[base]
		if int32(len(cl.cells)) < p.MinBits {
			continue // step 4: discard narrow arrays
		}
		n := Node{
			Kind:  cl.kind,
			Name:  base[2:],
			Bits:  int32(len(cl.cells)),
			Cells: cl.cells,
			Hier:  d.Cell(cl.cells[0]).Hier,
		}
		g.Nodes = append(g.Nodes, n)
		id := int32(len(g.Nodes) - 1)
		for _, cid := range cl.cells {
			g.CellNode[cid] = id
		}
	}

	g.buildEdges()
	return g
}

// buildEdges performs steps 1 and 3: for every output net of every Gseq
// node, trace the combinational cone and record which Gseq nodes it reaches.
func (g *Graph) buildEdges() {
	d := g.D
	g.Out = make([][]Edge, len(g.Nodes))

	// Per-net sink lists and per-cell output nets, built once.
	netEpoch := make([]int32, len(d.Nets))
	targetEpoch := make([]int32, len(g.Nodes))
	for i := range netEpoch {
		netEpoch[i] = -1
	}
	for i := range targetEpoch {
		targetEpoch[i] = -1
	}
	epoch := int32(0)

	bitCount := make(map[[2]int32]int32) // (u, v) -> bits
	var netStack []netlist.NetID

	for u := range g.Nodes {
		for _, cid := range g.Nodes[u].Cells {
			cell := d.Cell(cid)
			for _, pid := range cell.Pins {
				pin := d.Pin(pid)
				if pin.Dir != netlist.DirOut {
					continue
				}
				// One driven net = one bit. BFS its combinational cone.
				epoch++
				netStack = netStack[:0]
				netStack = append(netStack, pin.Net)
				netEpoch[pin.Net] = epoch
				for len(netStack) > 0 {
					nid := netStack[len(netStack)-1]
					netStack = netStack[:len(netStack)-1]
					for _, spid := range d.Net(nid).Pins {
						sp := d.Pin(spid)
						if sp.Dir != netlist.DirIn {
							continue
						}
						sink := d.Cell(sp.Cell)
						if sink.Kind == netlist.KindComb {
							// Step 1: trace through combinational cells.
							for _, opid := range sink.Pins {
								op := d.Pin(opid)
								if op.Dir == netlist.DirOut && netEpoch[op.Net] != epoch {
									netEpoch[op.Net] = epoch
									netStack = append(netStack, op.Net)
								}
							}
							continue
						}
						v := g.CellNode[sp.Cell]
						if v < 0 || int(v) == u {
							continue // discarded array or self-loop
						}
						if targetEpoch[v] != epoch {
							targetEpoch[v] = epoch
							bitCount[[2]int32{int32(u), v}]++
						}
					}
				}
			}
		}
	}

	for k, bits := range bitCount {
		g.Out[k[0]] = append(g.Out[k[0]], Edge{To: k[1], Bits: bits})
	}
	for u := range g.Out {
		sort.Slice(g.Out[u], func(i, j int) bool { return g.Out[u][i].To < g.Out[u][j].To })
	}
}

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.Out {
		n += len(es)
	}
	return n
}

// NodeByName returns the index of the named node, or -1. O(n); for tests.
func (g *Graph) NodeByName(name string) int32 {
	for i := range g.Nodes {
		if g.Nodes[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// EdgeBits returns the width of edge (u, v) and whether it exists.
func (g *Graph) EdgeBits(u, v int32) (int32, bool) {
	es := g.Out[u]
	i := sort.Search(len(es), func(i int) bool { return es[i].To >= v })
	if i < len(es) && es[i].To == v {
		return es[i].Bits, true
	}
	return 0, false
}

// MacroPath is one macro-to-macro arrival of the macro-flow search: the
// shortest path from macro From to macro To that crosses no other macro.
type MacroPath struct {
	From, To int32 // Gseq macro nodes
	// Latency counts the path's sequential hops.
	Latency int32
	// Bits is the width of the edge the search first reached To over.
	Bits int32
}

// MacroPaths returns, for every macro in node order, the arrivals of a BFS
// from that macro that never traverses through another macro, in BFS
// order. The searches depend on the graph alone, so they run once, on
// first use, and every later call shares the result; concurrent first
// calls are safe. The caller must not modify the returned slice.
func (g *Graph) MacroPaths() []MacroPath {
	g.macroOnce.Do(func() {
		dist := make([]int32, len(g.Nodes))
		for i := range dist {
			dist[i] = -1
		}
		var queue, seen []int32
		for si := range g.Nodes {
			if g.Nodes[si].Kind != KindMacro {
				continue
			}
			for _, v := range seen {
				dist[v] = -1
			}
			queue = append(queue[:0], int32(si))
			seen = append(seen[:0], int32(si))
			dist[si] = 0
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				for _, e := range g.Out[u] {
					v := e.To
					if dist[v] >= 0 {
						continue
					}
					dist[v] = dist[u] + 1
					seen = append(seen, v)
					if g.Nodes[v].Kind == KindMacro {
						g.macroPaths = append(g.macroPaths, MacroPath{
							From: int32(si), To: v, Latency: dist[v], Bits: e.Bits,
						})
						continue // never traverse through macros
					}
					queue = append(queue, v)
				}
			}
		}
	})
	return g.macroPaths
}

// Stats is the Gseq row of Table I.
type Stats struct {
	Nodes     int
	Registers int
	Macros    int
	Ports     int
	Edges     int
	TotalBits int64
}

// Stats summarizes the graph.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), Edges: g.NumEdges()}
	for i := range g.Nodes {
		switch g.Nodes[i].Kind {
		case KindRegister:
			s.Registers++
		case KindMacro:
			s.Macros++
		case KindPort:
			s.Ports++
		}
		s.TotalBits += int64(g.Nodes[i].Bits)
	}
	return s
}
