// Package hier implements the hierarchy-tree analysis of the HiDaP flow:
// per-subtree area and macro aggregates over HT, and the hierarchical
// declustering of paper §IV-B (Algorithm 3) that selects, for one
// floorplanning level, the set of blocks to place (HCB) and the small glue
// nodes (HCG) whose area is later folded into the blocks.
package hier

import (
	"fmt"
	"sync"

	"repro/internal/netlist"
)

// Tree caches subtree aggregates of a design's hierarchy.
type Tree struct {
	D *netlist.Design
	// SubArea[n] is the total outline area of all non-port cells under n
	// (inclusive). SubMacros[n] counts macros under n.
	SubArea   []int64
	SubMacros []int32

	// cellBlocks pools design-sized CellBlock buffers (*cellBlock), every
	// entry Outside, so a recursion that releases each level's result
	// does not allocate len(D.Cells) per level.
	cellBlocks sync.Pool
}

// cellBlock is one pooled Result.CellBlock buffer.
type cellBlock struct{ m []int32 }

// New computes the aggregates for a design.
func New(d *netlist.Design) *Tree {
	t := &Tree{
		D:         d,
		SubArea:   make([]int64, len(d.Hier)),
		SubMacros: make([]int32, len(d.Hier)),
	}
	// A reverse topological sweep aggregates bottom-up. Builder-produced
	// designs happen to order children after parents, but rebuilt
	// hierarchies (netlist.ReplaceHier, autocluster) may not, so the order
	// is derived from the tree itself.
	order := d.HierTopo()
	for oi := len(order) - 1; oi >= 0; oi-- {
		i := order[oi]
		n := &d.Hier[i]
		for _, cid := range n.Cells {
			c := d.Cell(cid)
			if c.Kind == netlist.KindPort {
				continue
			}
			t.SubArea[i] += c.Area()
			if c.Kind == netlist.KindMacro {
				t.SubMacros[i]++
			}
		}
		for _, ch := range n.Children {
			t.SubArea[i] += t.SubArea[ch]
			t.SubMacros[i] += t.SubMacros[ch]
		}
	}
	return t
}

// Area returns the subtree cell area of node n.
func (t *Tree) Area(n netlist.HierID) int64 { return t.SubArea[n] }

// MacroCount returns the number of macros under node n.
func (t *Tree) MacroCount(n netlist.HierID) int32 { return t.SubMacros[n] }

// MacrosUnder appends all macro cell IDs under node n to dst (pre-order).
func (t *Tree) MacrosUnder(n netlist.HierID, dst []netlist.CellID) []netlist.CellID {
	node := t.D.Node(n)
	for _, cid := range node.Cells {
		if t.D.Cell(cid).Kind == netlist.KindMacro {
			dst = append(dst, cid)
		}
	}
	for _, ch := range node.Children {
		dst = t.MacrosUnder(ch, dst)
	}
	return dst
}

// Block is one floorplanning block produced by declustering: either a
// hierarchy subtree (Node valid) or a bare macro cell that sits directly at
// the declustered level (Macro valid, Node == None).
type Block struct {
	Name       string
	Node       netlist.HierID // None for bare-macro blocks
	Macro      netlist.CellID // None unless a bare-macro block
	Cells      []netlist.CellID
	MacroCells []netlist.CellID
	Area       int64 // am seed: outline area of member cells
}

// MacroCount returns the number of macros in the block.
func (b *Block) MacroCount() int { return len(b.MacroCells) }

// Membership constants for Result.CellBlock.
const (
	// Glue marks a cell under nh that belongs to no block (HCG logic).
	Glue int32 = -1
	// Outside marks a cell that is not under the declustered node at all.
	Outside int32 = -2
)

// Result is the outcome of declustering one hierarchy node.
type Result struct {
	Blocks []Block
	// CellBlock maps every cell of the design to the index of its block,
	// or Glue / Outside. It is valid until Tree.Release(res).
	CellBlock []int32
	// Glue lists the glue cells under nh (those whose CellBlock is Glue),
	// so a level can visit its glue without scanning the whole design.
	Glue []netlist.CellID
	// GlueArea is the total area of glue cells under nh.
	GlueArea int64

	pooled *cellBlock // CellBlock's buffer, when it came from a Tree's pool
}

// The declustering thresholds of the paper's experiments, as fractions of
// the area of the declustered node: a macro-free subtree above open_area
// is opened up, and one that stays closed becomes a block only above
// min_area (else it is glue).
const (
	openAreaFrac = 0.01
	minAreaFrac  = 0.40
)

// Decluster computes the blocks for floorplanning the subtree of nh.
//
// Interpretation notes: the BFS queue is seeded with the children of nh
// (seeding with nh itself would degenerate at the top call because the root
// contains macros); macro cells sitting directly at an expanded level
// become bare-macro blocks; and if the sweep produces fewer than two
// blocks, the single surviving block is transparently expanded again so
// that wrapper modules do not stall the recursion.
//
// CellBlock comes from the tree's pool; a caller that is done with it
// passes the result to Release so the next Decluster reuses the buffer.
func (t *Tree) Decluster(nh netlist.HierID) *Result {
	d := t.D
	openArea := int64(openAreaFrac * float64(t.SubArea[nh]))
	minArea := int64(minAreaFrac * float64(t.SubArea[nh]))

	cb, _ := t.cellBlocks.Get().(*cellBlock)
	if cb == nil {
		cb = &cellBlock{m: make([]int32, len(d.Cells))}
		for i := range cb.m {
			cb.m[i] = Outside
		}
	}
	res := &Result{CellBlock: cb.m, pooled: cb}

	var glueNodes []netlist.HierID
	var glueCells []netlist.CellID

	// expandInto pushes the internals of node n: children onto the queue,
	// direct macro cells as bare-macro blocks, remaining direct cells as glue.
	var queue []netlist.HierID
	expandInto := func(n netlist.HierID) {
		node := d.Node(n)
		queue = append(queue, node.Children...)
		for _, cid := range node.Cells {
			c := d.Cell(cid)
			switch c.Kind {
			case netlist.KindMacro:
				res.Blocks = append(res.Blocks, Block{
					Name:       c.Name,
					Node:       netlist.None,
					Macro:      cid,
					Cells:      []netlist.CellID{cid},
					MacroCells: []netlist.CellID{cid},
					Area:       c.Area(),
				})
			case netlist.KindPort:
				// Ports are terminals, never block members.
			default:
				glueCells = append(glueCells, cid)
			}
		}
	}

	// sweep runs Algorithm 3 with the queue seeded from the internals of
	// start. It resets any previous outcome so it can be re-run for the
	// wrapper-collapse case.
	sweep := func(start netlist.HierID) {
		res.Blocks = res.Blocks[:0]
		glueNodes = glueNodes[:0]
		glueCells = glueCells[:0]
		queue = queue[:0]
		expandInto(start)
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			switch {
			case t.SubMacros[m] == 0 && t.SubArea[m] > openArea && len(d.Node(m).Children) > 0:
				expandInto(m)
			case t.SubArea[m] > minArea || t.SubMacros[m] > 0:
				res.Blocks = append(res.Blocks, t.subtreeBlock(m))
			default:
				glueNodes = append(glueNodes, m)
			}
		}
	}

	sweep(nh)
	// Wrapper collapse: a single subtree block cannot be floorplanned at
	// this level; open it up and try again. Each iteration descends one
	// hierarchy level, so this terminates at the leaves.
	for len(res.Blocks) == 1 && res.Blocks[0].Node != netlist.None {
		node := d.Node(res.Blocks[0].Node)
		hasMacroCell := false
		for _, cid := range node.Cells {
			if d.Cell(cid).Kind == netlist.KindMacro {
				hasMacroCell = true
			}
		}
		if len(node.Children) == 0 && !hasMacroCell {
			break // a true leaf block: nothing to open
		}
		sweep(res.Blocks[0].Node)
	}

	// Materialize membership.
	for bi := range res.Blocks {
		for _, cid := range res.Blocks[bi].Cells {
			res.CellBlock[cid] = int32(bi)
		}
	}
	for _, gn := range glueNodes {
		glueCells = d.SubtreeCells(gn, glueCells)
	}
	for _, cid := range glueCells {
		if d.Cell(cid).Kind == netlist.KindPort {
			continue
		}
		res.CellBlock[cid] = Glue
		res.Glue = append(res.Glue, cid)
		res.GlueArea += d.Cell(cid).Area()
	}
	return res
}

// Release returns res.CellBlock's buffer to the tree's pool and clears the
// field. It resets only the entries Decluster set (block cells and glue),
// so it costs the level, not the design. Releasing a result twice, or one
// whose CellBlock the tree did not allocate, does nothing.
func (t *Tree) Release(res *Result) {
	cb := res.pooled
	if cb == nil {
		return
	}
	for bi := range res.Blocks {
		for _, cid := range res.Blocks[bi].Cells {
			cb.m[cid] = Outside
		}
	}
	for _, cid := range res.Glue {
		cb.m[cid] = Outside
	}
	res.CellBlock, res.pooled = nil, nil
	t.cellBlocks.Put(cb)
}

// subtreeBlock materializes a hierarchy node as a block.
func (t *Tree) subtreeBlock(n netlist.HierID) Block {
	d := t.D
	cells := d.SubtreeCells(n, nil)
	b := Block{Name: d.Node(n).Path, Node: n, Macro: netlist.None}
	for _, cid := range cells {
		c := d.Cell(cid)
		if c.Kind == netlist.KindPort {
			continue
		}
		b.Cells = append(b.Cells, cid)
		b.Area += c.Area()
		if c.Kind == netlist.KindMacro {
			b.MacroCells = append(b.MacroCells, cid)
		}
	}
	if b.Name == "" {
		b.Name = fmt.Sprintf("node%d", n)
	}
	return b
}
