// Package netlist defines the hierarchical netlist model consumed by the
// HiDaP flow: the bit-level connectivity graph Gnet of the paper, annotated
// with the RTL hierarchy tree and array-structured component names.
//
// The model is flat at the cell level — every cell carries the hierarchy
// node it belongs to — which keeps graph traversals cache-friendly while
// preserving the full hierarchy tree that drives multi-level declustering.
// All containers are index-based slices so traversal order is deterministic.
package netlist

import (
	"fmt"

	"repro/internal/geom"
)

// CellKind classifies the vertices of Gnet (macros M, ports P, sequential
// cells F and combinational cells C in the paper's notation).
type CellKind uint8

const (
	// KindComb is a combinational standard cell.
	KindComb CellKind = iota
	// KindFlop is a single-bit sequential element (register bit).
	KindFlop
	// KindMacro is a hard macro, typically a memory.
	KindMacro
	// KindPort is a top-level design port, modeled as a fixed cell on the
	// die boundary.
	KindPort
)

var kindNames = [...]string{"comb", "flop", "macro", "port"}

func (k CellKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// PinDir is the direction of a pin relative to its cell.
type PinDir uint8

const (
	// DirIn marks a pin through which the net drives the cell.
	DirIn PinDir = iota
	// DirOut marks a pin through which the cell drives the net.
	DirOut
)

func (d PinDir) String() string {
	if d == DirIn {
		return "in"
	}
	return "out"
}

// CellID indexes Design.Cells. NetID indexes Design.Nets. PinID indexes
// Design.Pins. HierID indexes Design.Hier. All are -1 when invalid.
type (
	CellID int32
	NetID  int32
	PinID  int32
	HierID int32
)

// None is the invalid value for all ID types.
const None = -1

// Cell is one vertex of Gnet.
type Cell struct {
	Name string   // full hierarchical name, e.g. "top/sub0/pipe_r[3]"
	Kind CellKind // vertex class
	// Width and Height are the library outline. Macros have their real
	// dimensions; standard cells have a footprint derived from their area
	// and the row height; ports are zero-sized.
	Width, Height int64
	Hier          HierID // hierarchy node owning this cell
	// Pins lists the cell's pins (indices into Design.Pins), fixed at Build.
	Pins []PinID
}

// Area returns the outline area of the cell.
func (c *Cell) Area() int64 { return c.Width * c.Height }

// Net is one bit-level net.
type Net struct {
	Name string
	// Pins lists the connections of the net (indices into Design.Pins).
	Pins []PinID
}

// Pin connects a cell to a net.
type Pin struct {
	Cell CellID
	Net  NetID
	Dir  PinDir
	// Offset is the pin location within the cell's library outline. It is
	// meaningful for macros (used by the flipping post-process) and zero
	// for standard cells and ports.
	Offset geom.Point
}

// HierNode is one level of the RTL hierarchy tree (a vertex of HT).
type HierNode struct {
	ID       HierID
	Name     string // local instance name ("" for the root)
	Path     string // full path from the root, "/"-separated
	Parent   HierID // None for the root
	Children []HierID
	Cells    []CellID // cells directly at this level (not in sub-levels)
}

// Design is a frozen netlist: Gnet plus the hierarchy tree HT.
type Design struct {
	Name string
	// Die is the placement area. Its origin is normally (0, 0).
	Die geom.Rect
	// RowHeight is the standard cell row height of the synthetic library.
	RowHeight int64

	Cells []Cell
	Nets  []Net
	Pins  []Pin
	Hier  []HierNode // Hier[0] is the root

	// portPos holds the fixed die-boundary locations of port cells.
	portPos map[CellID]geom.Point
}

// PortPos returns the fixed location of a port cell. Ports without an
// assigned location report the center of the die's left edge.
func (d *Design) PortPos(id CellID) geom.Point {
	if p, ok := d.portPos[id]; ok {
		return p
	}
	return geom.Pt(d.Die.X, d.Die.Y+d.Die.H/2)
}

// HasPortPos reports whether the port has an explicit location.
func (d *Design) HasPortPos(id CellID) bool {
	_, ok := d.portPos[id]
	return ok
}

// Root returns the hierarchy root node ID.
func (d *Design) Root() HierID { return 0 }

// Cell returns the cell with the given ID.
func (d *Design) Cell(id CellID) *Cell { return &d.Cells[id] }

// Net returns the net with the given ID.
func (d *Design) Net(id NetID) *Net { return &d.Nets[id] }

// Pin returns the pin with the given ID.
func (d *Design) Pin(id PinID) *Pin { return &d.Pins[id] }

// Node returns the hierarchy node with the given ID.
func (d *Design) Node(id HierID) *HierNode { return &d.Hier[id] }

// NumCells returns the number of cells (including ports).
func (d *Design) NumCells() int { return len(d.Cells) }

// Macros returns the IDs of all macro cells, in ID order.
func (d *Design) Macros() []CellID {
	var out []CellID
	for i := range d.Cells {
		if d.Cells[i].Kind == KindMacro {
			out = append(out, CellID(i))
		}
	}
	return out
}

// Ports returns the IDs of all port cells, in ID order.
func (d *Design) Ports() []CellID {
	var out []CellID
	for i := range d.Cells {
		if d.Cells[i].Kind == KindPort {
			out = append(out, CellID(i))
		}
	}
	return out
}

// CellByName returns the ID of the uniquely named cell, or None.
// It is O(n) and intended for tests and tools, not inner loops.
func (d *Design) CellByName(name string) CellID {
	for i := range d.Cells {
		if d.Cells[i].Name == name {
			return CellID(i)
		}
	}
	return None
}

// NodeByPath returns the hierarchy node with the given path, or None.
func (d *Design) NodeByPath(path string) HierID {
	for i := range d.Hier {
		if d.Hier[i].Path == path {
			return HierID(i)
		}
	}
	return None
}

// SubtreeCells appends to dst the IDs of all cells under node n (inclusive)
// and returns the extended slice. Order is deterministic (pre-order).
func (d *Design) SubtreeCells(n HierID, dst []CellID) []CellID {
	node := d.Node(n)
	dst = append(dst, node.Cells...)
	for _, c := range node.Children {
		dst = d.SubtreeCells(c, dst)
	}
	return dst
}

// Stats summarizes the design (the Gnet row of Table I).
type Stats struct {
	Cells      int // all Gnet vertices
	Comb       int
	Flops      int
	MacroCells int
	PortCells  int
	Nets       int
	Pins       int
	HierNodes  int
	CellArea   int64 // total area of macros + standard cells
	MacroArea  int64
}

// Stats computes summary statistics for the design.
func (d *Design) Stats() Stats {
	s := Stats{
		Cells:     len(d.Cells),
		Nets:      len(d.Nets),
		Pins:      len(d.Pins),
		HierNodes: len(d.Hier),
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		switch c.Kind {
		case KindComb:
			s.Comb++
		case KindFlop:
			s.Flops++
		case KindMacro:
			s.MacroCells++
			s.MacroArea += c.Area()
		case KindPort:
			s.PortCells++
		}
		if c.Kind != KindPort {
			s.CellArea += c.Area()
		}
	}
	return s
}

// Validate checks structural invariants: pin back-references, hierarchy
// tree shape, and that every net has at most one driver. It returns the
// first problem found.
func (d *Design) Validate() error {
	if len(d.Hier) == 0 {
		return fmt.Errorf("netlist: design %q has no hierarchy root", d.Name)
	}
	if d.Hier[0].Parent != None {
		return fmt.Errorf("netlist: root has parent %d", d.Hier[0].Parent)
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		if p.Cell < 0 || int(p.Cell) >= len(d.Cells) {
			return fmt.Errorf("netlist: pin %d references cell %d out of range", i, p.Cell)
		}
		if p.Net < 0 || int(p.Net) >= len(d.Nets) {
			return fmt.Errorf("netlist: pin %d references net %d out of range", i, p.Net)
		}
	}
	for i := range d.Cells {
		for _, pid := range d.Cells[i].Pins {
			if d.Pins[pid].Cell != CellID(i) {
				return fmt.Errorf("netlist: cell %d pin list references foreign pin %d", i, pid)
			}
		}
	}
	for i := range d.Nets {
		drivers := 0
		for _, pid := range d.Nets[i].Pins {
			if d.Pins[pid].Net != NetID(i) {
				return fmt.Errorf("netlist: net %d pin list references foreign pin %d", i, pid)
			}
			if d.Pins[pid].Dir == DirOut {
				drivers++
			}
		}
		if drivers > 1 {
			return fmt.Errorf("netlist: net %q has %d drivers", d.Nets[i].Name, drivers)
		}
	}
	for i := range d.Hier {
		n := &d.Hier[i]
		if i != 0 {
			if n.Parent < 0 || int(n.Parent) >= len(d.Hier) {
				return fmt.Errorf("netlist: node %d has invalid parent", i)
			}
			found := false
			for _, c := range d.Hier[n.Parent].Children {
				if c == HierID(i) {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("netlist: node %d missing from parent's children", i)
			}
		}
		for _, cid := range n.Cells {
			if d.Cells[cid].Hier != HierID(i) {
				return fmt.Errorf("netlist: node %d lists cell %d owned by node %d", i, cid, d.Cells[cid].Hier)
			}
		}
	}
	return nil
}
