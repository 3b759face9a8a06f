package netlist

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/geom"
)

// Builder incrementally constructs a Design. It is not safe for concurrent
// use. All Add* methods return stable IDs that remain valid in the built
// Design.
type Builder struct {
	d          Design
	hierByPath map[string]HierID
	netByName  map[string]NetID
	err        error
}

// NewBuilder returns a Builder for a design with the given name. The
// hierarchy root is created immediately.
func NewBuilder(name string) *Builder {
	b := &Builder{
		hierByPath: make(map[string]HierID),
		netByName:  make(map[string]NetID),
	}
	b.d.Name = name
	b.d.RowHeight = 140 // synthetic library default, in DBU
	b.d.Hier = append(b.d.Hier, HierNode{ID: 0, Parent: None})
	b.hierByPath[""] = 0
	return b
}

// SetDie sets the placement area.
func (b *Builder) SetDie(r geom.Rect) *Builder { b.d.Die = r; return b }

// SetRowHeight overrides the standard cell row height.
func (b *Builder) SetRowHeight(h int64) *Builder { b.d.RowHeight = h; return b }

// Hier returns (creating as needed) the hierarchy node for a "/"-separated
// path. The empty path is the root.
func (b *Builder) Hier(path string) HierID {
	if id, ok := b.hierByPath[path]; ok {
		return id
	}
	var parent HierID
	local := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		parent = b.Hier(path[:i])
		local = path[i+1:]
	} else {
		parent = 0
	}
	id := HierID(len(b.d.Hier))
	b.d.Hier = append(b.d.Hier, HierNode{ID: id, Name: local, Path: path, Parent: parent})
	b.d.Hier[parent].Children = append(b.d.Hier[parent].Children, id)
	b.hierByPath[path] = id
	return id
}

// AddCell adds a cell with an explicit outline under the hierarchy node for
// hierPath. The cell name should be the full hierarchical name.
func (b *Builder) AddCell(name string, kind CellKind, w, h int64, hierPath string) CellID {
	hid := b.Hier(hierPath)
	id := CellID(len(b.d.Cells))
	b.d.Cells = append(b.d.Cells, Cell{Name: name, Kind: kind, Width: w, Height: h, Hier: hid})
	b.d.Hier[hid].Cells = append(b.d.Hier[hid].Cells, id)
	return id
}

// AddComb adds a combinational cell with a footprint of the given area,
// snapped to the library row height.
func (b *Builder) AddComb(name string, area int64, hierPath string) CellID {
	w := area / b.d.RowHeight
	if w <= 0 {
		w = 1
	}
	return b.AddCell(name, KindComb, w, b.d.RowHeight, hierPath)
}

// AddFlop adds a single-bit register with a standard footprint.
func (b *Builder) AddFlop(name string, hierPath string) CellID {
	return b.AddCell(name, KindFlop, 4*b.d.RowHeight, b.d.RowHeight, hierPath)
}

// AddMacro adds a hard macro with the given outline.
func (b *Builder) AddMacro(name string, w, h int64, hierPath string) CellID {
	return b.AddCell(name, KindMacro, w, h, hierPath)
}

// AddPort adds a top-level port cell (zero outline) at the root level.
func (b *Builder) AddPort(name string) CellID {
	return b.AddCell(name, KindPort, 0, 0, "")
}

// SetPortPos fixes the die-boundary location of a port cell.
func (b *Builder) SetPortPos(id CellID, p geom.Point) *Builder {
	if b.d.portPos == nil {
		b.d.portPos = make(map[CellID]geom.Point)
	}
	b.d.portPos[id] = p
	return b
}

// NumCells returns the number of cells added so far.
func (b *Builder) NumCells() int { return len(b.d.Cells) }

// DrivenNet returns the first net the cell already drives, or None. It
// lets generators attach further sinks to an existing output net instead
// of giving a cell several output pins (real flops and gates drive one
// net with fanout).
func (b *Builder) DrivenNet(cell CellID) NetID {
	if cell < 0 || int(cell) >= len(b.d.Cells) {
		return None
	}
	for _, pid := range b.d.Cells[cell].Pins {
		if b.d.Pins[pid].Dir == DirOut {
			return b.d.Pins[pid].Net
		}
	}
	return None
}

// WireFanout attaches sinks to the net driven by driver, creating the net
// (with the given name) only if the driver drives nothing yet.
func (b *Builder) WireFanout(netName string, driver CellID, sinks ...CellID) NetID {
	n := b.DrivenNet(driver)
	if n == None {
		n = b.Net(netName)
		b.Connect(driver, n, DirOut)
	}
	for _, s := range sinks {
		b.Connect(s, n, DirIn)
	}
	return n
}

// Net returns (creating as needed) the net with the given name.
func (b *Builder) Net(name string) NetID {
	if id, ok := b.netByName[name]; ok {
		return id
	}
	id := NetID(len(b.d.Nets))
	b.d.Nets = append(b.d.Nets, Net{Name: name})
	b.netByName[name] = id
	return id
}

// Connect attaches cell to net with the given pin direction and a zero pin
// offset.
func (b *Builder) Connect(cell CellID, net NetID, dir PinDir) PinID {
	return b.ConnectAt(cell, net, dir, geom.Point{})
}

// ConnectAt attaches cell to net with an explicit pin offset within the
// cell outline (meaningful for macros).
func (b *Builder) ConnectAt(cell CellID, net NetID, dir PinDir, off geom.Point) PinID {
	if cell < 0 || int(cell) >= len(b.d.Cells) {
		b.fail(fmt.Errorf("netlist: Connect: cell %d out of range", cell))
		return None
	}
	if net < 0 || int(net) >= len(b.d.Nets) {
		b.fail(fmt.Errorf("netlist: Connect: net %d out of range", net))
		return None
	}
	id := PinID(len(b.d.Pins))
	b.d.Pins = append(b.d.Pins, Pin{Cell: cell, Net: net, Dir: dir, Offset: off})
	b.d.Cells[cell].Pins = append(b.d.Cells[cell].Pins, id)
	b.d.Nets[net].Pins = append(b.d.Nets[net].Pins, id)
	return id
}

// Wire is a convenience that creates (or reuses) a named net, connects the
// driver cell with DirOut and every sink with DirIn.
func (b *Builder) Wire(netName string, driver CellID, sinks ...CellID) NetID {
	n := b.Net(netName)
	b.Connect(driver, n, DirOut)
	for _, s := range sinks {
		b.Connect(s, n, DirIn)
	}
	return n
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build freezes the design, validates it and returns it. The Builder must
// not be used afterwards.
func (b *Builder) Build() (*Design, error) {
	if b.err != nil {
		return nil, b.err
	}
	d := b.d
	// Every area sum downstream (Stats().CellArea, hierarchy node areas)
	// would wrap past int64.
	area, ok := d.cellArea()
	if !ok {
		return nil, fmt.Errorf("netlist: total cell area overflows int64")
	}
	if d.Die.Empty() {
		// Default die: square with ~60% utilization of the total cell area.
		if area > maxDefaultDieCellArea {
			return nil, fmt.Errorf("netlist: total cell area exceeds %d, too large to size a default die", maxDefaultDieCellArea)
		}
		side := isqrt(area*100/60) + 1
		d.Die = geom.RectXYWH(0, 0, side, side)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// MustBuild is Build for tests and generators with trusted input.
func (b *Builder) MustBuild() *Design {
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// maxDefaultDieCellArea is the largest total cell area Build sizes a
// default die for: the area·100/60 of the sizing, and so the die's own
// area, stay inside int64.
const maxDefaultDieCellArea = math.MaxInt64 / 100

// cellArea sums the outline area of the non-port cells, as
// Stats().CellArea does, and reports false once the sum would overflow
// int64 (or a cell's area has overflowed) instead of wrapping around.
func (d *Design) cellArea() (int64, bool) {
	var sum int64
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Kind == KindPort {
			continue
		}
		a := c.Area()
		if a < 0 || a > math.MaxInt64-sum {
			return 0, false
		}
		sum += a
	}
	return sum, true
}

// isqrt returns floor(sqrt(v)), 0 for v <= 0. Newton's iteration starts
// from a power of two at or above the root, at most 2^32 for any int64, so
// no step overflows.
func isqrt(v int64) int64 {
	if v <= 0 {
		return 0
	}
	x := int64(1) << ((bits.Len64(uint64(v)) + 1) / 2)
	for {
		y := (x + v/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}
