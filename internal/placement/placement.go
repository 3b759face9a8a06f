// Package placement holds the physical state shared by every flow stage:
// per-cell positions and orientations, pin locations under orientation
// transforms, wirelength accounting, and the macro flipping pass every
// macro placer ends with. The macro placers fill in macros and ports; the
// standard-cell placer fills in the rest; the metric stages read the
// result.
package placement

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Placement is the mutable physical state of a design.
type Placement struct {
	D *netlist.Design
	// Pos is the lower-left corner of each cell's placed outline.
	Pos []geom.Point
	// Orient is each cell's placement orientation.
	Orient []geom.Orient
	// Placed marks cells with valid positions.
	Placed []bool
}

// New creates an empty placement and pins every port at its fixed location.
func New(d *netlist.Design) *Placement {
	p := &Placement{
		D:      d,
		Pos:    make([]geom.Point, len(d.Cells)),
		Orient: make([]geom.Orient, len(d.Cells)),
		Placed: make([]bool, len(d.Cells)),
	}
	for _, id := range d.Ports() {
		p.Pos[id] = d.PortPos(id)
		p.Placed[id] = true
	}
	return p
}

// Clone returns an independent copy.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		D:      p.D,
		Pos:    append([]geom.Point(nil), p.Pos...),
		Orient: append([]geom.Orient(nil), p.Orient...),
		Placed: append([]bool(nil), p.Placed...),
	}
	return q
}

// Place positions a cell with the R0 orientation.
func (p *Placement) Place(id netlist.CellID, pos geom.Point) {
	p.Pos[id] = pos
	p.Orient[id] = geom.R0
	p.Placed[id] = true
}

// PlaceOriented positions a cell with an explicit orientation. Pos remains
// the lower-left corner of the placed outline.
func (p *Placement) PlaceOriented(id netlist.CellID, pos geom.Point, o geom.Orient) {
	p.Pos[id] = pos
	p.Orient[id] = o
	p.Placed[id] = true
}

// Rect returns the placed outline of a cell.
func (p *Placement) Rect(id netlist.CellID) geom.Rect {
	c := p.D.Cell(id)
	w, h := p.Orient[id].Dims(c.Width, c.Height)
	return geom.RectXYWH(p.Pos[id].X, p.Pos[id].Y, w, h)
}

// Center returns the center of a cell's placed outline.
func (p *Placement) Center(id netlist.CellID) geom.Point {
	return p.Rect(id).Center()
}

// PinPos returns the die location of a pin, applying the cell's orientation
// to the pin's library offset.
func (p *Placement) PinPos(pid netlist.PinID) geom.Point {
	pin := p.D.Pin(pid)
	c := p.D.Cell(pin.Cell)
	local := p.Orient[pin.Cell].Apply(pin.Offset, c.Width, c.Height)
	return p.Pos[pin.Cell].Add(local)
}

// NetHPWL returns the half-perimeter wirelength of one net, considering
// only placed cells. Nets with fewer than two placed pins contribute zero.
func (p *Placement) NetHPWL(nid netlist.NetID) int64 {
	net := p.D.Net(nid)
	first := true
	var minX, maxX, minY, maxY int64
	pins := 0
	for _, pid := range net.Pins {
		if !p.Placed[p.D.Pin(pid).Cell] {
			continue
		}
		pt := p.PinPos(pid)
		pins++
		if first {
			minX, maxX, minY, maxY = pt.X, pt.X, pt.Y, pt.Y
			first = false
			continue
		}
		if pt.X < minX {
			minX = pt.X
		}
		if pt.X > maxX {
			maxX = pt.X
		}
		if pt.Y < minY {
			minY = pt.Y
		}
		if pt.Y > maxY {
			maxY = pt.Y
		}
	}
	if pins < 2 {
		return 0
	}
	return (maxX - minX) + (maxY - minY)
}

// TotalHPWL sums NetHPWL over all nets.
func (p *Placement) TotalHPWL() int64 {
	var total int64
	for i := range p.D.Nets {
		total += p.NetHPWL(netlist.NetID(i))
	}
	return total
}

// MacroOverlapArea returns the total pairwise overlap area between placed
// macros — zero for a legal macro placement.
func (p *Placement) MacroOverlapArea() int64 {
	macros := p.D.Macros()
	var sum int64
	for i, a := range macros {
		if !p.Placed[a] {
			continue
		}
		ra := p.Rect(a)
		for _, b := range macros[i+1:] {
			if !p.Placed[b] {
				continue
			}
			sum += ra.Intersect(p.Rect(b)).Area()
		}
	}
	return sum
}

// MacrosInsideDie verifies every placed macro lies inside the die.
func (p *Placement) MacrosInsideDie() error {
	for _, id := range p.D.Macros() {
		if !p.Placed[id] {
			continue
		}
		if !p.D.Die.ContainsRect(p.Rect(id)) {
			return fmt.Errorf("placement: macro %s at %v escapes die %v",
				p.D.Cell(id).Name, p.Rect(id), p.D.Die)
		}
	}
	return nil
}

// AllMacrosPlaced reports whether every macro has a position.
func (p *Placement) AllMacrosPlaced() bool {
	for _, id := range p.D.Macros() {
		if !p.Placed[id] {
			return false
		}
	}
	return true
}
