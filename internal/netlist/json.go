package netlist

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/geom"
)

// The JSON interchange format: a compact, self-contained description of a
// hierarchical netlist that round-trips through MarshalJSON/ReadJSON. It is
// the scriptable alternative to the Verilog front end: cells carry their
// kind, outline, hierarchy path and pin list; nets are implied by the pin
// records.
type jsonDesign struct {
	Name      string     `json:"name"`
	Die       [4]int64   `json:"die"` // x, y, w, h
	RowHeight int64      `json:"row_height"`
	Cells     []jsonCell `json:"cells"`
	Nets      []string   `json:"nets"`
	Pins      []jsonPin  `json:"pins"`
	PortPos   [][3]int64 `json:"port_pos,omitempty"` // cell, x, y
}

type jsonCell struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	W    int64  `json:"w,omitempty"`
	H    int64  `json:"h,omitempty"`
	Hier string `json:"hier,omitempty"`
}

type jsonPin struct {
	Cell int32  `json:"cell"`
	Net  int32  `json:"net"`
	Dir  string `json:"dir"`
	OffX int64  `json:"ox,omitempty"`
	OffY int64  `json:"oy,omitempty"`
}

// WriteJSON serializes a design to its JSON interchange form.
func WriteJSON(w io.Writer, d *Design) error {
	jd := jsonDesign{
		Name:      d.Name,
		Die:       [4]int64{d.Die.X, d.Die.Y, d.Die.W, d.Die.H},
		RowHeight: d.RowHeight,
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		jd.Cells = append(jd.Cells, jsonCell{
			Name: c.Name,
			Kind: c.Kind.String(),
			W:    c.Width,
			H:    c.Height,
			Hier: d.Node(c.Hier).Path,
		})
	}
	for i := range d.Nets {
		jd.Nets = append(jd.Nets, d.Nets[i].Name)
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		jd.Pins = append(jd.Pins, jsonPin{
			Cell: int32(p.Cell), Net: int32(p.Net), Dir: p.Dir.String(),
			OffX: p.Offset.X, OffY: p.Offset.Y,
		})
	}
	for i := range d.Cells {
		id := CellID(i)
		if d.Cells[i].Kind == KindPort && d.HasPortPos(id) {
			pp := d.PortPos(id)
			jd.PortPos = append(jd.PortPos, [3]int64{int64(id), pp.X, pp.Y})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&jd)
}

// maxCellDim bounds a cell's width and height, and the die's origin and
// size, in DBU on input, so that no cell's area W*H, nor the die's area or
// far edges, can overflow int64.
const maxCellDim = 1 << 31

// ReadJSON parses the JSON interchange form back into a validated Design.
// It is an untrusted edge (hidap-serve reads client designs through it), so
// it rejects a die and cell outlines outside [0, maxCellDim], port positions
// that name a cell out of range or a cell that is not a port, and (in
// Build) cell areas whose sum overflows int64.
func ReadJSON(r io.Reader) (*Design, error) {
	var jd jsonDesign
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jd); err != nil {
		return nil, fmt.Errorf("netlist: json: %w", err)
	}
	for i, v := range jd.Die {
		if v < 0 || v > maxCellDim {
			return nil, fmt.Errorf("netlist: json die[%d] %d out of range [0, %d]", i, v, maxCellDim)
		}
	}
	b := NewBuilder(jd.Name)
	b.SetDie(geom.RectXYWH(jd.Die[0], jd.Die[1], jd.Die[2], jd.Die[3]))
	if jd.RowHeight > 0 {
		b.SetRowHeight(jd.RowHeight)
	}
	for i, jc := range jd.Cells {
		kind, err := parseKind(jc.Kind)
		if err != nil {
			return nil, fmt.Errorf("netlist: json cell %d: %w", i, err)
		}
		if jc.W < 0 || jc.W > maxCellDim {
			return nil, fmt.Errorf("netlist: json cell %d: w %d out of range [0, %d]", i, jc.W, maxCellDim)
		}
		if jc.H < 0 || jc.H > maxCellDim {
			return nil, fmt.Errorf("netlist: json cell %d: h %d out of range [0, %d]", i, jc.H, maxCellDim)
		}
		b.AddCell(jc.Name, kind, jc.W, jc.H, jc.Hier)
	}
	netIDs := make([]NetID, len(jd.Nets))
	for i, name := range jd.Nets {
		netIDs[i] = b.Net(name)
	}
	for i, jp := range jd.Pins {
		if int(jp.Net) >= len(netIDs) || jp.Net < 0 {
			return nil, fmt.Errorf("netlist: json pin %d: net %d out of range", i, jp.Net)
		}
		dir := DirIn
		if jp.Dir == "out" {
			dir = DirOut
		}
		b.ConnectAt(CellID(jp.Cell), netIDs[jp.Net], dir, geom.Pt(jp.OffX, jp.OffY))
	}
	for i, pp := range jd.PortPos {
		if pp[0] < 0 || pp[0] >= int64(len(jd.Cells)) {
			return nil, fmt.Errorf("netlist: json port_pos %d: cell %d out of range [0, %d)", i, pp[0], len(jd.Cells))
		}
		if kind := jd.Cells[pp[0]].Kind; kind != "port" {
			return nil, fmt.Errorf("netlist: json port_pos %d: cell %d is a %s, not a port", i, pp[0], kind)
		}
		b.SetPortPos(CellID(pp[0]), geom.Pt(pp[1], pp[2]))
	}
	return b.Build()
}

func parseKind(s string) (CellKind, error) {
	switch s {
	case "comb":
		return KindComb, nil
	case "flop":
		return KindFlop, nil
	case "macro":
		return KindMacro, nil
	case "port":
		return KindPort, nil
	}
	return 0, fmt.Errorf("unknown cell kind %q", s)
}
