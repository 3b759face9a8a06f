package circuits

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/geom"
	"repro/internal/handfp"
	"repro/internal/netlist"
	"repro/internal/seqgraph"
)

// Generated bundles a synthetic design with its planted floorplan intent.
type Generated struct {
	Design *netlist.Design
	// Intent is the designer's intended macro floorplan, consumed by the
	// handFP oracle flow.
	Intent handfp.Intent
	Spec   Spec

	seqOnce sync.Once
	seq     *seqgraph.Graph
}

// SeqGraph returns Gseq for the design under the default parameters, built
// on first use and cached on the Generated itself. Tying the cache to the
// circuit's lifetime lets the flow harness reuse one graph across flows
// without a process-global map that would retain every design ever served.
func (g *Generated) SeqGraph() *seqgraph.Graph {
	g.seqOnce.Do(func() {
		g.seq = seqgraph.Build(g.Design, seqgraph.DefaultParams())
	})
	return g.seq
}

// rowHeight is the synthetic library's standard cell row height in DBU
// (1 DBU = 1 nm).
const rowHeight = 1400

// macroClass is one memory size class.
type macroClass struct {
	w, h int64
	bits int // data width
}

var macroClasses = []macroClass{
	{36_000, 24_000, 32},
	{48_000, 30_000, 64},
	{64_000, 40_000, 128},
}

// Generate builds the design and intent for a spec. Equal specs generate
// identical designs.
func Generate(spec Spec) *Generated {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	b := netlist.NewBuilder(spec.Name)
	b.SetRowHeight(rowHeight)

	// --- Plan the subsystems -------------------------------------------
	subs := planSubsystems(spec, rng)
	var macroArea int64
	for _, s := range subs {
		macroArea += int64(s.macros) * s.class.w * s.class.h
	}
	// Estimate total area to size the die before placing ports.
	cellBudget := spec.ScaledCells()
	approxCellArea := int64(cellBudget) * avgCellArea()
	total := float64(macroArea + approxCellArea)
	side := int64(math.Sqrt(total/spec.Utilization))/1000*1000 + 1000
	die := geom.RectXYWH(0, 0, side, side)
	b.SetDie(die)

	// Regions are decided before the netlist so port placement can follow
	// the architecture (pads are assigned with the floorplan in mind).
	regions := planRegions(len(subs), die)

	// --- Structural netlist --------------------------------------------
	g := &genState{b: b, rng: rng, spec: spec, die: die, regions: regions}
	for k := range subs {
		g.buildSubsystem(k, &subs[k])
	}
	g.buildInterconnect(subs)
	g.buildPorts(subs)
	g.buildFiller(subs, cellBudget)

	d := b.MustBuild()
	if spec.Flat {
		fd, err := netlist.FlattenHier(d)
		if err != nil {
			panic(err) // generator-produced designs always flatten
		}
		d = fd
	}

	// --- Planted intent -------------------------------------------------
	intent := plantIntent(d, subs, regions, die)

	return &Generated{Design: d, Intent: intent, Spec: spec}
}

// GenFlat builds the same logical design as Generate but with the
// hierarchy stripped to a single root, exercising the autocluster
// front-end on an otherwise identical workload.
func GenFlat(spec Spec) *Generated {
	spec.Flat = true
	return Generate(spec)
}

// planRegions assigns serpentine grid regions in dataflow order, so that
// consecutive subsystems are adjacent.
func planRegions(S int, die geom.Rect) []geom.Rect {
	cols := int(math.Ceil(math.Sqrt(float64(S))))
	rows := (S + cols - 1) / cols
	out := make([]geom.Rect, S)
	for k := 0; k < S; k++ {
		row := k / cols
		col := k % cols
		if row%2 == 1 {
			col = cols - 1 - col
		}
		out[k] = geom.RectXYWH(
			die.X+die.W*int64(col)/int64(cols),
			die.Y+die.H*int64(row)/int64(rows),
			die.W/int64(cols),
			die.H/int64(rows),
		)
	}
	return out
}

// subPlan is the per-subsystem structural plan.
type subPlan struct {
	name   string
	macros int
	class  macroClass
	groups int // ram group nodes (extra hierarchy level when macro-rich)
	// filled in during building:
	dinRegs  [][]netlist.CellID // per ram, din register bits
	doutRegs [][]netlist.CellID
	inReg    []netlist.CellID // subsystem input register bits
	outReg   []netlist.CellID
	macroIDs []netlist.CellID
}

// planSubsystems splits the macros over the subsystems, planning at most one
// subsystem per macro so that none is left without one. A spec without
// macros plans one macro-free subsystem.
func planSubsystems(spec Spec, rng *rand.Rand) []subPlan {
	macros := max(spec.Macros, 0)
	subs := make([]subPlan, min(spec.Subsystems, max(macros, 1)))
	base := macros / len(subs)
	extra := macros % len(subs)
	for k := range subs {
		m := base
		if k < extra {
			m++
		}
		cls := macroClasses[rng.Intn(len(macroClasses))]
		groups := 0
		if m > 6 {
			groups = (m + 3) / 4
		}
		subs[k] = subPlan{
			name:   fmt.Sprintf("sub%d", k),
			macros: m,
			class:  cls,
			groups: groups,
		}
	}
	return subs
}

func avgCellArea() int64 {
	// Mix of comb footprints (the filler uses ~2*rowHeight wide cells) and
	// 4-row-wide flops.
	return 3 * rowHeight * rowHeight
}

type genState struct {
	b       *netlist.Builder
	rng     *rand.Rand
	spec    Spec
	die     geom.Rect
	regions []geom.Rect
}

// reg adds a register array of the given width under path, named
// path/<name>[i].
func (g *genState) reg(path, name string, width int) []netlist.CellID {
	ids := make([]netlist.CellID, width)
	for i := 0; i < width; i++ {
		ids[i] = g.b.AddFlop(fmt.Sprintf("%s/%s[%d]", path, name, i), path)
	}
	return ids
}

// pipe wires src -> comb -> dst bitwise, creating one comb cell per bit.
func (g *genState) pipe(tag string, src, dst []netlist.CellID, hier string) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		c := g.b.AddComb(fmt.Sprintf("%s_c%dx", tag, i), 2*rowHeight*rowHeight, hier)
		g.b.WireFanout(fmt.Sprintf("%s_a%d", tag, i), src[i], c)
		g.b.Wire(fmt.Sprintf("%s_b%d", tag, i), c, dst[i])
	}
	// Fan extra destination bits from the low source bits.
	for i := n; i < len(dst); i++ {
		c := g.b.AddComb(fmt.Sprintf("%s_c%dx", tag, i), 2*rowHeight*rowHeight, hier)
		g.b.WireFanout(fmt.Sprintf("%s_a%d", tag, i), src[i%n], c)
		g.b.Wire(fmt.Sprintf("%s_b%d", tag, i), c, dst[i])
	}
}

// buildSubsystem creates one macro-bearing unit: ram wrappers (optionally
// grouped), a local dataflow chain through the rams, and the subsystem
// boundary registers.
func (g *genState) buildSubsystem(k int, s *subPlan) {
	b := g.b
	W := g.spec.BusWidth
	s.inReg = g.reg(s.name, "in_r", W)
	s.outReg = g.reg(s.name, "out_r", W)

	w := s.class.bits
	for i := 0; i < s.macros; i++ {
		path := fmt.Sprintf("%s/ram%d", s.name, i)
		if s.groups > 0 {
			path = fmt.Sprintf("%s/grp%d/ram%d", s.name, i/4, i)
		}
		m := b.AddMacro(path+"/mem", s.class.w, s.class.h, path)
		s.macroIDs = append(s.macroIDs, m)
		din := g.reg(path, "din", w)
		dout := g.reg(path, "dout", w)
		s.dinRegs = append(s.dinRegs, din)
		s.doutRegs = append(s.doutRegs, dout)
		// Register-to-macro nets with pins on the west (din) and east
		// (dout) edges of the macro.
		for bit := 0; bit < w; bit++ {
			y := int64(bit+1) * s.class.h / int64(w+2)
			nd := b.Wire(fmt.Sprintf("%s_d%d", path, bit), din[bit])
			b.ConnectAt(m, nd, netlist.DirIn, geom.Pt(0, y))
			nq := b.Net(fmt.Sprintf("%s_q%d", path, bit))
			b.ConnectAt(m, nq, netlist.DirOut, geom.Pt(s.class.w, y))
			b.Connect(dout[bit], nq, netlist.DirIn)
		}
		// Wrapper control logic.
		for c := 0; c < 4; c++ {
			ctl := b.AddComb(fmt.Sprintf("%s/ctl%dx", path, c), 2*rowHeight*rowHeight, path)
			b.WireFanout(fmt.Sprintf("%s_ctl%d", path, c), din[c%w], ctl)
		}
	}

	// Local dataflow chain: in_r -> ram0 -> ram1 -> ... -> out_r, or
	// in_r -> out_r in a macro-free subsystem.
	if s.macros == 0 {
		g.pipe(s.name+"_thru", s.inReg, s.outReg, s.name)
		return
	}
	g.pipe(s.name+"_head", s.inReg, s.dinRegs[0], s.name)
	for i := 1; i < s.macros; i++ {
		g.pipe(fmt.Sprintf("%s_ch%d", s.name, i), s.doutRegs[i-1], s.dinRegs[i], s.name)
	}
	g.pipe(s.name+"_tail", s.doutRegs[s.macros-1], s.outReg, s.name)
}

// buildInterconnect wires the subsystems through pipelined buses living in
// top-level xfer nodes (glue). Chain topology pipelines consecutive
// subsystems; star topology bounces every subsystem's output through a
// central crossbar register bank back into the next subsystem's input.
func (g *genState) buildInterconnect(subs []subPlan) {
	W := g.spec.BusWidth
	if g.spec.Topology == "star" {
		hub := g.reg("xbar", "hub", W)
		for k := range subs {
			up := fmt.Sprintf("xbar/up%d", k)
			prev := subs[k].outReg
			for st := 0; st < g.spec.PipelineDepth; st++ {
				stage := g.reg(up, fmt.Sprintf("st%d", st), W)
				g.pipe(fmt.Sprintf("%s_s%d", up, st), prev, stage, up)
				prev = stage
			}
			g.pipe(up+"_in", prev, hub, up)
			if k+1 < len(subs) {
				down := fmt.Sprintf("xbar/dn%d", k+1)
				g.pipe(down+"_out", hub, subs[k+1].inReg, down)
			}
		}
		return
	}
	for k := 0; k+1 < len(subs); k++ {
		prev := subs[k].outReg
		path := fmt.Sprintf("xfer%d", k)
		for st := 0; st < g.spec.PipelineDepth; st++ {
			stage := g.reg(path, fmt.Sprintf("st%d", st), W)
			g.pipe(fmt.Sprintf("%s_s%d", path, st), prev, stage, path)
			prev = stage
		}
		g.pipe(path+"_out", prev, subs[k+1].inReg, path)
	}
}

// buildPorts adds the bus ports, clustered on the die edge nearest the
// first (din) and last (dout) subsystem regions — pad assignment follows
// the floorplan architecture, as it does in practice.
func (g *genState) buildPorts(subs []subPlan) {
	b := g.b
	W := g.spec.BusWidth
	din := edgeSpread(g.die, g.regions[0], W)
	for bit := 0; bit < W; bit++ {
		p := b.AddPort(fmt.Sprintf("din[%d]", bit))
		b.SetPortPos(p, din[bit])
		c := b.AddComb(fmt.Sprintf("pin_c%dx", bit), 2*rowHeight*rowHeight, "")
		b.Wire(fmt.Sprintf("pin_a%d", bit), p, c)
		b.Wire(fmt.Sprintf("pin_b%d", bit), c, subs[0].inReg[bit])
	}
	last := subs[len(subs)-1]
	dout := edgeSpread(g.die, g.regions[len(subs)-1], W)
	for bit := 0; bit < W; bit++ {
		p := b.AddPort(fmt.Sprintf("dout[%d]", bit))
		b.SetPortPos(p, dout[bit])
		c := b.AddComb(fmt.Sprintf("pout_c%dx", bit), 2*rowHeight*rowHeight, "")
		b.Wire(fmt.Sprintf("pout_a%d", bit), last.outReg[bit], c)
		n := b.Net(fmt.Sprintf("pout_b%d", bit))
		b.Connect(c, n, netlist.DirOut)
		b.Connect(p, n, netlist.DirIn)
	}
}

// edgeSpread returns n port positions spread along the stretch of the die
// boundary nearest to a region.
func edgeSpread(die, region geom.Rect, n int) []geom.Point {
	c := region.Center()
	dl := c.X - die.X
	dr := die.X2() - c.X
	db := c.Y - die.Y
	dt := die.Y2() - c.Y
	out := make([]geom.Point, n)
	min := dl
	if dr < min {
		min = dr
	}
	if db < min {
		min = db
	}
	if dt < min {
		min = dt
	}
	for i := 0; i < n; i++ {
		t := region.Y + int64(i+1)*region.H/int64(n+2)
		tx := region.X + int64(i+1)*region.W/int64(n+2)
		switch min {
		case dl:
			out[i] = geom.Pt(die.X, t)
		case dr:
			out[i] = geom.Pt(die.X2(), t)
		case db:
			out[i] = geom.Pt(tx, die.Y)
		default:
			out[i] = geom.Pt(tx, die.Y2())
		}
	}
	return out
}

// buildFiller adds chains of logic until the cell budget is met. Chains
// live in per-subsystem logic groups, rooted at subsystem registers so the
// glue-assignment BFS can reach them.
func (g *genState) buildFiller(subs []subPlan, budget int) {
	b := g.b
	const groupsPerSub = 4
	chain := 0
	for b.NumCells() < budget {
		k := chain % len(subs)
		s := &subs[k]
		grp := (chain / len(subs)) % groupsPerSub
		path := fmt.Sprintf("%s/logic%d", s.name, grp)
		id := fmt.Sprintf("%s/ch%d", path, chain)

		// Head register driven from a subsystem source.
		head := make([]netlist.CellID, 4)
		for i := range head {
			head[i] = b.AddFlop(fmt.Sprintf("%s_h[%d]", id, i), path)
		}
		src := s.inReg[(chain*7)%len(s.inReg)]
		if len(s.doutRegs) > 0 && chain%3 == 0 {
			dr := s.doutRegs[chain%len(s.doutRegs)]
			src = dr[(chain*5)%len(dr)]
		}
		c0 := b.AddComb(id+"_root", 2*rowHeight*rowHeight, path)
		b.WireFanout(id+"_rn", src, c0)
		b.Wire(id+"_hn", c0, head...)

		// Chain body: head -> comb x6 -> tail, with a second structural
		// anchor in the middle — glue logic genuinely sits between the
		// registers of its unit, it does not hang off a single bit.
		prevDrv := head[0]
		for j := 0; j < 6; j++ {
			c := b.AddComb(fmt.Sprintf("%s_b%dx", id, j), 2*rowHeight*rowHeight, path)
			b.Wire(fmt.Sprintf("%s_w%d", id, j), prevDrv, c)
			if j == 3 && len(s.doutRegs) > 0 {
				dr := s.doutRegs[(chain+1+chain/3)%len(s.doutRegs)]
				b.WireFanout(fmt.Sprintf("%s_x%d", id, j), dr[(chain*11)%len(dr)], c)
			}
			prevDrv = c
		}
		tail := make([]netlist.CellID, 4)
		for i := range tail {
			tail[i] = b.AddFlop(fmt.Sprintf("%s_t[%d]", id, i), path)
		}
		b.Wire(id+"_tn", prevDrv, tail...)
		chain++
	}
}

// plantIntent records where the architect meant every macro to go: each
// subsystem's macros shelf-pack in chain order against the side of its
// region that faces the nearest die wall, leaving the region core open for
// standard cells (the layout style expert backend engineers produce).
func plantIntent(d *netlist.Design, subs []subPlan, regions []geom.Rect, die geom.Rect) handfp.Intent {
	intent := handfp.Intent{}
	for k := range subs {
		shelfPack(d, &subs[k], regions[k], die, intent)
	}
	return intent
}

// shelfPack lays a subsystem's macros in rows in chain order, starting from
// the region edge nearest a die wall (rotating macros that do not fit the
// region width), clamped to the die.
func shelfPack(d *netlist.Design, s *subPlan, region, die geom.Rect, intent handfp.Intent) {
	const gap = 2_000 // DBU channel between macros for routing
	fromTop := region.Center().Y > die.Center().Y
	x := region.X
	var cursor int64 // distance consumed from the packing edge
	var shelfH int64
	for _, m := range s.macroIDs {
		c := d.Cell(m)
		w, h := c.Width, c.Height
		if w > region.W && h <= region.W {
			w, h = h, w // rotate to fit the region width
		}
		if x+w > region.X2() {
			x = region.X
			cursor += shelfH + gap
			shelfH = 0
		}
		y := region.Y + cursor
		if fromTop {
			y = region.Y2() - cursor - h
		}
		r := geom.RectXYWH(x, y, w, h).ClampInside(die)
		intent[c.Name] = r
		x += w + gap
		if h > shelfH {
			shelfH = h
		}
	}
}
