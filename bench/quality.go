package main

import (
	"hash/fnv"
	"math"

	"repro/internal/dataflow"
	"repro/internal/flows"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/seqgraph"
)

// flowModel scores the macro placements of one design by the design's own
// dataflow: the affinity-weighted mean Manhattan distance between each macro
// and the macros and ports it exchanges data with. It is the paper's
// objective evaluated flat, at macro granularity, so it scores a macro-only
// placement (whose netlist HPWL is zero: macros connect only to unplaced
// registers) as well as a fully placed one.
type flowModel struct {
	cells [][]netlist.CellID // per Gdf node, the cells whose mean center locates it
	pairs []flowPair
	total float64
}

type flowPair struct {
	a, b int
	w    float64
}

func newFlowModel(d *netlist.Design, sg *seqgraph.Graph) *flowModel {
	// Every macro is its own block, ports are the fixed terminals and all
	// other cells are glue, exactly as the flat ablation of core declusters.
	decl := &hier.Result{CellBlock: make([]int32, len(d.Cells))}
	for i := range decl.CellBlock {
		decl.CellBlock[i] = hier.Glue
		if d.Cells[i].Kind == netlist.KindPort {
			decl.CellBlock[i] = hier.Outside
		}
	}
	for _, m := range d.Macros() {
		decl.CellBlock[m] = int32(len(decl.Blocks))
		decl.Blocks = append(decl.Blocks, hier.Block{
			Name: d.Cell(m).Name, Node: netlist.None, Macro: m,
			Cells: []netlist.CellID{m}, MacroCells: []netlist.CellID{m}, Area: d.Cell(m).Area(),
		})
	}
	gdf := dataflow.Build(sg, decl)
	aff := gdf.Affinity(dataflow.DefaultParams())
	fm := &flowModel{cells: make([][]netlist.CellID, len(gdf.Nodes))}
	for i, n := range gdf.Nodes {
		for _, si := range n.Seq {
			fm.cells[i] = append(fm.cells[i], sg.Nodes[si].Cells...)
		}
	}
	blocks := len(decl.Blocks)
	for i := 0; i < blocks; i++ {
		for j := i + 1; j < len(gdf.Nodes); j++ {
			if w := aff[i][j]; w > 0 {
				fm.pairs = append(fm.pairs, flowPair{i, j, w})
				fm.total += w
			}
		}
	}
	return fm
}

// distMM scores one placement in millimetres.
func (fm *flowModel) distMM(pl *placement.Placement) float64 {
	if fm.total == 0 {
		return 0
	}
	xs := make([]float64, len(fm.cells))
	ys := make([]float64, len(fm.cells))
	for i, cells := range fm.cells {
		for _, c := range cells {
			p := pl.Center(c)
			xs[i] += float64(p.X)
			ys[i] += float64(p.Y)
		}
		if n := float64(len(cells)); n > 0 {
			xs[i] /= n
			ys[i] /= n
		}
	}
	var sum float64
	for _, p := range fm.pairs {
		sum += p.w * (math.Abs(xs[p.a]-xs[p.b]) + math.Abs(ys[p.a]-ys[p.b]))
	}
	return sum / fm.total / 1e6
}

// flowModels builds the quality model of every input design. It is the
// benchmark's checker, not the program's work, so it is never timed.
func flowModels(in *inputs) map[string]*flowModel {
	m := map[string]*flowModel{}
	for _, g := range in.gens {
		m[g.Design.Name] = newFlowModel(g.Design, g.SeqGraph())
	}
	return m
}

// quality is everything a round produced that must repeat exactly for the
// same seed: the scores of its placements, a fingerprint of every macro
// position, and its failures.
type quality struct {
	flowDistMM float64 // geomean over the round's placements

	// Table II/III numbers (table_suite only).
	hidapWLNorm, indedaWLNorm, suiteWLm float64
	hidapWNSPct, hidapGRCPct            float64

	fingerprint uint64
	errors      int // jobs that returned an error
	illegal     int // placements the legality oracle rejected
}

func (q quality) failed() int { return q.errors + q.illegal }

// score checks and scores the jobs of one round. models maps a design name
// to its flow model.
func score(jobs []jobOut, models map[string]*flowModel) quality {
	var q quality
	h := fnv.New64a()
	var dists []float64
	var rows []*flows.Metrics
	for _, j := range jobs {
		if j.err != nil {
			q.errors++
			continue
		}
		if err := checkLegal(j.pl); err != nil {
			q.illegal++
			continue
		}
		for _, m := range j.pl.D.Macros() {
			p, o := j.pl.Pos[m], j.pl.Orient[m]
			h.Write([]byte{
				byte(p.X), byte(p.X >> 8), byte(p.X >> 16), byte(p.X >> 24), byte(p.X >> 32),
				byte(p.Y), byte(p.Y >> 8), byte(p.Y >> 16), byte(p.Y >> 24), byte(p.Y >> 32),
				byte(o),
			})
		}
		dists = append(dists, models[j.pl.D.Name].distMM(j.pl))
		if j.row != nil {
			row := *j.row
			rows = append(rows, &row)
		}
	}
	q.fingerprint = h.Sum64()
	q.flowDistMM = metrics.GeoMean(dists)
	if len(rows) == 0 {
		return q
	}
	flows.Normalize(rows)
	for _, s := range flows.Summarize(rows) {
		switch s.Flow {
		case flows.FlowHiDaP:
			q.hidapWLNorm, q.hidapWNSPct = s.WLGeoMean, s.WNSMean
		case flows.FlowIndEDA:
			q.indedaWLNorm = s.WLGeoMean
		}
	}
	var wls []float64
	var grc float64
	var hidapRows int
	for _, r := range rows {
		wls = append(wls, r.WirelengthM)
		if r.Flow == flows.FlowHiDaP {
			grc += r.CongestionPct
			hidapRows++
		}
	}
	q.suiteWLm = metrics.GeoMean(wls)
	if hidapRows > 0 {
		q.hidapGRCPct = grc / float64(hidapRows)
	}
	return q
}
