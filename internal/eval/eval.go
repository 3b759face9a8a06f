// Package eval is the single measurement pipeline shared by the public API,
// the flow harness and the commands: one placed design in, one Report out.
// Every flow is scored by the same wirelength, congestion and timing models
// (the paper's §V discipline: "Metrics are taken after placement of standard
// cells using the same tool as IndEDA"), so numbers from different placers
// are directly comparable.
package eval

import (
	"context"
	"encoding/json"
	"io"

	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/route"
	"repro/internal/seqgraph"
	"repro/internal/sta"
)

// Report is the uniform result record of one placement run: the paper's
// Table III columns plus run bookkeeping. It marshals to flat JSON so a
// serving layer or the bench harness can emit rows directly.
type Report struct {
	// Design is the netlist name.
	Design string `json:"design,omitempty"`
	// Label is an opaque caller tag (job label on a serving engine),
	// echoed untouched so batch results can be correlated.
	Label string `json:"label,omitempty"`
	// Placer names the flow that produced the placement, when known.
	Placer string `json:"placer,omitempty"`
	// WirelengthM is the total half-perimeter wirelength in meters.
	WirelengthM float64 `json:"wirelength_m"`
	// CongestionPct is GRC%: the percentage of routing gcells whose
	// estimated demand exceeds capacity.
	CongestionPct float64 `json:"congestion_pct"`
	// WNSPct is the worst negative slack as a percentage of the clock
	// period (0 when timing is met, negative otherwise).
	WNSPct float64 `json:"wns_pct"`
	// TNSns is the total negative slack in nanoseconds (<= 0).
	TNSns float64 `json:"tns_ns"`
	// MacroSeconds is the macro-placement wall time, when known.
	MacroSeconds float64 `json:"macro_seconds,omitempty"`
	// Levels counts floorplanned recursion levels (HiDaP runs).
	Levels int `json:"levels,omitempty"`
	// Flips counts orientation changes of the flipping post-process.
	Flips int `json:"flips,omitempty"`
	// Lambda is the dataflow blend of the run (HiDaP runs).
	Lambda float64 `json:"lambda,omitempty"`
	// SeqNodes / SeqEdges are the sequential-graph size (Table I).
	SeqNodes int `json:"seq_nodes,omitempty"`
	SeqEdges int `json:"seq_edges,omitempty"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Options configures one measurement. The models themselves are fixed:
// route.DefaultOptions for congestion, seqgraph.DefaultParams for Gseq and
// the die-calibrated sta.DefaultOptions for timing.
type Options struct {
	// Graph optionally supplies a prebuilt sequential graph (the harness
	// reuses one graph across the flows of a circuit).
	Graph *seqgraph.Graph
}

// CalibrateSTA scales the wire-delay coefficient to the die so that a stage
// crossing ~70% of the die half-perimeter consumes the full wire budget.
// The suite scales cell counts (and with them die sizes) down from the
// paper's multi-million-cell designs; scaling electrical reach with the die
// keeps the timing picture equivalent. Explicit values pass through.
func CalibrateSTA(d *netlist.Design, base sta.Options) sta.Options {
	def := sta.DefaultOptions()
	if base.ClockPs <= 0 {
		base.ClockPs = def.ClockPs
	}
	if base.IntrinsicPs <= 0 {
		base.IntrinsicPs = def.IntrinsicPs
	}
	if base.WirePsPerDBU == 0 {
		span := float64(d.Die.W + d.Die.H)
		wireBudget := base.ClockPs - base.IntrinsicPs
		base.WirePsPerDBU = wireBudget / (0.7 * span / 2)
	}
	return base
}

// Evaluate measures a fully placed design: wirelength, congestion and timing
// under the shared models, plus the sequential-graph size. The placement is
// not modified. Cancellation is honored between the model stages.
func Evaluate(ctx context.Context, d *netlist.Design, pl *placement.Placement, opt Options) (*Report, error) {
	r := &Report{Design: d.Name}

	r.WirelengthM = metrics.WirelengthMeters(pl)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.CongestionPct = route.Estimate(pl, route.DefaultOptions()).OverflowPct
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sg := opt.Graph
	if sg == nil {
		sg = seqgraph.Build(d, seqgraph.DefaultParams())
	}
	st := sg.Stats()
	r.SeqNodes = st.Nodes
	r.SeqEdges = st.Edges
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	timing := sta.Analyze(sg, pl, CalibrateSTA(d, sta.Options{}))
	r.WNSPct = timing.WNSPct
	r.TNSns = timing.TNSns
	return r, nil
}
