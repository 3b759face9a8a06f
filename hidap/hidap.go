// Package hidap is the public API of the HiDaP reproduction: RTL-aware,
// dataflow-driven macro placement after Vidal-Obiols et al. (DATE 2019).
//
// # Placing and measuring a design
//
// The package places with the paper's three flows: "hidap" (the paper's
// flow), "indeda" (the industrial baseline) and "handfp" (the handcrafted
// floorplan oracle, which needs a designer intent). Every placement is a
// job on an Engine; with Evaluate it also places the standard cells and
// measures the result, through the same pipeline as the paper's Tables:
//
//	b := hidap.NewDesign("soc")
//	... build the hierarchical netlist (or hidap.ParseVerilog) ...
//	d := b.MustBuild()
//	cfg := hidap.NewConfig(hidap.WithLambda(0.5), hidap.WithSeed(7))
//	eng := hidap.NewEngine(cfg, hidap.EngineOptions{Workers: 1})
//	defer eng.Close()
//	res, err := eng.Run(ctx, hidap.Job{
//		Design:   d,
//		Placer:   "hidap", // or "indeda", "handfp"
//		Evaluate: true,    // standard cells + one JSON-ready Report
//	})
//	// res.Placement, res.Stats (levels, flips, λ), res.Report
//
// Jobs honor context cancellation and deadlines, report progress through
// hidap.WithProgress, and are deterministic for a fixed seed.
//
// # Engine: the long-lived run model
//
// Placement is a batch workload — many jobs over few designs — so the
// package's run model is the Engine: a long-lived object that runs at most
// Workers jobs at a time, with a content-hash design cache (parsed netlists
// plus their sequential graphs, hierarchy trees, bipartite graphs and
// autoclustered variants) and pooled annealing scratch. Back-to-back
// jobs on the same design run allocation-warm; concurrent jobs share the
// caches race-free:
//
//	eng := hidap.NewEngine(cfg, hidap.EngineOptions{Workers: 8})
//	defer eng.Close()
//	t, _ := eng.Submit(ctx, hidap.Job{Design: d, Placer: "hidap", Evaluate: true})
//	res, err := t.Wait(ctx)             // res.Report is the JSON-ready record
//
// Every job, on a Design or a generated suite Circuit, runs one path with
// the flow Job.Placer names: once, or, when it evaluates, at each λ
// candidate of the same place → cell-place → measure pipeline the Tables
// use. Engine.SubmitBatch fans a whole evaluation suite (circuits × flows ×
// seeds) through the engine and aggregates it with the Tables II/III
// pipeline (see cmd/hidap-serve for the HTTP surface).
//
// # Interchange
//
// The package also re-exports the stable subset of the internal machinery:
// netlist construction, the Verilog front end, metric models, interchange
// formats and SVG rendering. Placements and measurements go through Engine
// jobs.
package hidap

import (
	"io"

	"repro/internal/core"
	"repro/internal/deffmt"
	"repro/internal/geom"
	"repro/internal/handfp"
	"repro/internal/layout"
	"repro/internal/leffmt"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/render"
	"repro/internal/verilog"
)

// Geometry aliases.
type (
	// Point is a die location in DBU (1 DBU = 1 nm).
	Point = geom.Point
	// Rect is an axis-aligned rectangle in DBU.
	Rect = geom.Rect
	// Orient is a placement orientation (R0, MX, MY, ...).
	Orient = geom.Orient
)

// Pt builds a Point.
func Pt(x, y int64) Point { return geom.Pt(x, y) }

// RectXYWH builds a Rect from origin and extents.
func RectXYWH(x, y, w, h int64) Rect { return geom.RectXYWH(x, y, w, h) }

// Netlist aliases.
type (
	// Design is a frozen hierarchical netlist.
	Design = netlist.Design
	// Builder constructs designs programmatically.
	Builder = netlist.Builder
	// CellID identifies a cell in a Design.
	CellID = netlist.CellID
)

// NewDesign returns a Builder for a new hierarchical netlist.
func NewDesign(name string) *Builder { return netlist.NewBuilder(name) }

// Verilog front end aliases.
type (
	// Library is the primitive cell library for Verilog elaboration.
	Library = verilog.Library
)

// DefaultLibrary returns the synthetic standard-cell library (DFF, gates).
// Register design-specific macros with Library.AddMacro.
func DefaultLibrary() *Library { return verilog.DefaultLibrary() }

// ParseVerilog parses a structural Verilog source and elaborates the named
// top module into a Design.
func ParseVerilog(src, top string, lib *Library) (*Design, error) {
	f, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	return verilog.Elaborate(f, top, lib)
}

// WriteVerilog emits a flat design as structural Verilog.
func WriteVerilog(w io.Writer, d *Design, lib *Library) error {
	return verilog.Write(w, d, lib)
}

// Placement aliases.
type (
	// LevelTrace is one recursion level of the multi-level floorplan.
	LevelTrace = core.LevelTrace
	// Placement is the physical state: positions and orientations.
	Placement = placement.Placement
	// Effort selects the annealing budget.
	Effort = layout.Effort
)

// Annealing efforts.
const (
	EffortLow    = layout.EffortLow
	EffortMedium = layout.EffortMedium
	EffortHigh   = layout.EffortHigh
)

// Intent maps macro cell names to intended placed outlines; it feeds the
// handcrafted-floorplan oracle.
type Intent = handfp.Intent

// WriteFloorplanSVG renders macros and ports of a placement.
func WriteFloorplanSVG(w io.Writer, pl *Placement) { render.Floorplan(w, pl, 800) }

// WriteTraceSVG renders one recursion level of the multi-level floorplan
// (the evolution of the paper's Fig. 1).
func WriteTraceSVG(w io.Writer, die Rect, level LevelTrace) {
	render.BlockTrace(w, die, level, 800)
}

// DensityASCII renders the standard-cell density map as text (Fig. 9).
func DensityASCII(pl *Placement, bins int) string {
	return render.DensityASCII(metrics.Density(pl, bins))
}

// WriteJSON serializes a design to the JSON interchange format.
func WriteJSON(w io.Writer, d *Design) error { return netlist.WriteJSON(w, d) }

// ReadJSON parses the JSON interchange format into a validated design.
func ReadJSON(r io.Reader) (*Design, error) { return netlist.ReadJSON(r) }

// WriteDEF emits the macro placement as a DEF COMPONENTS/PINS subset for
// hand-off to downstream place-and-route tools.
func WriteDEF(w io.Writer, pl *Placement) error { return deffmt.Write(w, pl) }

// ApplyDEF reads fixed component placements from a DEF stream and applies
// them onto a placement (matching macros by name).
func ApplyDEF(pl *Placement, r io.Reader) error {
	comps, err := deffmt.ReadComponents(r)
	if err != nil {
		return err
	}
	return deffmt.Apply(pl, comps)
}

// WriteLEF emits the macro cells of a library as LEF (Library Exchange
// Format) MACRO blocks.
func WriteLEF(w io.Writer, lib *Library) error { return leffmt.Write(w, lib) }

// ReadLEF parses LEF macros into lib (or a new library when lib is nil),
// ready for Verilog elaboration.
func ReadLEF(r io.Reader, lib *Library) (*Library, error) { return leffmt.Read(r, lib) }
