// Package circuits generates the synthetic industrial designs used by the
// benchmark harness. The paper evaluates on eight proprietary eSilicon
// circuits (c1–c8) whose RTL hierarchy and array information cannot be
// published; this package builds hierarchical netlists with the same
// structural signature — memory-dominated subsystems, multi-bit register
// pipelines, wide inter-subsystem buses, boundary ports — plus a *planted
// floorplan intent* that stands in for the expert backend engineers'
// handcrafted solution.
//
// Macro counts match the paper exactly; standard-cell counts are divided by
// Spec.Scale (default 50) so the whole suite runs on a laptop. Cell count
// only affects substrate runtime, not which flow wins: the floorplanning
// difficulty lives in the macros and the dataflow structure.
package circuits

import "fmt"

// Spec parameterizes one synthetic design.
type Spec struct {
	// Name identifies the circuit (c1..c8 for the paper suite).
	Name string
	// Cells is the paper's standard-cell count; the generator creates
	// Cells/Scale cells.
	Cells int
	// Macros is the total macro count (matches the paper exactly). A spec
	// with no macros generates a macro-free design.
	Macros int
	// Subsystems is the number of macro-bearing functional units (default
	// 4). The generator builds at most one per macro, and one when there
	// are no macros.
	Subsystems int
	// BusWidth is the inter-subsystem bus width in bits.
	BusWidth int
	// PipelineDepth is the register stage count on inter-subsystem buses.
	PipelineDepth int
	// Topology selects the inter-subsystem dataflow: "chain" (default)
	// pipelines sub0 → sub1 → …; "star" exchanges every subsystem with a
	// central crossbar hub (the bus/crossbar pattern of real SoCs).
	Topology string
	// Scale divides Cells (default 50).
	Scale int
	// Utilization sets the die area: total cell area / Utilization.
	Utilization float64
	// Seed drives all randomized structure decisions.
	Seed int64
	// Flat strips the RTL hierarchy from the generated design (every cell
	// moves to the root), turning any spec into an autocluster regression
	// workload. Connectivity, names and the planted intent are unchanged.
	Flat bool
}

func (s Spec) withDefaults() Spec {
	if s.Scale <= 0 {
		s.Scale = 50
	}
	if s.Utilization <= 0 {
		s.Utilization = 0.70
	}
	if s.Subsystems <= 0 {
		s.Subsystems = 4
	}
	if s.BusWidth <= 0 {
		s.BusWidth = 64
	}
	if s.PipelineDepth <= 0 {
		s.PipelineDepth = 2
	}
	if s.Topology == "" {
		s.Topology = "chain"
	}
	return s
}

// Canonical returns the spec with every defaulted field made explicit, so
// two specs that generate the same design compare (and fingerprint) equal.
// Generate(s) and Generate(s.Canonical()) build identical designs.
func (s Spec) Canonical() Spec { return s.withDefaults() }

// ScaledCells returns the number of standard cells the generator targets.
func (s Spec) ScaledCells() int {
	sc := s.withDefaults()
	n := sc.Cells / sc.Scale
	if n < 200 {
		n = 200
	}
	return n
}

// Suite returns the paper's eight circuits (Table III row parameters:
// cells and macro counts match exactly; the remaining structure follows
// each circuit's character — e.g. c5 is macro-dense and small, c6 is
// cell-heavy with big macros).
func Suite() []Spec {
	return []Spec{
		{Name: "c1", Cells: 520_000, Macros: 32, Subsystems: 3, BusWidth: 64, PipelineDepth: 2, Seed: 101},
		{Name: "c2", Cells: 3_950_000, Macros: 100, Subsystems: 8, BusWidth: 128, PipelineDepth: 2, Seed: 102},
		{Name: "c3", Cells: 3_780_000, Macros: 94, Subsystems: 8, BusWidth: 128, PipelineDepth: 3, Seed: 103},
		{Name: "c4", Cells: 4_810_000, Macros: 122, Subsystems: 10, BusWidth: 128, PipelineDepth: 2, Seed: 104},
		{Name: "c5", Cells: 1_390_000, Macros: 133, Subsystems: 10, BusWidth: 64, PipelineDepth: 2, Seed: 105},
		{Name: "c6", Cells: 2_870_000, Macros: 90, Subsystems: 6, BusWidth: 128, PipelineDepth: 3, Seed: 106},
		{Name: "c7", Cells: 1_670_000, Macros: 108, Subsystems: 9, BusWidth: 64, PipelineDepth: 2, Seed: 107},
		{Name: "c8", Cells: 2_200_000, Macros: 37, Subsystems: 4, BusWidth: 64, PipelineDepth: 2, Seed: 108},
	}
}

// SuiteSpec returns the named suite circuit.
func SuiteSpec(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("circuits: unknown suite circuit %q", name)
}
