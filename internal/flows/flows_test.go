package flows

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/circuits"
	"repro/internal/autocluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/sta"
)

func tinyCircuit() *circuits.Generated {
	return circuits.Generate(circuits.Spec{
		Name: "t", Cells: 300_000, Macros: 8, Subsystems: 2,
		BusWidth: 32, PipelineDepth: 2, Scale: 300, Seed: 5,
	})
}

func fastOpts() Options {
	o := DefaultOptions()
	o.Effort = layout.EffortLow
	o.Lambdas = []float64{0.5}
	return o
}

func TestRunAllFlows(t *testing.T) {
	g := tinyCircuit()
	var rows []*Metrics
	for _, f := range []Flow{FlowIndEDA, FlowHiDaP, FlowHandFP} {
		m, pl, err := Run(context.Background(), g, f, fastOpts())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if m.WirelengthM <= 0 {
			t.Errorf("%s: WL = %v", f, m.WirelengthM)
		}
		if m.CongestionPct < 0 || m.CongestionPct > 100 {
			t.Errorf("%s: GRC%% = %v", f, m.CongestionPct)
		}
		if m.WNSPct > 0 {
			t.Errorf("%s: WNS%% = %v, must be <= 0", f, m.WNSPct)
		}
		if m.TNSns > 0 {
			t.Errorf("%s: TNS = %v, must be <= 0", f, m.TNSns)
		}
		if ov := pl.MacroOverlapArea(); ov != 0 {
			t.Errorf("%s: macro overlap %d", f, ov)
		}
		if err := pl.MacrosInsideDie(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		rows = append(rows, m)
	}

	Normalize(rows)
	for _, r := range rows {
		if r.Flow == FlowHandFP && math.Abs(r.WLnorm-1) > 1e-12 {
			t.Errorf("handFP norm = %v, want 1", r.WLnorm)
		}
		if r.WLnorm <= 0 {
			t.Errorf("%s norm = %v", r.Flow, r.WLnorm)
		}
	}

	sums := Summarize(rows)
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	for _, s := range sums {
		if s.WLGeoMean <= 0 {
			t.Errorf("%s geomean = %v", s.Flow, s.WLGeoMean)
		}
		if s.Effort == "" {
			t.Errorf("%s effort empty", s.Flow)
		}
	}
}

func TestHiDaPPicksBestLambda(t *testing.T) {
	g := tinyCircuit()
	opt := fastOpts()
	opt.Lambdas = []float64{0.2, 0.8}
	m, _, err := Run(context.Background(), g, FlowHiDaP, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lambda != 0.2 && m.Lambda != 0.8 {
		t.Errorf("winning lambda = %v, want one of the candidates", m.Lambda)
	}
}

// TestRunReportsWinnerStats: a Run HiDaP row's Report carries the winning
// candidate's bookkeeping, the levels and flips Place gives at that λ.
func TestRunReportsWinnerStats(t *testing.T) {
	g := tinyCircuit()
	opt := fastOpts()
	opt.Lambdas = nil // the paper's three candidates
	m, _, err := Run(context.Background(), g, FlowHiDaP, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Lambda = m.Lambda
	_, st, err := Place(context.Background(), core.NewArtifacts(g.Design, g.SeqGraph), FlowHiDaP, nil, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels == 0 || m.Levels != st.Levels || m.Flips != st.Flips {
		t.Errorf("row at λ %v: levels %d flips %d, Place: levels %d flips %d", m.Lambda, m.Levels, m.Flips, st.Levels, st.Flips)
	}
}

func TestRunUnknownFlow(t *testing.T) {
	g := tinyCircuit()
	if _, _, err := Run(context.Background(), g, Flow("nope"), fastOpts()); err == nil {
		t.Error("expected error for unknown flow")
	}
}

func TestCalibrateSTA(t *testing.T) {
	g := tinyCircuit()
	opt := eval.CalibrateSTA(g.Design, sta.Options{})
	if opt.WirePsPerDBU <= 0 {
		t.Fatalf("calibrated wire delay = %v", opt.WirePsPerDBU)
	}
	// A full die crossing must consume several clock periods' worth of
	// wire budget: delay(span) > clock.
	span := float64(g.Design.Die.W + g.Design.Die.H)
	if opt.IntrinsicPs+opt.WirePsPerDBU*span/2 <= opt.ClockPs {
		t.Error("calibration too lax: a half-span wire should violate")
	}
	// Explicit values pass through untouched.
	fixed := eval.CalibrateSTA(g.Design, sta.Options{ClockPs: 1000, IntrinsicPs: 1, WirePsPerDBU: 42})
	if fixed.WirePsPerDBU != 42 {
		t.Error("explicit wire delay overridden")
	}
}

func TestDeterministicMetrics(t *testing.T) {
	g := tinyCircuit()
	a, _, err := Run(context.Background(), g, FlowHiDaP, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(context.Background(), g, FlowHiDaP, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.WirelengthM != b.WirelengthM || a.CongestionPct != b.CongestionPct || a.WNSPct != b.WNSPct || a.TNSns != b.TNSns {
		t.Errorf("metrics nondeterministic: %+v vs %+v", a, b)
	}
}

func TestNormalizeWithoutHandFP(t *testing.T) {
	rows := []*Metrics{{Circuit: "x", Flow: FlowHiDaP, Report: eval.Report{WirelengthM: 2}}}
	Normalize(rows) // no handFP reference: norms stay zero, no panic
	if rows[0].WLnorm != 0 {
		t.Errorf("norm = %v, want 0 without a reference", rows[0].WLnorm)
	}
}

func TestNormalizeEmptyRows(t *testing.T) {
	Normalize(nil) // must not panic
	Normalize([]*Metrics{})
}

// TestSummarizeSkipsUnsetNorms is the regression test for the geomean
// collapse: a circuit without a handFP reference row leaves WLnorm at 0,
// and Summarize used to feed that zero into metrics.GeoMean, flattening
// the whole aggregate to 0. Unset norms must be skipped instead.
func TestSummarizeSkipsUnsetNorms(t *testing.T) {
	rows := []*Metrics{
		// Circuit "a" has a reference; "b" does not.
		{Circuit: "a", Flow: FlowHiDaP, Report: eval.Report{WirelengthM: 2, WNSPct: -4}},
		{Circuit: "a", Flow: FlowHandFP, Report: eval.Report{WirelengthM: 1}},
		{Circuit: "b", Flow: FlowHiDaP, Report: eval.Report{WirelengthM: 3, WNSPct: -8}},
	}
	Normalize(rows)
	if rows[0].WLnorm != 2 || rows[2].WLnorm != 0 {
		t.Fatalf("norms = %v, %v; want 2, 0", rows[0].WLnorm, rows[2].WLnorm)
	}
	for _, s := range Summarize(rows) {
		if s.Flow != FlowHiDaP {
			continue
		}
		// Geomean over the referenced circuit only: exactly 2, not 0.
		if s.WLGeoMean != 2 {
			t.Errorf("WLGeoMean = %v, want 2 (unset norm must be skipped)", s.WLGeoMean)
		}
		// The unreferenced row still counts toward the WNS mean.
		if want := (-4.0 + -8.0) / 2; s.WNSMean != want {
			t.Errorf("WNSMean = %v, want %v", s.WNSMean, want)
		}
	}
}

func TestSummarizeAllNormsUnset(t *testing.T) {
	rows := []*Metrics{
		{Circuit: "x", Flow: FlowHiDaP, Report: eval.Report{WirelengthM: 2, WNSPct: -1}},
	}
	Normalize(rows)
	sums := Summarize(rows)
	if len(sums) != 1 {
		t.Fatalf("sums = %+v", sums)
	}
	// No reference anywhere: the geomean is reported as 0 (unknown), and
	// must not panic or fabricate a value.
	if sums[0].WLGeoMean != 0 || sums[0].WNSMean != -1 {
		t.Errorf("summary = %+v", sums[0])
	}
}

// TestSummarizeEffortIsWallTime: Table II's effort column sums the rows'
// MacroSeconds, which Run measures as wall time across its scheduler lanes,
// so the label must not call it CPU time.
func TestSummarizeEffortIsWallTime(t *testing.T) {
	rows := []*Metrics{
		{Circuit: "a", Flow: FlowHiDaP, Report: eval.Report{MacroSeconds: 1.5}},
		{Circuit: "b", Flow: FlowHiDaP, Report: eval.Report{MacroSeconds: 2}},
	}
	sums := Summarize(rows)
	if len(sums) != 1 {
		t.Fatalf("sums = %+v", sums)
	}
	if want := "3.5s wall here; "; !strings.HasPrefix(sums[0].Effort, want) {
		t.Errorf("effort = %q, want prefix %q", sums[0].Effort, want)
	}
}

func TestSummarizeEmptyRows(t *testing.T) {
	if sums := Summarize(nil); len(sums) != 0 {
		t.Errorf("summaries of no rows = %+v", sums)
	}
}

func TestWriteCSVEmptyRows(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "circuit,flow,") {
		t.Errorf("empty CSV = %q, want header only", sb.String())
	}
}

func TestWriteCSVMissingReference(t *testing.T) {
	rows := []*Metrics{{Circuit: "x", Flow: FlowHiDaP, Report: eval.Report{WirelengthM: 2}}}
	Normalize(rows)
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], ",0.0000,") {
		t.Errorf("unset norm should serialize as 0.0000: %q", sb.String())
	}
}

func TestSummarizeSkipsMissingFlows(t *testing.T) {
	rows := []*Metrics{
		{Circuit: "x", Flow: FlowHiDaP, WLnorm: 1.1, Report: eval.Report{WNSPct: -10}},
	}
	sums := Summarize(rows)
	if len(sums) != 1 || sums[0].Flow != FlowHiDaP {
		t.Errorf("sums = %+v", sums)
	}
}

func TestWriteCSV(t *testing.T) {
	rows := []*Metrics{
		{Circuit: "c1", Flow: FlowIndEDA, WLnorm: 1.2, Report: eval.Report{WirelengthM: 1.5, CongestionPct: 3, WNSPct: -10, TNSns: -5}},
		{Circuit: "c1", Flow: FlowHiDaP, WLnorm: 0.96, Report: eval.Report{WirelengthM: 1.2, Lambda: 0.5}},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "c1,IndEDA,1.500000,") {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[2], ",0.5") {
		t.Errorf("lambda missing: %q", lines[2])
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := tinyCircuit()
	par := fastOpts()
	par.Lambdas = []float64{0.2, 0.5, 0.8}
	seq := par
	seq.Parallelism = 1

	mp, _, err := Run(context.Background(), g, FlowHiDaP, par)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := Run(context.Background(), g, FlowHiDaP, seq)
	if err != nil {
		t.Fatal(err)
	}
	if mp.WirelengthM != ms.WirelengthM || mp.Lambda != ms.Lambda {
		t.Errorf("parallel (%v, λ=%v) != sequential (%v, λ=%v)",
			mp.WirelengthM, mp.Lambda, ms.WirelengthM, ms.Lambda)
	}

	// Any scheduler width (including one far above the candidate count) must
	// select the same winner: scheduling order is irrelevant to selection.
	for _, workers := range []int{2, 16} {
		capped := par
		capped.Parallelism = workers
		mc, _, err := Run(context.Background(), g, FlowHiDaP, capped)
		if err != nil {
			t.Fatal(err)
		}
		if mc.WirelengthM != ms.WirelengthM || mc.Lambda != ms.Lambda {
			t.Errorf("workers=%d: (%v, λ=%v) != sequential (%v, λ=%v)",
				workers, mc.WirelengthM, mc.Lambda, ms.WirelengthM, ms.Lambda)
		}
	}
}

// TestAutoclusterDifferential runs the HiDaP pipeline on a well-shaped suite
// circuit with and without the autoclustering front-end. A healthy hierarchy
// must pass through as a no-op, so every Table II/III metric agrees within
// the issue's 1% budget (in fact exactly).
func TestAutoclusterDifferential(t *testing.T) {
	g := tinyCircuit()
	base, _, err := Run(context.Background(), g, FlowHiDaP, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.Artifacts = clusterArtifacts(t, g, autocluster.DefaultParams())
	clustered, _, err := Run(context.Background(), g, FlowHiDaP, opt)
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, a, b float64) {
		t.Helper()
		if a == b {
			return
		}
		ref := math.Abs(a)
		if ref == 0 {
			ref = 1
		}
		if math.Abs(a-b)/ref > 0.01 {
			t.Errorf("%s diverged: base %v, autocluster %v", name, a, b)
		}
	}
	within("WL", base.WirelengthM, clustered.WirelengthM)
	within("GRC%", base.CongestionPct, clustered.CongestionPct)
	within("WNS%", base.WNSPct, clustered.WNSPct)
	within("TNS", base.TNSns, clustered.TNSns)
}

// TestAutoclusterFlatFlow drives a fully flat netlist through the whole
// HiDaP pipeline with the front-end enabled: without it the multilevel flow
// would see a single root node; with it the synthesized hierarchy makes the
// run complete with a real placement.
func TestAutoclusterFlatFlow(t *testing.T) {
	spec := circuits.Spec{
		Name: "flatflow", Cells: 300_000, Macros: 8, Subsystems: 2,
		BusWidth: 32, PipelineDepth: 2, Scale: 300, Seed: 5, Flat: true,
	}
	g := circuits.Generate(spec)
	if len(g.Design.Hier) != 1 {
		t.Fatalf("flat spec produced %d hierarchy nodes", len(g.Design.Hier))
	}
	opt := fastOpts()
	p := autocluster.DefaultParams()
	p.MaxNumInst = 300
	p.MaxNumMacro = 3
	p.MinNumMacro = 1
	opt.Artifacts = clusterArtifacts(t, g, p)
	if opt.Artifacts.Design() == g.Design {
		t.Error("flat design must not be a no-op")
	}
	m, pl, err := Run(context.Background(), g, FlowHiDaP, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.WirelengthM <= 0 {
		t.Errorf("WL = %v", m.WirelengthM)
	}
	if !pl.AllMacrosPlaced() {
		t.Error("macros unplaced")
	}
	if ov := pl.MacroOverlapArea(); ov != 0 {
		t.Errorf("macro overlap %d", ov)
	}
}

// clusterArtifacts returns the artifacts of g's design autoclustered under p.
func clusterArtifacts(t *testing.T, g *circuits.Generated, p autocluster.Params) *core.Artifacts {
	t.Helper()
	art, _, _, err := core.NewArtifacts(g.Design, g.SeqGraph).Cluster(p)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestRunMacroSecondsExcludesCellPlacement: a Run row's MacroSeconds is the
// wall time of macro placement alone. On a circuit whose few macros place
// in a moment while its cells take most of the run, every row must report
// well under half of the Run call's wall time. The HiDaP row runs three
// candidates at Parallelism 1, and each subsystem holds several macros, so
// a candidate waiting on its forked subtrees runs the other candidates'
// queued tasks on its own goroutine.
func TestRunMacroSecondsExcludesCellPlacement(t *testing.T) {
	g := circuits.Generate(circuits.Spec{
		Name: "cells", Cells: 600_000, Macros: 6, Subsystems: 2,
		BusWidth: 8, PipelineDepth: 1, Scale: 20, Seed: 5,
	})
	for _, flow := range []Flow{FlowHandFP, FlowHiDaP} {
		opt := fastOpts()
		opt.Lambdas, opt.Parallelism = nil, 1 // the paper's three candidates
		start := time.Now()
		m, _, err := Run(context.Background(), g, flow, opt)
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		t.Logf("%s: macro %.4fs of %.4fs", flow, m.MacroSeconds, wall)
		if m.MacroSeconds <= 0 || m.MacroSeconds >= wall/2 {
			t.Errorf("%s: MacroSeconds = %.4fs of a %.4fs Run, want in (0, %.4f)", flow, m.MacroSeconds, wall, wall/2)
		}
	}
}
