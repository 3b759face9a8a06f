package flows

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/circuits"
	"repro/internal/handfp"
	"repro/internal/indeda"
	"repro/internal/layout"
	"repro/internal/placement"
)

// flowsGolden is the sha256 of every macro's position and orientation after
// each of the three flows places suite circuit c1 at low effort. It pins the
// placements across commits, covering the HiDaP model-based anneal as well
// as the closure-based anneals of IndEDA, handFP and shape-curve
// generation. Update it only for a deliberate behaviour change.
const flowsGolden = "8934f06a9c40d08e0af45230feac13fe737a8da4b8d6e5f7586553b57a5bf088"

func TestFlowsGolden(t *testing.T) {
	spec, err := circuits.SuiteSpec("c1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 2000
	g := circuits.Generate(spec)
	opt := DefaultOptions()
	opt.Effort = layout.EffortLow
	var sb strings.Builder
	for _, f := range []Flow{FlowIndEDA, FlowHiDaP, FlowHandFP} {
		m, pl, err := Run(context.Background(), g, f, opt)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		fmt.Fprintf(&sb, "%s lambda %v\n", f, m.Lambda)
		for _, c := range g.Design.Macros() {
			fmt.Fprintf(&sb, "%s %s %v %v\n", f, g.Design.Cells[c].Name, pl.Pos[c], pl.Orient[c])
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != flowsGolden {
		t.Fatalf("flow placements sha256 = %s, want %s\n%s", got, flowsGolden, sb.String())
	}
}

// baselineSuiteGolden is the sha256 of every macro's position and
// orientation after indeda.Place (at both efforts) and handfp.Place place
// each of the eight suite circuits at scale 400, seed 1. It pins the two
// baselines' refinement anneal and flipping pass on every suite circuit;
// TestFlowsGolden covers only c1. Update it only for a deliberate behaviour
// change.
const baselineSuiteGolden = "74b868ad7f928ac5510185a59a146233c966a23aad7fec37ffe7254e0533c2e3"

func TestBaselineSuiteGolden(t *testing.T) {
	ctx := context.Background()
	var sb strings.Builder
	for _, spec := range circuits.Suite() {
		spec.Scale = 400
		g := circuits.Generate(spec)
		d := g.Design
		record := func(flow string, pl *placement.Placement, err error) {
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, flow, err)
			}
			for _, c := range d.Macros() {
				fmt.Fprintf(&sb, "%s %s %s %v %v\n", spec.Name, flow, d.Cells[c].Name, pl.Pos[c], pl.Orient[c])
			}
		}
		for _, high := range []bool{false, true} {
			pl, err := indeda.Place(ctx, d, indeda.Options{Seed: 1, HighEffort: high, WallWeight: 0.4})
			record(fmt.Sprintf("indeda-high=%v", high), pl, err)
		}
		pl, err := handfp.Place(ctx, d, g.Intent, handfp.Options{Seed: 1})
		record("handfp", pl, err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != baselineSuiteGolden {
		t.Fatalf("baseline placements sha256 = %s, want %s", got, baselineSuiteGolden)
	}
}
