package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/layout"
)

// suiteGoldenSpecs are the designs TestPlaceSuiteGolden pins: the eight
// suite circuits at scale 400 plus the benchmark's small SoC.
func suiteGoldenSpecs() []circuits.Spec {
	var specs []circuits.Spec
	for _, s := range circuits.Suite() {
		s.Scale = 400
		specs = append(specs, s)
	}
	return append(specs, circuits.Spec{
		Name: "soc", Cells: 2_000_000, Macros: 40, Subsystems: 16,
		BusWidth: 64, PipelineDepth: 2, Scale: 2000, Seed: 201,
	})
}

// suiteGolden holds, per design, the sha256 of suiteFingerprint. Update an
// entry only for a deliberate behaviour change.
var suiteGolden = map[string]string{
	"c1":  "0d3cfb1b3cf4bc14e162f6e467800b5233ccab75627bdd979dc42aabfb207d13",
	"c2":  "edd2dc5bfcece47b1ce6b5c70a879cd10cc9f2758c32244ff82c69e8091b4f8f",
	"c3":  "a1f7e2b74eb27b1bd9f321c68131b78ca906b812f01d07a23c265448f938ffbf",
	"c4":  "7f0b908c0e80c1fa2f2dc0835c733a58db963acf4df495702fc67371f45d4edf",
	"c5":  "1dc55cf59c760f3e35c1b222f3a11d6048c48bc3bbe2fc2fc1345ded625d0c67",
	"c6":  "3c8e7e4ae1a40a75c1a5ef152627ddd75b295ba3b5d088ca5fdcec4357026726",
	"c7":  "4f48bfee4065072dcc6deb13d7990b09e97332fa4df987415013db5219f22eed",
	"c8":  "1db95d88c3d3db5ed133596ebc03f2ff53eea4880dd7c582ba27b4948bb9ceec",
	"soc": "424d3ef0a709ac1ceb42670fe5fca1a9058544db4c3e85615308a0f896de6fab",
}

// suiteFingerprint serializes one low-effort run the way the miniSoC
// fingerprint does: progress stream, level and flip counts, trace, and
// every macro's position and orientation.
func suiteFingerprint(t *testing.T, g *circuits.Generated, par int) string {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Seed = 42
	opt.Effort = layout.EffortLow
	opt.Trace = true
	opt.Parallelism = par
	var sb strings.Builder
	opt.Progress = func(ev core.Progress) { fmt.Fprintf(&sb, "ev %+v\n", ev) }
	res, err := core.Place(context.Background(), g.Design, opt)
	if err != nil {
		t.Fatalf("%s Place(par=%d): %v", g.Spec.Name, par, err)
	}
	fmt.Fprintf(&sb, "levels %d flips %d\n", res.Levels, res.Flips)
	for _, tl := range res.Trace {
		fmt.Fprintf(&sb, "trace %+v\n", tl)
	}
	for _, m := range g.Design.Macros() {
		fmt.Fprintf(&sb, "macro %d %v %v %v\n", m, res.Placement.Pos[m], res.Placement.Orient[m], res.Placement.Placed[m])
	}
	return sb.String()
}

// TestPlaceSuiteGolden pins core.Place across commits on designs with
// many more levels and subtrees than miniSoC, at two scheduler widths.
func TestPlaceSuiteGolden(t *testing.T) {
	for _, spec := range suiteGoldenSpecs() {
		g := circuits.Generate(spec)
		for _, par := range []int{1, 3} {
			fp := suiteFingerprint(t, g, par)
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp)))
			if want := suiteGolden[spec.Name]; got != want {
				t.Errorf("%s par=%d: fingerprint sha256 = %s, want %s", spec.Name, par, got, want)
			}
		}
	}
}
