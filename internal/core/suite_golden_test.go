package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/hier"
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
	"c1":  "5cb9292689c2f3b60674c663b8bf5a4212454a306af80e939b1b5274ee4e1c4b",
	"c2":  "e243123d5da71bfbcfebc4642ec5d9ef35d3eb35945c4c1814723d418d8b8122",
	"c3":  "fd4d77c72e27f59ab910427d38403ffbad43651fb2b2318ddc0a68542a449442",
	"c4":  "55319de55fde774eb0cd4c619223b7f86d9f7d6d859b4106cebb0dd247aae2fb",
	"c5":  "143fd22ae56435a535a3b065fbb23d49f89c228eecd0d4e5ad60cf0a796d9a06",
	"c6":  "1ccb5c01a868204582ce48c48c2f267b778654f601df775b1bcaad100391d041",
	"c7":  "2c3875fdb556e560aa8535e3cf813dfad7561634d3c5084fe39344a767b7dfce",
	"c8":  "c8b89ea6abd33ce1d7f65d6d6f7c07a936b55c3f1ac6b893232d52b5ef9baa1e",
	"soc": "e0e4efbb59c99336ff92a45b4b02e57e8bbe8ba6755409fe37ce9c7e89d89e0e",
}

// suiteFingerprint serializes one low-effort run the way the miniSoC
// fingerprint does: progress stream (printed field by field, as
// writeProgress does), level and flip counts, trace, and
// every macro's position and orientation.
func suiteFingerprint(t *testing.T, g *circuits.Generated, par int) string {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Seed = 42
	opt.Effort = layout.EffortLow
	opt.Trace = true
	opt.Parallelism = par
	var sb strings.Builder
	opt.Progress = func(ev core.Progress) {
		fmt.Fprintf(&sb, "ev %s %q depth %d blocks %d level %d lambda %v flips %d\n",
			ev.Stage, ev.Path, ev.Depth, ev.Blocks, ev.Level, ev.Lambda, ev.Flips)
	}
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

// shapeCurvesGolden holds, per suite circuit at scale 400, the sha256 of
// every ByNode curve's corners from GenerateShapeCurves. It pins the
// per-node composition anneal and its Pareto accumulation directly, apart
// from the floorplan that consumes the curves. Update an entry only for a
// deliberate behaviour change.
var shapeCurvesGolden = map[string]string{
	"c1": "67a91fe8b5c6c0f548d9162d7ad12c218d8c806a5d433ad82897adadf9222566",
	"c2": "e187409b93c38b5e63155aa8d1f66e585d2be4988293624e8f4729c5b676e601",
	"c3": "64935c15aa0ac8fe24bdc3c0ba9fcb57ee71c49961cce9a2ae6906f4f3c6c85f",
	"c4": "a14a721a8e12d2dcede5a2be8b1c1f9364d0736333f1dbdfdd3136a45128d44d",
	"c5": "fd6b45a28fa500aa540a497beef2afad34c2f744f5d4d87839aa6e8e40bb524f",
	"c6": "2056418d6ce839e7a32213442bd5498e45d37fb1ae9d6aa82718bdc8eead8cfd",
	"c7": "6d17f9bbe7eff5302b6c13395454eccc80d1d468d983319969e30111bc91ff10",
	"c8": "a468890df0b3223bda04107528a7021f523423b65044800a38993b0cd9ca2a2a",
}

func TestShapeCurvesGolden(t *testing.T) {
	for _, spec := range circuits.Suite() {
		spec.Scale = 400
		d := circuits.Generate(spec).Design
		sc := core.GenerateShapeCurves(context.Background(), hier.New(d), 1)
		h := sha256.New()
		for _, id := range d.HierTopo() {
			c, ok := sc.ByNode[id]
			if !ok {
				continue
			}
			fmt.Fprintf(h, "node %d %s corners %d\n", id, d.Node(id).Path, c.Len())
			for i := 0; i < c.Len(); i++ {
				p := c.Corner(i)
				fmt.Fprintf(h, "%d %d\n", p.W, p.H)
			}
		}
		if got, want := fmt.Sprintf("%x", h.Sum(nil)), shapeCurvesGolden[spec.Name]; got != want {
			t.Errorf("%s: shape curves sha256 = %s, want %s", spec.Name, got, want)
		}
	}
}
