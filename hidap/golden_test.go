package hidap_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/circuits"
	"repro/hidap"
)

// The placer goldens pin the public entry point across commits: the sha256
// of every macro's position and orientation, placed once by a one-shot
// Engine job without Evaluate and once by one with Evaluate (whose report
// wirelength is pinned too). A refactor of the Engine or flow plumbing
// that shifts any macro fails here. Update them only for a deliberate
// behaviour change.
const (
	placerGolden      = "6a22f24e5160282de4bdb39dfcbcfed5f30bbf533c00d15f5d427fa3e019ea30"
	autoclusterGolden = "e0d2d9bee82fed400e31ed9695529d17ab318c1a03ffef209b81a50d80cc08bf"
)

func macroLines(sb *strings.Builder, tag string, pl *hidap.Placement) {
	for _, m := range pl.D.Macros() {
		fmt.Fprintf(sb, "%s %s %v %v\n", tag, pl.D.Cells[m].Name, pl.Pos[m], pl.Orient[m])
	}
}

func checkGolden(t *testing.T, what, want string, sb *strings.Builder) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != want {
		t.Fatalf("%s sha256 = %s, want %s\n%s", what, got, want, sb.String())
	}
}

func TestPlacerGolden(t *testing.T) {
	spec, err := circuits.SuiteSpec("c1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 2000
	g := circuits.Generate(spec)
	ctx := context.Background()
	cfg := hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1), hidap.WithIntent(g.Intent))
	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 1})
	defer eng.Close()

	var sb strings.Builder
	for _, name := range []string{"hidap", "indeda", "handfp"} {
		one, err := eng.Run(ctx, hidap.Job{Design: g.Design, Placer: name, Config: cfg})
		if err != nil {
			t.Fatalf("%s one-shot: %v", name, err)
		}
		macroLines(&sb, name+" one-shot", one.Placement)
		res, err := eng.Run(ctx, hidap.Job{Design: g.Design, Placer: name, Config: cfg, Evaluate: true})
		if err != nil {
			t.Fatalf("%s engine: %v", name, err)
		}
		macroLines(&sb, name+" engine", res.Placement)
		fmt.Fprintf(&sb, "%s wl %v\n", name, res.Report.WirelengthM)
	}
	checkGolden(t, "placer", placerGolden, &sb)
}

// TestAutoclusterGolden pins HiDaP with the autoclustering front-end on a
// flat netlist, placed by two non-evaluating Engine jobs: the "one-shot"
// one on a fresh engine, the "engine" one on an engine that already
// clustered the design.
func TestAutoclusterGolden(t *testing.T) {
	spec := loadSpecA()
	spec.Flat = true
	g := circuits.Generate(spec)
	ctx := context.Background()
	ac := hidap.DefaultAutocluster()
	ac.MaxNumInst = 300
	ac.MaxNumMacro = 3
	ac.MinNumMacro = 1
	cfg := hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1), hidap.WithAutocluster(ac))

	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	one, err := eng.Run(ctx, hidap.Job{Design: g.Design, Placer: "hidap", Config: cfg})
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	var sb strings.Builder
	macroLines(&sb, "one-shot", one.Placement)
	res, err := eng.Run(ctx, hidap.Job{Design: g.Design, Placer: "hidap", Config: cfg})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	macroLines(&sb, "engine", res.Placement)
	checkGolden(t, "autocluster", autoclusterGolden, &sb)
}
