package hidap_test

import (
	"context"
	"strings"
	"testing"

	"repro/circuits"
	"repro/hidap"
)

const tinyVerilog = `
module top (din, dout);
  input [3:0] din;
  output [3:0] dout;
  wire [3:0] s;
  DFF r0 (.D(din[0]), .Q(s[0]));
  DFF r1 (.D(din[1]), .Q(s[1]));
  DFF r2 (.D(din[2]), .Q(s[2]));
  DFF r3 (.D(din[3]), .Q(s[3]));
  RAM4 u_mem (.D(s), .Q(dout));
endmodule
`

// runOne runs job on a fresh one-worker Engine whose default config is
// built from opts.
func runOne(ctx context.Context, job hidap.Job, opts ...hidap.Option) (*hidap.JobResult, error) {
	eng := hidap.NewEngine(hidap.NewConfig(opts...), hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	return eng.Run(ctx, job)
}

// place runs one non-evaluating Engine job of the named flow on d under a
// config built from opts, failing the test on error.
func place(t *testing.T, name string, d *hidap.Design, opts ...hidap.Option) (*hidap.Placement, hidap.Stats) {
	t.Helper()
	res, err := runOne(context.Background(), hidap.Job{Design: d, Placer: name}, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Placement, res.Stats
}

// measure runs one evaluating Engine job of the hidap flow on d under a
// config built from opts, failing the test on error.
func measure(t *testing.T, d *hidap.Design, opts ...hidap.Option) *hidap.JobResult {
	t.Helper()
	res, err := runOne(context.Background(), hidap.Job{Design: d, Placer: "hidap", Evaluate: true}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseVerilogAndPlace(t *testing.T) {
	lib := hidap.DefaultLibrary()
	lib.AddMacro("RAM4", 20_000, 12_000, 4)
	d, err := hidap.ParseVerilog(tinyVerilog, "top", lib)
	if err != nil {
		t.Fatal(err)
	}
	res := measure(t, d)
	if !res.Placement.AllMacrosPlaced() {
		t.Fatal("macro unplaced")
	}
	if res.Report.WirelengthM <= 0 {
		t.Errorf("wirelength = %v", res.Report.WirelengthM)
	}
}

func TestFullPublicFlow(t *testing.T) {
	g := circuits.Generate(circuits.Spec{
		Name: "pub", Cells: 200_000, Macros: 6, Subsystems: 2,
		BusWidth: 32, Scale: 400, Seed: 3,
	})
	res := measure(t, g.Design, hidap.WithEffort(hidap.EffortLow), hidap.WithTrace())
	pl, stats, rep := res.Placement, res.Stats, res.Report
	if rep.CongestionPct < 0 {
		t.Error("congestion negative")
	}
	if rep.WNSPct > 0 || rep.TNSns > 0 {
		t.Errorf("timing sign convention broken: wns=%v tns=%v", rep.WNSPct, rep.TNSns)
	}

	var sb strings.Builder
	hidap.WriteFloorplanSVG(&sb, pl)
	if !strings.Contains(sb.String(), "</svg>") {
		t.Error("floorplan SVG incomplete")
	}
	if len(stats.Trace) == 0 {
		t.Fatal("WithTrace recorded no levels")
	}
	sb.Reset()
	hidap.WriteTraceSVG(&sb, g.Design.Die, stats.Trace[0])
	if !strings.Contains(sb.String(), "</svg>") {
		t.Error("trace SVG incomplete")
	}
	if txt := hidap.DensityASCII(pl, 12); len(txt) == 0 {
		t.Error("density ASCII empty")
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	g := circuits.ABCDX()
	ind, _ := place(t, "indeda", g.Design, hidap.WithSeed(1))
	if !ind.AllMacrosPlaced() {
		t.Error("IndEDA left macros unplaced")
	}
	hfp, _ := place(t, "handfp", g.Design, hidap.WithSeed(1), hidap.WithIntent(g.Intent))
	if !hfp.AllMacrosPlaced() {
		t.Error("handFP left macros unplaced")
	}
}

func TestBuilderPublicAPI(t *testing.T) {
	b := hidap.NewDesign("mini")
	b.SetDie(hidap.RectXYWH(0, 0, 50_000, 50_000))
	m := b.AddMacro("grp/mem", 9_000, 6_000, "grp")
	r := b.AddFlop("grp/d[0]", "grp")
	b.Wire("n0", r, m)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := place(t, "hidap", d)
	if !d.Die.ContainsRect(pl.Rect(m)) {
		t.Error("macro escaped die")
	}
}

func TestWriteVerilogRoundTrip(t *testing.T) {
	lib := hidap.DefaultLibrary()
	lib.AddMacro("RAM4", 20_000, 12_000, 4)
	d, err := hidap.ParseVerilog(tinyVerilog, "top", lib)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hidap.WriteVerilog(&sb, d, lib); err != nil {
		t.Fatal(err)
	}
	d2, err := hidap.ParseVerilog(sb.String(), "top", lib)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, sb.String())
	}
	if d2.Stats().MacroCells != 1 {
		t.Error("macro lost in round trip")
	}
}

func TestLEFLibraryFlow(t *testing.T) {
	lib := hidap.DefaultLibrary()
	lib.AddMacro("RAM4", 20_000, 12_000, 4)
	var sb strings.Builder
	if err := hidap.WriteLEF(&sb, lib); err != nil {
		t.Fatal(err)
	}
	lib2, err := hidap.ReadLEF(strings.NewReader(sb.String()), hidap.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	d, err := hidap.ParseVerilog(tinyVerilog, "top", lib2)
	if err != nil {
		t.Fatalf("elaborate with LEF-read library: %v", err)
	}
	if len(d.Macros()) != 1 {
		t.Error("macro lost through LEF round trip")
	}
}

// TestParseEffort: the three effort names parse, and anything else —
// typos, empty, wrong case — is an error that names the value.
func TestParseEffort(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want hidap.Effort
		bad  bool
	}{
		{in: "low", want: hidap.EffortLow},
		{in: "medium", want: hidap.EffortMedium},
		{in: "high", want: hidap.EffortHigh},
		{in: "hgih", bad: true},
		{in: "", bad: true},
		{in: "HIGH", bad: true},
	} {
		got, err := hidap.ParseEffort(tc.in)
		switch {
		case tc.bad && err == nil:
			t.Errorf("ParseEffort(%q) = %v, want an error", tc.in, got)
		case tc.bad && !strings.Contains(err.Error(), `"`+tc.in+`"`):
			t.Errorf("ParseEffort(%q) error %q does not name the value", tc.in, err)
		case !tc.bad && (err != nil || got != tc.want):
			t.Errorf("ParseEffort(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
