// Command hidap places the macros of a structural Verilog netlist with the
// HiDaP flow or the IndEDA baseline and writes the placement plus an SVG
// floorplan.
//
// Usage:
//
//	hidap -in design.v -top chip -out placement.txt -svg floorplan.svg
//	hidap -in design.v -top chip -flow indeda -seed 7
//	hidap -in design.v -top chip -lambda 0.2 -effort high -cells -json
//
// -flow selects hidap or indeda. The third flow, handfp, realizes a
// designer intent that a netlist does not carry, so the command refuses it.
// Macro cell types are declared inline with -macro name=WxHxBITS (repeat
// as needed) or via -lef; the DFF/gate library is built in. With -json the
// evaluation report is the only stdout payload (the placement listing goes
// to -out or stderr), so the output pipes straight into jq. Interrupting
// the run (Ctrl-C) cancels the placement promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/hidap"
	"repro/internal/outfile"
)

type macroFlags []string

func (m *macroFlags) String() string     { return strings.Join(*m, ",") }
func (m *macroFlags) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		in       = flag.String("in", "", "input structural Verilog file (required)")
		top      = flag.String("top", "top", "top module name")
		out      = flag.String("out", "", "placement output file (default stdout)")
		svg      = flag.String("svg", "", "optional SVG floorplan output")
		def_     = flag.String("def", "", "optional DEF placement output")
		lef      = flag.String("lef", "", "optional LEF file defining the macro library")
		flow     = flag.String("flow", "hidap", "placement flow: hidap|indeda")
		lambda   = flag.Float64("lambda", 0.5, "block-flow vs macro-flow blend λ")
		k        = flag.Float64("k", 2, "latency decay exponent")
		effort   = flag.String("effort", "medium", "annealing effort: low|medium|high")
		par      = flag.Int("parallelism", 0, "work-stealing scheduler lanes: 1 = serial, 0 = all cores; never changes the placement")
		seed     = flag.Int64("seed", 1, "random seed")
		cells    = flag.Bool("cells", false, "also run standard-cell placement and report metrics")
		jsonOut  = flag.Bool("json", false, "with -cells: print the evaluation report as JSON")
		progress = flag.Bool("progress", false, "stream per-level progress to stderr")

		cluster      = flag.Bool("cluster", false, "autocluster flat netlists into a synthesized hierarchy before placement")
		clusterInst  = flag.Int("cluster-max-inst", 0, "with -cluster: max instances per leaf cluster (0 = default)")
		clusterMacro = flag.Int("cluster-max-macro", 0, "with -cluster: max macros per leaf cluster (0 = default)")
	)
	var macros macroFlags
	flag.Var(&macros, "macro", "macro declaration name=WxHxBITS (DBU), repeatable")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	eff, err := hidap.ParseEffort(*effort)
	if err != nil {
		fatal(err)
	}
	if *flow != hidap.FlowHiDaP.Name() && *flow != hidap.FlowIndEDA.Name() {
		fatal(fmt.Errorf("-flow %q: want hidap or indeda (handfp needs a designer intent, which this command cannot supply)", *flow))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	src, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}

	lib := hidap.DefaultLibrary()
	if *lef != "" {
		if err := readLEF(*lef, lib); err != nil {
			fatal(err)
		}
	}
	for _, m := range macros {
		name, w, h, bits, err := parseMacro(m)
		if err != nil {
			fatal(err)
		}
		lib.AddMacro(name, w, h, bits)
	}

	var d *hidap.Design
	if strings.HasSuffix(*in, ".json") {
		d, err = hidap.ReadJSON(strings.NewReader(string(src)))
	} else {
		d, err = hidap.ParseVerilog(string(src), *top, lib)
	}
	if err != nil {
		fatal(fmt.Errorf("parse %s: %w", *in, err))
	}

	opts := []hidap.Option{
		hidap.WithLambda(*lambda),
		hidap.WithK(*k),
		hidap.WithSeed(*seed),
		hidap.WithParallelism(*par),
		hidap.WithEffort(eff),
	}
	if *progress {
		opts = append(opts, hidap.WithProgress(func(ev hidap.Progress) {
			switch ev.Stage {
			case hidap.StageLevel:
				fmt.Fprintf(os.Stderr, "# level %d: %q depth %d, %d blocks\n",
					ev.Level, ev.Path, ev.Depth, ev.Blocks)
			case hidap.StageFlips:
				fmt.Fprintf(os.Stderr, "# flipped %d macros\n", ev.Flips)
			}
		}))
	}
	if *cluster {
		p := hidap.DefaultAutocluster()
		if *clusterInst > 0 {
			p.MaxNumInst = *clusterInst
		}
		if *clusterMacro > 0 {
			p.MaxNumMacro = *clusterMacro
		}
		opts = append(opts, hidap.WithAutocluster(p))
	}
	// One job on a one-worker engine: the engine forces a job's Parallelism
	// to 1 only beside other workers, so -parallelism keeps its meaning.
	// With -cells the job also places the standard cells and measures the
	// result; cell placement moves only standard cells, so the macro
	// listing below is the same either way.
	eng := hidap.NewEngine(hidap.NewConfig(opts...), hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	res, err := eng.Run(ctx, hidap.Job{Design: d, Key: *in, Placer: *flow, Evaluate: *cells})
	if err != nil {
		fatal(err)
	}
	pl, rep := res.Placement, res.Report

	var sb strings.Builder
	fmt.Fprintf(&sb, "# design %s: die %dx%d DBU, %d macros, flow %s, %d levels\n",
		d.Name, d.Die.W, d.Die.H, len(d.Macros()), *flow, res.Stats.Levels)
	for _, m := range d.Macros() {
		r := pl.Rect(m)
		fmt.Fprintf(&sb, "macro %s %d %d %s\n", d.Cell(m).Name, r.X, r.Y, pl.Orient[m])
	}
	if rep != nil && !*jsonOut {
		fmt.Fprintf(&sb, "# WL %.6f m, GRC %.2f%%, WNS %.1f%%, TNS %.1f ns\n",
			rep.WirelengthM, rep.CongestionPct, rep.WNSPct, rep.TNSns)
	}
	listing := func(w io.Writer) error {
		_, err := io.WriteString(w, sb.String())
		return err
	}
	// With -json, stdout is reserved for the machine-readable report; the
	// placement listing moves to -out (or stderr) so `hidap ... -json | jq`
	// always reads a pure JSON stream.
	switch {
	case *out != "":
		err = outfile.Write(*out, listing)
	case rep != nil && *jsonOut:
		err = listing(os.Stderr)
	default:
		err = listing(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if rep != nil && *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *svg != "" {
		if err := outfile.Write(*svg, func(w io.Writer) error {
			hidap.WriteFloorplanSVG(w, pl)
			return nil
		}); err != nil {
			fatal(err)
		}
	}
	if *def_ != "" {
		if err := outfile.Write(*def_, func(w io.Writer) error { return hidap.WriteDEF(w, pl) }); err != nil {
			fatal(err)
		}
	}
}

// readLEF loads LEF macros into lib, reporting the file name on failure.
func readLEF(path string, lib *hidap.Library) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open LEF: %w", err)
	}
	defer f.Close()
	if _, err := hidap.ReadLEF(f, lib); err != nil {
		return fmt.Errorf("read LEF %s: %w", path, err)
	}
	return nil
}

func parseMacro(s string) (name string, w, h int64, bits int, err error) {
	eq := strings.IndexByte(s, '=')
	if eq < 1 {
		return "", 0, 0, 0, fmt.Errorf("bad -macro %q: want name=WxHxBITS", s)
	}
	name = s[:eq]
	parts := strings.Split(s[eq+1:], "x")
	if len(parts) != 3 {
		return "", 0, 0, 0, fmt.Errorf("bad -macro %q: want name=WxHxBITS", s)
	}
	w, err = strconv.ParseInt(parts[0], 10, 64)
	if err == nil {
		h, err = strconv.ParseInt(parts[1], 10, 64)
	}
	if err == nil {
		bits, err = strconv.Atoi(parts[2])
	}
	if err != nil {
		return "", 0, 0, 0, fmt.Errorf("bad -macro %q: %v", s, err)
	}
	return name, w, h, bits, nil
}

// fatal prints err with one "hidap:" prefix, which Engine errors already
// carry, and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hidap:", strings.TrimPrefix(err.Error(), "hidap: "))
	os.Exit(1)
}
