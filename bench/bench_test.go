package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/circuits"
	"repro/internal/flows"
	"repro/internal/layout"
	"repro/internal/netlist"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds < 1 || b.RunSeconds > 60 || strings.Join(b.Paths, ",") != "bench" || strings.Join(b.Command, " ") != "bash bench/run.sh" {
		t.Errorf("BENCHMARK.json command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, allWorkloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
}

// TestMovesTargetsExist checks that every per-layer prediction names an
// end-to-end metric and a workload the benchmark has.
func TestMovesTargetsExist(t *testing.T) {
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	wl := map[string]bool{}
	for _, w := range allWorkloads {
		wl[w] = true
	}
	for _, d := range perLayer {
		for _, tg := range d.moves {
			if !e2e[tg.metric] {
				t.Errorf("%s moves unknown end-to-end metric %q", d.name, tg.metric)
			}
			if len(tg.workloads) == 0 {
				t.Errorf("%s moves %s on no workload", d.name, tg.metric)
			}
			for _, w := range tg.workloads {
				if !wl[w] {
					t.Errorf("%s moves %s on unknown workload %q", d.name, tg.metric, w)
				}
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at smoke size
// and checks the printed result.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(ctx, w, smokeSize, 1, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, endToEnd, true)

			r, err = traceRun(ctx, w, smokeSize, 1, time.Millisecond, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, perLayer, false)
			if r.values["core.place_s"] <= 0 || r.values["core.levels"] <= 0 || r.values["trace.replay_s"] <= 0 {
				t.Errorf("every workload places macros through core, yet core.place_s=%v core.levels=%v trace.replay_s=%v",
					r.values["core.place_s"], r.values["core.levels"], r.values["trace.replay_s"])
			}
		})
	}
}

// checkResult parses the printed JSON line and checks it carries exactly the
// catalogue's metrics, finite, in their units.
func checkResult(t *testing.T, r *result, defs []metricDef, positive bool) {
	t.Helper()
	if !r.correct || r.failed != 0 || r.attempted < 1 {
		t.Fatalf("correct=%v failed=%d attempted=%d; notes:\n%s", r.correct, r.failed, r.attempted, strings.Join(r.notes, "\n"))
	}
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   *bool                 `json:"correct"`
		Attempted *int                  `json:"attempted"`
		Failed    *int                  `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil || out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("last line %q is not the result object: %v", lines[len(lines)-1], err)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

// TestSeedChangesInputs checks that -seed reaches the generated inputs and
// leaves the set of metrics alone.
func TestSeedChangesInputs(t *testing.T) {
	w, err := workloadByName(wFlat)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[int64]string{}
	metricSets := map[int64]string{}
	for _, seed := range []int64{1, 2} {
		in, err := flatSetup(smokeSize, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, g := range in.gens {
			if err := netlist.WriteJSON(h, g.Design); err != nil {
				t.Fatal(err)
			}
		}
		hashes[seed] = string(h.Sum(nil))
		r, err := measure(context.Background(), w, smokeSize, seed, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for n := range r.values {
			names = append(names, n)
		}
		sort.Strings(names)
		metricSets[seed] = strings.Join(names, ",")
	}
	if hashes[1] == hashes[2] {
		t.Error("seeds 1 and 2 generate the same cold_flat netlists")
	}
	if metricSets[1] != metricSets[2] {
		t.Errorf("seeds 1 and 2 emit different metrics: %s vs %s", metricSets[1], metricSets[2])
	}
}

// TestLegalityOracle checks the oracle on a legal placement, on hand-made
// violations, and on a known illegal HiDaP result.
func TestLegalityOracle(t *testing.T) {
	ctx := context.Background()
	spec, err := circuits.SuiteSpec("c1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 2000
	g := circuits.Generate(spec)
	opt := flows.DefaultOptions()
	opt.Seed = 1
	opt.Effort = layout.EffortLow
	_, pl, err := flows.Run(ctx, g, flows.FlowHandFP, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLegal(pl); err != nil {
		t.Fatalf("handFP on c1 judged illegal: %v", err)
	}
	macros := pl.D.Macros()

	moved := pl.Clone()
	moved.Pos[macros[1]] = moved.Pos[macros[0]]
	if err := checkLegal(moved); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("stacked macros: got %v, want an overlap", err)
	}
	outside := pl.Clone()
	outside.Pos[macros[0]].X = pl.D.Die.X2()
	if err := checkLegal(outside); err == nil {
		t.Error("macro beyond the die passed")
	}
	unplaced := pl.Clone()
	unplaced.Placed[macros[0]] = false
	if err := checkLegal(unplaced); err == nil {
		t.Error("unplaced macro passed")
	}

	// A known defect, pinned until it is fixed: HiDaP at low effort leaves
	// macros overlapping on c2 at scale 2000.
	spec, err = circuits.SuiteSpec("c2")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 2000
	_, pl, err = flows.Run(ctx, circuits.Generate(spec), flows.FlowHiDaP, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a := pl.MacroOverlapArea(); a != 1_320_000_000 {
		t.Errorf("HiDaP c2 scale 2000 low effort seed 1: overlap %d DBU², pinned at 1320000000", a)
	}
	if err := checkLegal(pl); err == nil {
		t.Error("the overlapping c2 placement passed the oracle")
	}
}
