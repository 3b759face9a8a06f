package hidap_test

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/circuits"
	"repro/hidap"
)

// TestAllFlowsViaRegistry runs each of the three flows, by its Placers()
// name, as one non-evaluating Engine job.
func TestAllFlowsViaRegistry(t *testing.T) {
	if got, want := hidap.Placers(), []string{"handfp", "hidap", "indeda"}; !slices.Equal(got, want) {
		t.Errorf("Placers() = %v, want %v", got, want)
	}
	g := circuits.ABCDX()
	for _, name := range hidap.Placers() {
		pl, stats := place(t, name, g.Design,
			hidap.WithSeed(1), hidap.WithEffort(hidap.EffortLow), hidap.WithIntent(g.Intent))
		if !pl.AllMacrosPlaced() {
			t.Errorf("%s left macros unplaced", name)
		}
		if stats.Placer != name {
			t.Errorf("stats.Placer = %q, want %q", stats.Placer, name)
		}
		if stats.MacroSeconds < 0 {
			t.Errorf("%s: negative runtime", name)
		}
	}
}

func TestHandFPRequiresIntent(t *testing.T) {
	g := circuits.ABCDX()
	if _, err := runOne(context.Background(), hidap.Job{Design: g.Design, Placer: "handfp"}); err == nil {
		t.Fatal("handfp without intent must fail")
	}
}

func TestConfigOptions(t *testing.T) {
	cfg := hidap.NewConfig()
	if cfg.Lambda != 0.5 || cfg.K != 2 || cfg.Effort != hidap.EffortMedium {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	var got hidap.Progress
	fn := func(ev hidap.Progress) { got = ev }
	cfg = hidap.NewConfig(
		hidap.WithLambda(0.2),
		hidap.WithK(3),
		hidap.WithEffort(hidap.EffortHigh),
		hidap.WithSeed(9),
		hidap.WithTrace(),
		hidap.WithFlat(),
		hidap.WithProgress(fn),
	)
	if cfg.Lambda != 0.2 || cfg.K != 3 || cfg.Effort != hidap.EffortHigh ||
		cfg.Seed != 9 || !cfg.Trace || !cfg.Flat || cfg.Progress == nil {
		t.Errorf("options not applied: %+v", cfg)
	}
	cfg.Progress(hidap.Progress{Stage: hidap.StageLevel, Level: 3})
	if got.Stage != hidap.StageLevel || got.Level != 3 {
		t.Errorf("progress callback not wired: %+v", got)
	}
}

func TestProgressEventsStream(t *testing.T) {
	g := circuits.ABCDX()
	var levels, flips int
	_, stats := place(t, "hidap", g.Design,
		hidap.WithSeed(1),
		hidap.WithEffort(hidap.EffortLow),
		hidap.WithProgress(func(ev hidap.Progress) {
			switch ev.Stage {
			case hidap.StageLevel:
				levels++
			case hidap.StageFlips:
				flips++
			}
		}),
	)
	if levels == 0 {
		t.Error("no level progress events")
	}
	if flips != 1 {
		t.Errorf("flip events = %d, want 1", flips)
	}
	if levels > stats.Levels {
		t.Errorf("more level events (%d) than levels (%d)", levels, stats.Levels)
	}
}

// TestCancellationMidAnneal cancels from inside the first progress event —
// provably mid-run — and requires the job to return ctx.Err() promptly
// instead of spinning through the high-effort annealing budget.
func TestCancellationMidAnneal(t *testing.T) {
	spec, err := circuits.SuiteSpec("c3")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 200
	g := circuits.Generate(spec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err = runOne(ctx, hidap.Job{Design: g.Design, Placer: "hidap"},
		hidap.WithSeed(1),
		hidap.WithEffort(hidap.EffortHigh),
		hidap.WithProgress(func(ev hidap.Progress) {
			if ev.Stage == hidap.StageLevel {
				cancel()
			}
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: a full high-effort run on this circuit takes far
	// longer than a single post-cancel check window.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v, not prompt", elapsed)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	g := circuits.ABCDX()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"hidap", "indeda", "handfp"} {
		job := hidap.Job{Design: g.Design, Placer: name}
		if _, err := runOne(ctx, job, hidap.WithSeed(1), hidap.WithIntent(g.Intent)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestEvaluateReportJSONRoundTrip(t *testing.T) {
	g := circuits.ABCDX()
	rep := measure(t, g.Design, hidap.WithSeed(1), hidap.WithEffort(hidap.EffortLow)).Report

	if rep.WirelengthM <= 0 {
		t.Errorf("wirelength = %v", rep.WirelengthM)
	}
	if rep.WNSPct > 0 || rep.TNSns > 0 {
		t.Errorf("timing sign convention broken: %+v", rep)
	}
	if rep.Placer != "hidap" || rep.SeqNodes == 0 {
		t.Errorf("bookkeeping missing: %+v", rep)
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"wirelength_m", "congestion_pct", "wns_pct", "tns_ns", "placer"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON missing %q: %s", key, raw)
		}
	}
	var back hidap.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != *rep {
		t.Errorf("round trip changed report:\n%+v\n%+v", back, *rep)
	}

	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wirelength_m") {
		t.Errorf("WriteJSON output: %s", sb.String())
	}
}
