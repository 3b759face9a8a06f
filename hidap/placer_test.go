package hidap_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/circuits"
	"repro/hidap"
)

func TestRegistryHasBuiltinFlows(t *testing.T) {
	names := hidap.Placers()
	for _, want := range []string{"handfp", "hidap", "indeda"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin placer %q missing from registry %v", want, names)
		}
	}
	for _, n := range names {
		p, err := hidap.Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, p.Name())
		}
	}
}

func TestLookupUnknownPlacer(t *testing.T) {
	_, err := hidap.Lookup("nope")
	if err == nil {
		t.Fatal("expected error for unknown placer")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error should name the missing placer: %v", err)
	}
}

func TestRegisterDuplicateFails(t *testing.T) {
	stub := hidap.PlacerFunc("dup-test-placer",
		func(ctx context.Context, d *hidap.Design, cfg *hidap.Config) (*hidap.Placement, hidap.Stats, error) {
			return nil, hidap.Stats{}, errors.New("stub")
		})
	if err := hidap.Register(stub); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := hidap.Register(stub); err == nil {
		t.Fatal("duplicate Register must fail")
	}
	if err := hidap.Register(hidap.PlacerFunc("", nil)); err == nil {
		t.Fatal("empty-name Register must fail")
	}
}

func TestAllFlowsViaRegistry(t *testing.T) {
	g := circuits.ABCDX()
	ctx := context.Background()
	cfg := hidap.NewConfig(
		hidap.WithSeed(1),
		hidap.WithEffort(hidap.EffortLow),
		hidap.WithIntent(g.Intent),
	)
	builtin := map[string]bool{"handfp": true, "hidap": true, "indeda": true}
	for _, name := range hidap.Placers() {
		if !builtin[name] {
			continue // stubs registered by other tests
		}
		p, err := hidap.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, stats, err := p.Place(ctx, g.Design, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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
	p, err := hidap.Lookup("handfp")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Place(context.Background(), g.Design, hidap.NewConfig()); err == nil {
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
	p, _ := hidap.Lookup("hidap")
	var levels, flips int
	cfg := hidap.NewConfig(
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
	_, stats, err := p.Place(context.Background(), g.Design, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
// provably mid-run — and requires the placer to return ctx.Err() promptly
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
	p, _ := hidap.Lookup("hidap")
	cfg := hidap.NewConfig(
		hidap.WithSeed(1),
		hidap.WithEffort(hidap.EffortHigh),
		hidap.WithProgress(func(ev hidap.Progress) {
			if ev.Stage == hidap.StageLevel {
				cancel()
			}
		}),
	)
	start := time.Now()
	_, _, err = p.Place(ctx, g.Design, cfg)
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
		p, _ := hidap.Lookup(name)
		cfg := hidap.NewConfig(hidap.WithSeed(1), hidap.WithIntent(g.Intent))
		if _, _, err := p.Place(ctx, g.Design, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestPlacerFuncPanicIsError: a one-shot Place on a panicking placer
// returns an error instead of crashing the caller.
func TestPlacerFuncPanicIsError(t *testing.T) {
	p := hidap.PlacerFunc("test-oneshot-panic",
		func(ctx context.Context, d *hidap.Design, cfg *hidap.Config) (*hidap.Placement, hidap.Stats, error) {
			panic("boom")
		})
	_, _, err := p.Place(context.Background(), circuits.ABCDX().Design, nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic converted to error", err)
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
