package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/circuits"
	"repro/hidap"
	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/outfile"
)

func TestSelectSpecs(t *testing.T) {
	for _, tc := range []struct {
		names string
		want  []string
		bad   bool
	}{
		{names: "all", want: []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}},
		{names: "c3, c1", want: []string{"c3", "c1"}},
		{names: "c9", bad: true},
		{names: "", bad: true},
		{names: "c1,", bad: true},
	} {
		specs, err := selectSpecs(tc.names, 400)
		if tc.bad {
			if err == nil {
				t.Errorf("selectSpecs(%q) = %d specs, want an error", tc.names, len(specs))
			}
			continue
		}
		if err != nil {
			t.Fatalf("selectSpecs(%q): %v", tc.names, err)
		}
		var got []string
		for _, s := range specs {
			if s.Scale != 400 {
				t.Errorf("selectSpecs(%q): %s has scale %d, want 400", tc.names, s.Name, s.Scale)
			}
			got = append(got, s.Name)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("selectSpecs(%q) = %v, want %v", tc.names, got, tc.want)
		}
	}
}

// TestWriteFileErrors checks that outfile.Write, which every artifact of
// this command (and of cmd/hidap and cmd/dfviz) goes through, reports the
// writer's error and a write that fails only at flush time, so a truncated
// file is never reported as written.
func TestWriteFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := outfile.Write(path, func(w io.Writer) error {
		_, err := w.Write([]byte("ok\n"))
		return err
	}); err != nil {
		t.Fatalf("outfile.Write: %v", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "ok\n" {
		t.Fatalf("read back %q, %v", b, err)
	}

	boom := errors.New("boom")
	if err := outfile.Write(path, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("outfile.Write returned %v, want the writer's error", err)
	}

	// /dev/full accepts the open and fails every write with ENOSPC; the
	// writer below ignores its own write errors, as the SVG renderers do.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := outfile.Write("/dev/full", func(w io.Writer) error {
		w.Write([]byte("lost\n"))
		return nil
	}); err == nil {
		t.Error("outfile.Write to /dev/full returned nil, want the deferred write error")
	}
}

// TestFig9TraceMatchesRow: the Fig. 9d floorplan is traced from the HiDaP
// row's own placement — its λ, seed, effort and k — so the traced macros
// sit exactly where the row's macros do. The λ list leaves out the default
// 0.5 and the effort, seed and k are not the defaults; on c2 a trace that
// ignored any one of them places differently.
func TestFig9TraceMatchesRow(t *testing.T) {
	ctx := context.Background()
	spec, err := circuits.SuiteSpec("c2")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 2000
	g := circuits.Generate(spec)
	opt := flows.DefaultOptions()
	opt.Seed = 3
	opt.Effort = hidap.EffortLow
	opt.K = 3
	opt.Lambdas = []float64{0.2, 0.8}
	opt.Artifacts = core.NewArtifacts(g.Design, g.SeqGraph)
	m, pl, err := flows.Run(ctx, g, flows.FlowHiDaP, opt)
	if err != nil {
		t.Fatal(err)
	}
	tpl, st, err := traceHiDaP(ctx, opt.Artifacts, opt, m.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) == 0 {
		t.Fatal("trace is empty")
	}
	for _, mc := range g.Design.Macros() {
		if tpl.Pos[mc] != pl.Pos[mc] || tpl.Orient[mc] != pl.Orient[mc] {
			t.Fatalf("macro %s traced at %v %v, row has %v %v", g.Design.Cell(mc).Name,
				tpl.Pos[mc], tpl.Orient[mc], pl.Pos[mc], pl.Orient[mc])
		}
	}
}
