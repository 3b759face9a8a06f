package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/layout"
)

func TestParseEffort(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want layout.Effort
		bad  bool
	}{
		{in: "low", want: layout.EffortLow},
		{in: "medium", want: layout.EffortMedium},
		{in: "high", want: layout.EffortHigh},
		{in: "hgih", bad: true},
		{in: "", bad: true},
		{in: "HIGH", bad: true},
	} {
		got, err := parseEffort(tc.in)
		switch {
		case tc.bad && err == nil:
			t.Errorf("parseEffort(%q) = %v, want an error", tc.in, got)
		case tc.bad && !strings.Contains(err.Error(), `"`+tc.in+`"`):
			t.Errorf("parseEffort(%q) error %q does not name the value", tc.in, err)
		case !tc.bad && (err != nil || got != tc.want):
			t.Errorf("parseEffort(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

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

// TestWriteFileErrors checks that writeFile reports the writer's error and a
// write that fails only at flush time, so a truncated file is never
// reported as written.
func TestWriteFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := writeFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("ok\n"))
		return err
	}); err != nil {
		t.Fatalf("writeFile: %v", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "ok\n" {
		t.Fatalf("read back %q, %v", b, err)
	}

	boom := errors.New("boom")
	if err := writeFile(path, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("writeFile returned %v, want the writer's error", err)
	}

	// /dev/full accepts the open and fails every write with ENOSPC; the
	// writer below ignores its own write errors, as the SVG renderers do.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := writeFile("/dev/full", func(w io.Writer) error {
		w.Write([]byte("lost\n"))
		return nil
	}); err == nil {
		t.Error("writeFile to /dev/full returned nil, want the deferred write error")
	}
}
