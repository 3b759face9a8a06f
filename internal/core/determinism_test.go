package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sched"
)

// fingerprint serializes everything observable about a placement run —
// macro positions and orientations, level count, flips, the full trace,
// and the complete progress-event stream in delivery order — so two runs
// can be compared byte for byte. flat selects the single-level ablation.
func fingerprint(t *testing.T, par int, flat bool) string {
	t.Helper()
	d := miniSoC(t)
	opt := DefaultOptions()
	opt.Seed = 42
	opt.Trace = true
	opt.Parallelism = par
	opt.Flat = flat
	var sb strings.Builder
	opt.Progress = func(ev Progress) { writeProgress(&sb, ev) }
	res, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatalf("Place(par=%d): %v", par, err)
	}
	fmt.Fprintf(&sb, "levels %d flips %d\n", res.Levels, res.Flips)
	for _, tl := range res.Trace {
		fmt.Fprintf(&sb, "trace %+v\n", tl)
	}
	for _, m := range d.Macros() {
		fmt.Fprintf(&sb, "macro %d %v %v %v\n", m, res.Placement.Pos[m], res.Placement.Orient[m], res.Placement.Placed[m])
	}
	return sb.String()
}

// writeProgress prints the fields of one progress event by name rather
// than through %+v, so the fingerprint pins what Place reports and not the
// layout of the Progress struct.
func writeProgress(sb *strings.Builder, ev Progress) {
	fmt.Fprintf(sb, "ev %s %q depth %d blocks %d level %d lambda %v flips %d\n",
		ev.Stage, ev.Path, ev.Depth, ev.Blocks, ev.Level, ev.Lambda, ev.Flips)
}

// TestPlaceDeterminismMatrix is the scheduler's central promise: the
// placement, the trace, and the progress-event stream are byte-identical
// at every combination of scheduler width and GOMAXPROCS. Run under -race
// in CI, it also proves the fork-join recursion is race-free.
func TestPlaceDeterminismMatrix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for _, par := range []int{1, 2, 8} {
			got := fingerprint(t, par, false)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("GOMAXPROCS=%d parallelism=%d: run fingerprint differs from serial reference\n--- got ---\n%s\n--- want ---\n%s",
					procs, par, got, want)
			}
		}
	}
}

// placeGolden is the sha256 of fingerprint for the miniSoC run above. The
// matrix only compares runs within one build; this constant pins the run
// across commits, so a refactor that shifts any placement, trace line or
// progress event fails here. Update it only for a deliberate behaviour change.
const placeGolden = "f49413f1e0ea8ba17ac2063946e5abd4b074f136be5e164419056d4c16eff137"

// flatGolden pins the same run with Flat set, covering the single-level
// ablation that TestPlaceGolden never enters.
const flatGolden = "39a5c3f40183874e8b09121ffbb40f1b385b34109b9f6935c18f4c9f78710e8b"

func TestPlaceGolden(t *testing.T) {
	fp := fingerprint(t, 1, false)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != placeGolden {
		t.Fatalf("placement fingerprint sha256 = %s, want %s\n%s", got, placeGolden, fp)
	}
}

func TestPlaceFlatGolden(t *testing.T) {
	fp := fingerprint(t, 2, true)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != flatGolden {
		t.Fatalf("flat placement fingerprint sha256 = %s, want %s\n%s", got, flatGolden, fp)
	}
}

// TestPlaceSchedBorrowedPool: a caller-supplied pool (the flows harness
// shares one across candidates) must produce the same placement as the
// pool Place builds for itself.
func TestPlaceSchedBorrowedPool(t *testing.T) {
	own := fingerprint(t, 4, false)

	d := miniSoC(t)
	pool := sched.NewPool(4)
	defer pool.Close()
	opt := DefaultOptions()
	opt.Seed = 42
	opt.Trace = true
	opt.Sched = pool
	var sb strings.Builder
	opt.Progress = func(ev Progress) { writeProgress(&sb, ev) }
	res, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "levels %d flips %d\n", res.Levels, res.Flips)
	for _, tl := range res.Trace {
		fmt.Fprintf(&sb, "trace %+v\n", tl)
	}
	for _, m := range d.Macros() {
		fmt.Fprintf(&sb, "macro %d %v %v %v\n", m, res.Placement.Pos[m], res.Placement.Orient[m], res.Placement.Placed[m])
	}
	if sb.String() != own {
		t.Fatal("borrowed-pool placement differs from own-pool placement")
	}
}
