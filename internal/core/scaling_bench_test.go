package core_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/layout"
	"repro/internal/placement"
)

// minScalingSpeedup is the speedup BenchmarkPlaceScaling requires of a
// GOMAXPROCS-wide solve over a serial one on a machine with at least
// minScalingCores cores.
const (
	minScalingSpeedup = 1.5
	minScalingCores   = 4
)

// BenchmarkPlaceScaling is the multi-core scaling gate. It solves the
// benchmark's deep_solve design (400 macros, high effort, λ 0.5) through
// core.Place in 3 interleaved pairs, at Parallelism 1 and at GOMAXPROCS,
// whatever b.N is, and keeps each setting's best time. Every run must
// place every macro identically. The only parallel work is the fork of
// sibling subtrees in the recursion, so the reported speedup is that
// fan-out's. Below minScalingSpeedup it fails, but only
// where minScalingCores cores exist to show it; elsewhere it logs a note.
//
// It is a benchmark, not a test, so that it never runs in tier-1 or under
// -race, and because go test runs benchmark binaries one package at a
// time: the timing sees no contention from other packages.
func BenchmarkPlaceScaling(b *testing.B) {
	g := circuits.Generate(circuits.Spec{
		Name: "soc", Cells: 2_000_000, Macros: 400, Subsystems: 16,
		BusWidth: 64, PipelineDepth: 2, Scale: 100, Seed: 201,
	})
	d := g.Design
	opt := core.DefaultOptions()
	opt.Effort = layout.EffortHigh
	opt.Lambda = 0.5
	opt.Seed = 1
	// Prebuilt artifacts, as a warm Engine supplies them: the timing is
	// the solve alone.
	opt.SeqGraph = g.SeqGraph()
	opt.Tree = hier.New(d)
	opt.Bipartite = graph.BipartiteFromDesign(d)

	wide := runtime.GOMAXPROCS(0)
	var ref *placement.Placement
	best := map[int]time.Duration{}
	b.ResetTimer()
	for pair := 0; pair < 3; pair++ {
		for _, par := range []int{1, wide} {
			opt.Parallelism = par
			t0 := time.Now()
			res, err := core.Place(context.Background(), d, opt)
			el := time.Since(t0)
			if err != nil {
				b.Fatalf("Place(par=%d): %v", par, err)
			}
			if t, ok := best[par]; !ok || el < t {
				best[par] = el
			}
			if ref == nil {
				ref = res.Placement
				continue
			}
			for _, m := range d.Macros() {
				if res.Placement.Pos[m] != ref.Pos[m] || res.Placement.Orient[m] != ref.Orient[m] {
					b.Fatalf("par=%d: macro %d at %v %v, serial run has %v %v",
						par, m, res.Placement.Pos[m], res.Placement.Orient[m], ref.Pos[m], ref.Orient[m])
				}
			}
		}
	}
	b.StopTimer()

	speedup := best[1].Seconds() / best[wide].Seconds()
	b.ReportMetric(speedup, "speedup")
	b.Logf("best of 3: %v at Parallelism 1, %v at Parallelism %d; %d cores",
		best[1], best[wide], wide, runtime.NumCPU())
	switch {
	case runtime.NumCPU() < minScalingCores || wide < minScalingCores:
		b.Logf("speedup gate skipped: %d cores at GOMAXPROCS %d cannot show %d-core scaling",
			runtime.NumCPU(), wide, minScalingCores)
	case speedup < minScalingSpeedup:
		b.Fatalf("speedup %.2fx at Parallelism %d, below the %.1fx gate", speedup, wide, minScalingSpeedup)
	}
}
