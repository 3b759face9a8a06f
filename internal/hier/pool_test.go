package hier

import (
	"runtime"
	"sync"
	"testing"

	"repro/circuits"
	"repro/internal/netlist"
)

// sameResult requires two declusterings to agree on blocks, membership and
// glue.
func sameResult(t *testing.T, n netlist.HierID, got, want *Result) {
	t.Helper()
	if len(got.Blocks) != len(want.Blocks) || len(got.Glue) != len(want.Glue) || got.GlueArea != want.GlueArea {
		t.Fatalf("node %d: %d blocks / %d glue, want %d / %d", n, len(got.Blocks), len(got.Glue), len(want.Blocks), len(want.Glue))
	}
	for i := range want.Blocks {
		if got.Blocks[i].Name != want.Blocks[i].Name {
			t.Fatalf("node %d: block %d = %s, want %s", n, i, got.Blocks[i].Name, want.Blocks[i].Name)
		}
	}
	if len(got.CellBlock) != len(want.CellBlock) {
		t.Fatalf("node %d: CellBlock has %d cells, want %d", n, len(got.CellBlock), len(want.CellBlock))
	}
	for c := range want.CellBlock {
		if got.CellBlock[c] != want.CellBlock[c] {
			t.Fatalf("node %d: CellBlock[%d] = %d, want %d", n, c, got.CellBlock[c], want.CellBlock[c])
		}
	}
}

// TestDeclusterReleaseReuse declusters every hierarchy node of a suite
// circuit in turn on one tree, releasing each result before the next, and
// holds every result to a fresh tree's. Each released buffer must be all
// Outside again, whatever the pool then does with it.
func TestDeclusterReleaseReuse(t *testing.T) {
	spec, err := circuits.SuiteSpec("c4")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 400
	d := circuits.Generate(spec).Design
	tr, ref := New(d), New(d) // ref never releases, so it never reuses
	for n := range d.Hier {
		nh := netlist.HierID(n)
		res := tr.Decluster(nh, DefaultParams())
		sameResult(t, nh, res, ref.Decluster(nh, DefaultParams()))
		buf := res.pooled
		tr.Release(res)
		if res.CellBlock != nil {
			t.Fatalf("node %d: CellBlock still set after Release", n)
		}
		for c, m := range buf.m {
			if m != Outside {
				t.Fatalf("node %d: released buffer has CellBlock[%d] = %d, want Outside", n, c, m)
			}
		}
		tr.Release(res) // a second Release is a no-op
	}
}

// TestDeclusterReleaseConcurrent declusters and releases many nodes from
// several goroutines on one tree (run under -race in CI): every result
// must equal the serial one, so no goroutine ever sees another's entries.
func TestDeclusterReleaseConcurrent(t *testing.T) {
	spec, err := circuits.SuiteSpec("c1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 400
	d := circuits.Generate(spec).Design
	ref := New(d)
	nodes := min(len(d.Hier), 48)
	want := make([]*Result, nodes)
	for n := range want {
		want[n] = ref.Decluster(netlist.HierID(n), DefaultParams())
	}
	tr := New(d)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*nodes; k++ {
				n := (k*7 + w*11) % nodes
				res := tr.Decluster(netlist.HierID(n), DefaultParams())
				sameResult(t, netlist.HierID(n), res, want[n])
				tr.Release(res)
			}
		}(w)
	}
	wg.Wait()
}

// TestDeclusterAllocs bounds the bytes one Decluster+Release of a small
// node allocates on a warm tree: well under one design-sized CellBlock
// (4 bytes per design cell), so a level costs what it contains.
func TestDeclusterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	spec, err := circuits.SuiteSpec("c4")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 100
	d := circuits.Generate(spec).Design
	tr := New(d)
	var small netlist.HierID = netlist.None
	for n := range d.Hier {
		if nd := &d.Hier[n]; len(nd.Children) == 0 && len(nd.Cells) > 0 {
			small = netlist.HierID(n)
			break
		}
	}
	if small == netlist.None {
		t.Fatal("design has no leaf node with cells")
	}
	tr.Release(tr.Decluster(small, DefaultParams())) // warm the pool
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		tr.Release(tr.Decluster(small, DefaultParams()))
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d design cells: %.0f bytes per Decluster+Release of node %q", len(d.Cells), perOp, d.Hier[small].Path)
	if perOp > float64(len(d.Cells)) {
		t.Errorf("%.0f bytes per Decluster+Release, want <= %d (a quarter of one design-sized CellBlock)", perOp, len(d.Cells))
	}
}
