package graph

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// chainDesign builds: p -> a -> b -> c, plus a high-fanout net b -> {s0..s4}.
func chainDesign(t *testing.T) (*netlist.Design, map[string]netlist.CellID) {
	t.Helper()
	b := netlist.NewBuilder("chain")
	ids := map[string]netlist.CellID{}
	ids["p"] = b.AddPort("p")
	ids["a"] = b.AddComb("a", 100, "")
	ids["b"] = b.AddComb("b", 100, "")
	ids["c"] = b.AddComb("c", 100, "")
	for _, n := range []string{"s0", "s1", "s2", "s3", "s4"} {
		ids[n] = b.AddComb(n, 100, "")
	}
	b.Wire("n0", ids["p"], ids["a"])
	b.Wire("n1", ids["a"], ids["b"])
	b.Wire("n2", ids["b"], ids["c"])
	b.Wire("nf", ids["b"], ids["s0"], ids["s1"], ids["s2"], ids["s3"], ids["s4"])
	return b.MustBuild(), ids
}

func TestBipartiteIncidence(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	if bp.CellNets.NumVertices() != len(d.Cells) {
		t.Errorf("CellNets rows = %d", bp.CellNets.NumVertices())
	}
	if bp.NetCells.NumVertices() != len(d.Nets) {
		t.Errorf("NetCells rows = %d", bp.NetCells.NumVertices())
	}
	// b touches n1 (sink), n2 (driver), nf (driver) -> 3 nets.
	if got := len(bp.CellNets.Row(int32(ids["b"]))); got != 3 {
		t.Errorf("nets(b) = %d, want 3", got)
	}
	// nf has 6 cells.
	nf := d.Nets[3]
	if nf.Name != "nf" {
		t.Fatalf("net order changed: %q", nf.Name)
	}
	if got := len(bp.NetCells.Row(3)); got != 6 {
		t.Errorf("cells(nf) = %d, want 6", got)
	}
}

// labelAll labels every cell of bp from the given seeds.
func labelAll(bp *Bipartite, seeds, seedLabels []int32) []int32 {
	all := make([]int32, bp.CellNets.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	return bp.NewLabeler().Label(seeds, seedLabels, all)
}

func TestMultiSourceLabel(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	// Seeds: p (label 10) and c (label 20).
	labels := labelAll(bp, []int32{int32(ids["p"]), int32(ids["c"])}, []int32{10, 20})
	if labels[ids["p"]] != 10 || labels[ids["c"]] != 20 {
		t.Errorf("seeds: p=%d c=%d, want 10/20", labels[ids["p"]], labels[ids["c"]])
	}
	// a is 1 hop from p, 2 hops from c -> label 10.
	if labels[ids["a"]] != 10 {
		t.Errorf("a: label=%d, want 10", labels[ids["a"]])
	}
	// b is 2 hops from p and 1 hop from c -> label 20.
	if labels[ids["b"]] != 20 {
		t.Errorf("b: label=%d, want 20", labels[ids["b"]])
	}
	// s* hang off b's fanout net -> 2 hops from c.
	if labels[ids["s3"]] != 20 {
		t.Errorf("s3: label=%d, want 20", labels[ids["s3"]])
	}
}

func TestMultiSourceLabelUnreachable(t *testing.T) {
	b := netlist.NewBuilder("u")
	a := b.AddComb("a", 100, "")
	c := b.AddComb("c", 100, "")
	b.Wire("n", a) // degenerate single-pin net
	_ = c          // isolated cell
	d := b.MustBuild()
	bp := BipartiteFromDesign(d)
	labels := labelAll(bp, []int32{int32(a)}, []int32{1})
	if labels[c] != Unlabeled {
		t.Errorf("isolated cell labeled: %d", labels[c])
	}
}

func TestMultiSourceDuplicateSeeds(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	labels := labelAll(bp, []int32{int32(ids["a"]), int32(ids["a"])}, []int32{5, 7})
	if labels[ids["a"]] != 5 {
		t.Errorf("duplicate seed should keep first label, got %d", labels[ids["a"]])
	}
}

func TestCSRRowBounds(t *testing.T) {
	d, _ := chainDesign(t)
	c := BipartiteFromDesign(d).CellNets
	total := 0
	for v := int32(0); v < int32(c.NumVertices()); v++ {
		total += len(c.Row(v))
	}
	if total != len(c.Targets) {
		t.Errorf("row partition broken: %d vs %d", total, len(c.Targets))
	}
}

func TestDeterministicTraversal(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	l1 := labelAll(bp, []int32{int32(ids["p"])}, []int32{1})
	l2 := labelAll(bp, []int32{int32(ids["p"])}, []int32{1})
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("BFS not deterministic")
		}
	}
}

// multiSourceLabelRef is the whole-design multi-source BFS the Labeler
// replaced: it labels every reachable cell and never stops early. The
// differential tests hold the Labeler to it.
func multiSourceLabelRef(bp *Bipartite, seeds []int32, seedLabels []int32) []int32 {
	labels := make([]int32, bp.CellNets.NumVertices())
	for i := range labels {
		labels[i] = Unlabeled
	}
	netSeen := make([]bool, bp.NetCells.NumVertices())
	queue := make([]int32, 0, len(seeds))
	for i, s := range seeds {
		if labels[s] != Unlabeled {
			continue
		}
		labels[s] = seedLabels[i]
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, nid := range bp.CellNets.Row(v) {
			if netSeen[nid] {
				continue
			}
			netSeen[nid] = true
			for _, c := range bp.NetCells.Row(nid) {
				if labels[c] != Unlabeled {
					continue
				}
				labels[c] = labels[v]
				queue = append(queue, c)
			}
		}
	}
	return labels
}

// randomBipartite wires nPins random (cell, net) incidences. Sparse pin
// counts leave isolated cells and several components, so some targets are
// unreachable from any seed.
func randomBipartite(rng *rand.Rand, nCells, nNets, nPins int) *Bipartite {
	type pin struct{ cell, net int32 }
	pins := make([]pin, nPins)
	cellCount := make([]int32, nCells)
	netCount := make([]int32, nNets)
	for i := range pins {
		pins[i] = pin{int32(rng.Intn(nCells)), int32(rng.Intn(nNets))}
		cellCount[pins[i].cell]++
		netCount[pins[i].net]++
	}
	return &Bipartite{
		CellNets: buildCSR(cellCount, func(place func(src, dst int32)) {
			for _, p := range pins {
				place(p.cell, p.net)
			}
		}),
		NetCells: buildCSR(netCount, func(place func(src, dst int32)) {
			for _, p := range pins {
				place(p.net, p.cell)
			}
		}),
	}
}

// TestLabelerMatchesReference runs many labelings on random graphs through
// one reused Labeler per graph and checks every target against the full
// reference BFS: early exit and stamp reuse must not change a label.
func TestLabelerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		nCells := 1 + rng.Intn(300)
		nNets := 1 + rng.Intn(200)
		bp := randomBipartite(rng, nCells, nNets, rng.Intn(3*nCells))
		l := bp.NewLabeler()
		for call := 0; call < 8; call++ {
			var seeds, seedLabels, targets []int32
			for i := rng.Intn(6); i > 0; i-- {
				seeds = append(seeds, int32(rng.Intn(nCells)))
				seedLabels = append(seedLabels, int32(rng.Intn(4)))
			}
			// call 0 asks for no targets; later calls ask for up to all
			// cells, duplicates and seeds included.
			for i := rng.Intn(nCells+1) * min(call, 1); i > 0; i-- {
				targets = append(targets, int32(rng.Intn(nCells)))
			}
			want := multiSourceLabelRef(bp, seeds, seedLabels)
			got := l.Label(seeds, seedLabels, targets)
			if len(got) != len(targets) {
				t.Fatalf("trial %d call %d: %d labels for %d targets", trial, call, len(got), len(targets))
			}
			for i, c := range targets {
				if got[i] != want[c] {
					t.Fatalf("trial %d call %d: cell %d label %d, want %d", trial, call, c, got[i], want[c])
				}
			}
		}
	}
}

// TestLabelerStampWraparound: when the generation counter wraps back to a
// value an earlier call used, that call's stamps must not read as current.
func TestLabelerStampWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bp := randomBipartite(rng, 200, 120, 500)
	all := make([]int32, 200)
	for i := range all {
		all[i] = int32(i)
	}
	l := bp.NewLabeler()
	for call := 0; call < 6; call++ {
		if call == 1 {
			// Call 0 ran at generation 1; jump so this call wraps back to it.
			l.gen = ^uint32(0)
		}
		seeds := []int32{int32(rng.Intn(200)), int32(rng.Intn(200))}
		seedLabels := []int32{int32(call), int32(call + 10)}
		want := multiSourceLabelRef(bp, seeds, seedLabels)
		got := l.Label(seeds, seedLabels, all)
		for c := range all {
			if got[c] != want[c] {
				t.Fatalf("call %d (gen %d): cell %d label %d, want %d", call, l.gen, c, got[c], want[c])
			}
		}
	}
}
