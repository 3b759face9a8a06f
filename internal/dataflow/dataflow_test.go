package dataflow

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/seqgraph"
)

// fig7Toy builds a two-block system in the spirit of the paper's Fig. 7:
//
//	in[0..7] ──► a[0..15] ──► g[0..15] ──► b[0..15] ──► mB
//	   mA ─────►   (A)          glue         (B)
//
// Block A = {mA, a}, block B = {mB, b}; g is glue.
func fig7Toy(t *testing.T) (*seqgraph.Graph, *hier.Result, *netlist.Design) {
	t.Helper()
	b := netlist.NewBuilder("fig7")
	mA := b.AddMacro("A/mA", 1000, 1000, "A")
	mB := b.AddMacro("B/mB", 1000, 1000, "B")
	var aID, gID, bID [16]netlist.CellID
	for i := 0; i < 16; i++ {
		aID[i] = b.AddFlop(fmt.Sprintf("A/a[%d]", i), "A")
		gID[i] = b.AddFlop(fmt.Sprintf("glue/g[%d]", i), "glue")
		bID[i] = b.AddFlop(fmt.Sprintf("B/b[%d]", i), "B")
	}
	for i := 0; i < 8; i++ {
		in := b.AddPort(fmt.Sprintf("in[%d]", i))
		c := b.AddComb(fmt.Sprintf("ci_%dx", i), 100, "")
		b.Wire(fmt.Sprintf("npi%d", i), in, c)
		b.Wire(fmt.Sprintf("npa%d", i), c, aID[i])
	}
	for i := 0; i < 16; i++ {
		// mA drives a (one net per bit).
		b.Wire(fmt.Sprintf("nma%d", i), mA, aID[i])
		c1 := b.AddComb(fmt.Sprintf("c1_%dx", i), 100, "")
		b.Wire(fmt.Sprintf("nag%d", i), aID[i], c1)
		b.Wire(fmt.Sprintf("ng%d", i), c1, gID[i])
		c2 := b.AddComb(fmt.Sprintf("c2_%dx", i), 100, "")
		b.Wire(fmt.Sprintf("ngb%d", i), gID[i], c2)
		b.Wire(fmt.Sprintf("nb%d", i), c2, bID[i])
		b.Wire(fmt.Sprintf("nbm%d", i), bID[i], mB)
	}
	d := b.MustBuild()
	sg := seqgraph.Build(d, seqgraph.DefaultParams())

	tr := hier.New(d)
	decl := tr.Decluster(d.Root())
	return sg, decl, d
}

func blockIdx(t *testing.T, decl *hier.Result, name string) int32 {
	t.Helper()
	for i := range decl.Blocks {
		if decl.Blocks[i].Name == name {
			return int32(i)
		}
	}
	t.Fatalf("block %s not found", name)
	return -1
}

func TestBuildNodes(t *testing.T) {
	sg, decl, _ := fig7Toy(t)
	g := Build(sg, decl)
	st := g.Stats()
	if st.Blocks != len(decl.Blocks) {
		t.Errorf("blocks = %d, want %d", st.Blocks, len(decl.Blocks))
	}
	if st.Ports != 1 {
		t.Errorf("ports = %d, want 1 (the in[] cluster)", st.Ports)
	}
	if st.ExtMacros != 0 {
		t.Errorf("extmacros = %d, want 0 at the root level", st.ExtMacros)
	}
}

func TestBlockFlow(t *testing.T) {
	sg, decl, _ := fig7Toy(t)
	g := Build(sg, decl)
	A := blockIdx(t, decl, "A")
	B := blockIdx(t, decl, "B")

	h := g.BlockFlow[EdgeKey{A, B}]
	if h == nil {
		t.Fatal("block flow A->B missing")
	}
	// a -> g -> b: latency 2, 16 bits.
	if len(h.Bins) != 1 || h.Bins[0] != (Bin{Latency: 2, Bits: 16}) {
		t.Errorf("A->B histogram = %+v, want one bin {2,16}", h.Bins)
	}
	// No direct B->A flow.
	if g.BlockFlow[EdgeKey{B, A}] != nil {
		t.Error("unexpected B->A block flow")
	}
}

func TestPortFlow(t *testing.T) {
	sg, decl, _ := fig7Toy(t)
	g := Build(sg, decl)
	A := blockIdx(t, decl, "A")
	// Find the port node.
	var port int32 = -1
	for i := range g.Nodes {
		if g.Nodes[i].Class == ClassPort {
			port = int32(i)
		}
	}
	if port < 0 {
		t.Fatal("port node missing")
	}
	h := g.BlockFlow[EdgeKey{port, A}]
	if h == nil {
		t.Fatal("port->A flow missing")
	}
	if h.TotalBits() != 8 || h.Bins[0].Latency != 1 {
		t.Errorf("port->A = %+v, want 8 bits at latency 1", h.Bins)
	}
}

func TestMacroFlow(t *testing.T) {
	sg, decl, _ := fig7Toy(t)
	g := Build(sg, decl)
	A := blockIdx(t, decl, "A")
	B := blockIdx(t, decl, "B")

	h := g.MacroFlow[EdgeKey{A, B}]
	if h == nil {
		t.Fatal("macro flow A->B missing")
	}
	// mA -> a -> g -> b -> mB: latency 4, 16 bits on the final hop.
	if len(h.Bins) != 1 || h.Bins[0] != (Bin{Latency: 4, Bits: 16}) {
		t.Errorf("macro flow A->B = %+v, want {4,16}", h.Bins)
	}
}

func TestHistogramAddAndScore(t *testing.T) {
	var h Histogram
	h.Add(3, 8)
	h.Add(1, 4)
	h.Add(3, 8)
	h.Add(0, 2) // clamped to latency 1
	if len(h.Bins) != 2 {
		t.Fatalf("bins = %+v", h.Bins)
	}
	if h.Bins[0] != (Bin{1, 6}) || h.Bins[1] != (Bin{3, 16}) {
		t.Errorf("bins = %+v", h.Bins)
	}
	if h.TotalBits() != 22 {
		t.Errorf("TotalBits = %d", h.TotalBits())
	}
	// score(k=2) = 6/1 + 16/9.
	want := 6.0 + 16.0/9.0
	if got := h.Score(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("Score(2) = %v, want %v", got, want)
	}
	// k=0: raw bits.
	if got := h.Score(0); got != 22 {
		t.Errorf("Score(0) = %v, want 22", got)
	}
	// k=1 decays linearly.
	if got := h.Score(1); math.Abs(got-(6+16.0/3)) > 1e-12 {
		t.Errorf("Score(1) = %v", got)
	}
}

func TestScoreDecreasingInK(t *testing.T) {
	var h Histogram
	h.Add(2, 10)
	h.Add(5, 20)
	prev := math.Inf(1)
	for _, k := range []float64{0, 1, 2, 3} {
		s := h.Score(k)
		if s > prev {
			t.Fatalf("score not decreasing in k: k=%v s=%v prev=%v", k, s, prev)
		}
		prev = s
	}
}

func TestAffinityBlend(t *testing.T) {
	sg, decl, _ := fig7Toy(t)
	g := Build(sg, decl)
	A := blockIdx(t, decl, "A")
	B := blockIdx(t, decl, "B")
	lo, hi := min(A, B), max(A, B)
	weight := func(p Params) float64 {
		t.Helper()
		for _, pr := range g.Pairs(p) {
			if pr.I == pr.J {
				t.Fatalf("self pair %+v", pr)
			}
			if pr.I == lo && pr.J == hi {
				return pr.W
			}
		}
		t.Fatalf("λ=%v: no pair (%d, %d)", p.Lambda, lo, hi)
		return 0
	}

	// block flow A->B: 16/4 = 4. macro flow: 16/16 = 1.
	if w := weight(Params{Lambda: 1, K: 2}); math.Abs(w-4) > 1e-12 {
		t.Errorf("block-only affinity = %v, want 4", w)
	}
	if w := weight(Params{Lambda: 0, K: 2}); math.Abs(w-1) > 1e-12 {
		t.Errorf("macro-only affinity = %v, want 1", w)
	}
	if w := weight(Params{Lambda: 0.5, K: 2}); math.Abs(w-2.5) > 1e-12 {
		t.Errorf("blended affinity = %v, want 2.5", w)
	}
	// The dense view is symmetric with a zero diagonal.
	blended := g.Affinity(Params{Lambda: 0.5, K: 2})
	if blended[A][B] != blended[B][A] || blended[A][B] != weight(Params{Lambda: 0.5, K: 2}) {
		t.Error("dense affinity view not symmetric or not equal to the pair")
	}
	if blended[A][A] != 0 {
		t.Error("self affinity must be 0")
	}
}

func TestAffinityLatencyPreference(t *testing.T) {
	// Two equal-width connections, different latencies: the shorter one
	// must have strictly larger affinity for k > 0.
	var near, far Histogram
	near.Add(1, 32)
	far.Add(4, 32)
	if near.Score(2) <= far.Score(2) {
		t.Error("low-latency flow should score higher")
	}
	if near.Score(0) != far.Score(0) {
		t.Error("k=0 should ignore latency")
	}
}

func TestGlueNotANode(t *testing.T) {
	sg, decl, _ := fig7Toy(t)
	g := Build(sg, decl)
	for i := range g.Nodes {
		for _, si := range g.Nodes[i].Seq {
			if sg.Nodes[si].Name == "glue/g" {
				t.Error("glue register should not belong to any Gdf node")
			}
		}
	}
	// g's Gseq node maps to -1.
	gi := sg.NodeByName("glue/g")
	if gi < 0 {
		t.Fatal("glue register missing from Gseq")
	}
	if g.SeqToNode[gi] != -1 {
		t.Errorf("glue SeqToNode = %d, want -1", g.SeqToNode[gi])
	}
}

func TestDeterministicAffinity(t *testing.T) {
	sg, decl, _ := fig7Toy(t)
	g1 := Build(sg, decl)
	g2 := Build(sg, decl)
	samePairs(t, "rebuilt", g1.Pairs(DefaultParams()), g2.Pairs(DefaultParams()))
}

// TestHistogramQuickPermutation: Add order never changes the result.
func TestHistogramQuickPermutation(t *testing.T) {
	f := func(raw []uint8) bool {
		type entry struct {
			lat  int32
			bits int64
		}
		var entries []entry
		for i := 0; i+1 < len(raw); i += 2 {
			entries = append(entries, entry{int32(raw[i]%8) + 1, int64(raw[i+1]%32) + 1})
		}
		var fwd, rev Histogram
		for _, e := range entries {
			fwd.Add(e.lat, e.bits)
		}
		for i := len(entries) - 1; i >= 0; i-- {
			rev.Add(entries[i].lat, entries[i].bits)
		}
		if len(fwd.Bins) != len(rev.Bins) || fwd.TotalBits() != rev.TotalBits() {
			return false
		}
		for i := range fwd.Bins {
			if fwd.Bins[i] != rev.Bins[i] {
				return false
			}
		}
		// Bins stay sorted by latency.
		for i := 1; i < len(fwd.Bins); i++ {
			if fwd.Bins[i].Latency <= fwd.Bins[i-1].Latency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMultiLatencyHistogram: parallel paths of different depth produce the
// two-bin histograms the paper's Fig. 7 sketches.
func TestMultiLatencyHistogram(t *testing.T) {
	b := netlist.NewBuilder("ml")
	// Block A: 8-bit reg a. Block B: two 4-bit registers, bf and bs.
	// Fast path: a[0..3] -> bf directly (latency 1). Slow path:
	// a[4..7] -> g -> bs (latency 2). Distinct destination registers keep
	// both latencies visible: BFS records each reached component once.
	var aID [8]netlist.CellID
	var bfID, bsID, gID [4]netlist.CellID
	for i := 0; i < 8; i++ {
		aID[i] = b.AddFlop(fmt.Sprintf("A/a[%d]", i), "A")
	}
	for i := 0; i < 4; i++ {
		bfID[i] = b.AddFlop(fmt.Sprintf("B/bf[%d]", i), "B")
		bsID[i] = b.AddFlop(fmt.Sprintf("B/bs[%d]", i), "B")
	}
	b.AddMacro("A/mA", 1000, 1000, "A") // make A and B macro blocks
	b.AddMacro("B/mB", 1000, 1000, "B")
	for i := 0; i < 4; i++ {
		b.Wire(fmt.Sprintf("fast%d", i), aID[i], bfID[i])
	}
	for i := 0; i < 4; i++ {
		gID[i] = b.AddFlop(fmt.Sprintf("glue/g[%d]", i), "glue")
		b.Wire(fmt.Sprintf("s1_%d", i), aID[i+4], gID[i])
		b.Wire(fmt.Sprintf("s2_%d", i), gID[i], bsID[i])
	}
	d := b.MustBuild()
	sg := seqgraph.Build(d, seqgraph.DefaultParams())
	tr := hier.New(d)
	decl := tr.Decluster(d.Root())
	g := Build(sg, decl)

	A := blockIdx(t, decl, "A")
	B := blockIdx(t, decl, "B")
	h := g.BlockFlow[EdgeKey{A, B}]
	if h == nil {
		t.Fatal("A->B flow missing")
	}
	if len(h.Bins) != 2 {
		t.Fatalf("bins = %+v, want two latencies", h.Bins)
	}
	if h.Bins[0] != (Bin{Latency: 1, Bits: 4}) || h.Bins[1] != (Bin{Latency: 2, Bits: 4}) {
		t.Errorf("bins = %+v, want {1,4} and {2,4}", h.Bins)
	}
}

// TestAffinityAccumulationOrder pins the accumulation order of Pairs (and
// the dense Affinity view built from it) with rounding-sensitive values: the
// pair (0, 1) receives 2^53 (block flow), then 1.5 and 1 (both macro-flow
// directions). Under IEEE round-to-nearest-even, (2^53+1.5)+1 = 2^53+4 but
// (2^53+1)+1.5 = 2^53+2, so any map-order accumulation would flip the
// result between iterations once Go's randomized map iteration picks the
// other key first.
func TestAffinityAccumulationOrder(t *testing.T) {
	g := &Graph{
		Nodes: make([]Node, 2),
		BlockFlow: map[EdgeKey]*Histogram{
			{From: 0, To: 1}: {Bins: []Bin{{Latency: 1, Bits: 1 << 54}}},
		},
		MacroFlow: map[EdgeKey]*Histogram{
			{From: 0, To: 1}: {Bins: []Bin{{Latency: 1, Bits: 3}}},
			{From: 1, To: 0}: {Bins: []Bin{{Latency: 1, Bits: 2}}},
		},
	}
	want := math.Ldexp(1, 53) + 4 // (2^53 + 1.5) + 1 in the pinned order
	for i := 0; i < 300; i++ {
		pairs := g.Pairs(DefaultParams())
		if len(pairs) != 1 || pairs[0].I != 0 || pairs[0].J != 1 || pairs[0].W != want {
			t.Fatalf("iteration %d: pairs = %+v, want [{0 1 %v}] (accumulation order drifted)", i, pairs, want)
		}
		m := g.Affinity(DefaultParams())
		if m[0][1] != want || m[1][0] != want {
			t.Fatalf("iteration %d: affinity = %v / %v, want %v (accumulation order drifted)",
				i, m[0][1], m[1][0], want)
		}
	}
}
