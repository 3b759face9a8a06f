package autocluster_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/circuits"
	"repro/internal/autocluster"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/seqgraph"
)

func flatSpec() circuits.Spec {
	return circuits.Spec{Name: "t1", Cells: 400_000, Macros: 12, Subsystems: 3,
		BusWidth: 32, PipelineDepth: 2, Scale: 200, Seed: 9}
}

func mustCluster(t testing.TB, d *netlist.Design, p autocluster.Params) *autocluster.Result {
	t.Helper()
	r, err := autocluster.ClusterUsing(d, p, nil)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	return r
}

func designBytes(t testing.TB, d *netlist.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netlist.WriteJSON(&buf, d); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestValidateKnobBounds(t *testing.T) {
	bad := []autocluster.Params{
		{MaxNumInst: 100, MinNumInst: 200},                // min > max insts
		{MaxNumMacro: 4, MinNumMacro: 9},                  // min > max macros
		{MinNumInst: -1},                                  // negative min
		{MinNumMacro: -2},                                 // negative min
		{MaxNumInst: -5},                                  // negative max
		{CoarseningRatio: 0.5},                            // ratio must exceed 1
		{CoarseningRatio: 1},                              // ratio must exceed 1
		{MaxLevels: -1},                                   // negative levels
		{Tolerance: -0.1},                                 // negative tolerance
		{Tolerance: 100},                                  // absurd tolerance
		{MaxNumInst: 10, MinNumInst: 10, MinNumMacro: 17}, // min macro > default max
	}
	d := goldenDesign(t)
	for i, p := range bad {
		if _, err := autocluster.ClusterUsing(d, p, nil); err == nil {
			t.Errorf("case %d (%+v): expected rejection", i, p)
		}
	}
	// Defaults validate.
	if err := autocluster.DefaultParams().Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
}

func TestNoOpOnHierarchical(t *testing.T) {
	g := circuits.Generate(flatSpec())
	r := mustCluster(t, g.Design, autocluster.DefaultParams())
	if !r.Stats.NoOp {
		t.Fatalf("expected no-op on well-shaped hierarchy, got %+v", r.Stats)
	}
	if r.Design != g.Design {
		t.Fatal("no-op must return the input design unchanged")
	}
}

func TestFlatDesignClustered(t *testing.T) {
	g := circuits.GenFlat(flatSpec())
	p := autocluster.Params{MaxNumInst: 400, MinNumInst: 20, MaxNumMacro: 4}
	r := mustCluster(t, g.Design, p)
	if r.Stats.NoOp {
		t.Fatal("flat design must cluster")
	}
	d := r.Design
	if err := d.Validate(); err != nil {
		t.Fatalf("clustered design invalid: %v", err)
	}
	if err := autocluster.CheckTree(d, p); err != nil {
		t.Fatalf("bounds violated: %v", err)
	}
	if r.Stats.Clusters < 2 {
		t.Fatalf("expected multiple leaves, got %d", r.Stats.Clusters)
	}
	// Movable cells live below the root; ports stay at it.
	for i := range d.Cells {
		atRoot := d.Cells[i].Hier == 0
		isPort := d.Cells[i].Kind == netlist.KindPort
		if atRoot != isPort {
			t.Fatalf("cell %d (%v) at node %d", i, d.Cells[i].Kind, d.Cells[i].Hier)
		}
	}
	// The synthesized tree is consumable by the hierarchy analysis.
	tr := hier.New(d)
	if tr.MacroCount(0) != 12 {
		t.Fatalf("root macro count = %d, want 12", tr.MacroCount(0))
	}
}

func TestDeterminism(t *testing.T) {
	g := circuits.GenFlat(flatSpec())
	p := autocluster.DefaultParams()
	p.MaxNumInst = 300
	p.MaxNumMacro = 3
	p.MinNumMacro = 1

	old := runtime.GOMAXPROCS(1)
	r1 := mustCluster(t, g.Design, p)
	runtime.GOMAXPROCS(4)
	r2 := mustCluster(t, g.Design, p)
	runtime.GOMAXPROCS(old)
	b1, b2 := designBytes(t, r1.Design), designBytes(t, r2.Design)
	if !bytes.Equal(b1, b2) {
		t.Fatal("tree bytes differ across GOMAXPROCS")
	}

	// Concurrent passes over the same design (the -race job exercises
	// this) must also agree byte-for-byte.
	var wg sync.WaitGroup
	out := make([][]byte, 4)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := autocluster.ClusterUsing(g.Design, p, nil)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			_ = netlist.WriteJSON(&buf, r.Design)
			out[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := range out {
		if !bytes.Equal(out[i], b1) {
			t.Fatalf("concurrent run %d produced different tree bytes", i)
		}
	}
}

// chainDesign builds 10 three-bit register arrays in a chain, flat at the
// root: a workload where the Tolerance knob decides whether neighboring
// arrays may merge.
func chainDesign(t testing.TB) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("chain")
	var prev [3]netlist.CellID
	for k := 0; k < 10; k++ {
		var cur [3]netlist.CellID
		for i := 0; i < 3; i++ {
			cur[i] = b.AddFlop(fmt.Sprintf("r%d[%d]", k, i), "")
			if k > 0 {
				b.Wire(fmt.Sprintf("n%d_%d", k, i), prev[i], cur[i])
			}
		}
		prev = cur
	}
	return b.MustBuild()
}

func TestToleranceHonored(t *testing.T) {
	d := chainDesign(t)
	strict := autocluster.Params{MaxNumInst: 4, MinNumInst: 0, MaxNumMacro: 1,
		CoarseningRatio: 8, MaxLevels: 1, Tolerance: 0}
	r := mustCluster(t, d, strict)
	// Two 3-bit arrays cannot merge under a strict cap of 4.
	if r.Stats.Clusters != 10 {
		t.Fatalf("strict: %d clusters, want 10", r.Stats.Clusters)
	}
	if r.Stats.MaxLeafInsts > 4 {
		t.Fatalf("strict: leaf of %d insts exceeds cap", r.Stats.MaxLeafInsts)
	}

	relaxed := strict
	relaxed.Tolerance = 1.0 // cap 8: neighboring arrays pair up
	r2 := mustCluster(t, d, relaxed)
	if r2.Stats.Clusters >= r.Stats.Clusters {
		t.Fatalf("relaxed: %d clusters, want fewer than %d", r2.Stats.Clusters, r.Stats.Clusters)
	}
	if r2.Stats.MaxLeafInsts > 8 {
		t.Fatalf("relaxed: leaf of %d insts exceeds relaxed cap 8", r2.Stats.MaxLeafInsts)
	}
	if err := autocluster.CheckTree(r2.Design, relaxed); err != nil {
		t.Fatalf("CheckTree(relaxed): %v", err)
	}
}

// goldenDesign is a fixed flat design: two macro+register-file pairs and a
// six-cell combinational chain between them.
func goldenDesign(t testing.TB) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("golden")
	var q [2][4]netlist.CellID
	var mac [2]netlist.CellID
	for m := 0; m < 2; m++ {
		mac[m] = b.AddMacro(fmt.Sprintf("ram%d", m), 20000, 16000, "")
		for i := 0; i < 4; i++ {
			q[m][i] = b.AddFlop(fmt.Sprintf("q%d[%d]", m, i), "")
			b.Wire(fmt.Sprintf("mq%d_%d", m, i), mac[m], q[m][i])
		}
	}
	prev := q[0][0]
	for i := 0; i < 6; i++ {
		c := b.AddComb(fmt.Sprintf("u%d", i), 3000, "")
		b.Wire(fmt.Sprintf("g%d", i), prev, c)
		prev = c
	}
	b.Wire("gl", prev, q[1][0])
	clk := b.AddPort("clk")
	b.Wire("clk_n", clk, mac[0], mac[1])
	return b.MustBuild()
}

// dumpTree renders the hierarchy with per-subtree movable-instance and
// macro counts, preorder, children in Children order.
func dumpTree(d *netlist.Design) string {
	tr := hier.New(d)
	insts := make([]int, len(d.Hier))
	order := d.HierTopo()
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		for _, cid := range d.Node(n).Cells {
			if d.Cell(cid).Kind != netlist.KindPort {
				insts[n]++
			}
		}
		for _, ch := range d.Node(n).Children {
			insts[n] += insts[ch]
		}
	}
	var sb strings.Builder
	var walk func(n netlist.HierID, depth int)
	walk = func(n netlist.HierID, depth int) {
		name := d.Node(n).Name
		if n == 0 {
			name = "<root>"
		}
		fmt.Fprintf(&sb, "%s%s insts=%d macros=%d\n",
			strings.Repeat("  ", depth), name, insts[n], tr.MacroCount(n))
		for _, ch := range d.Node(n).Children {
			walk(ch, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}

func TestGoldenTree(t *testing.T) {
	d := goldenDesign(t)
	p := autocluster.Params{MaxNumInst: 6, MinNumInst: 0, MaxNumMacro: 1,
		MinNumMacro: 0, CoarseningRatio: 2, MaxLevels: 2, Tolerance: 0}
	r := mustCluster(t, d, p)
	got := dumpTree(r.Design)
	// The two macro+register-file leaves (c0, c1) pair under g0 — they
	// share the clk net — and the comb chain (c2) stays a direct child.
	const golden = `<root> insts=16 macros=2
  c2 insts=4 macros=0
  g0 insts=12 macros=2
    c0 insts=6 macros=1
    c1 insts=6 macros=1
`
	if got != golden {
		t.Fatalf("golden tree mismatch.\ngot:\n%s\nwant:\n%s", got, golden)
	}
	if err := autocluster.CheckTree(r.Design, p); err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
}

func TestDeepHierarchyFlattened(t *testing.T) {
	b := netlist.NewBuilder("deep")
	path := ""
	for i := 0; i < 14; i++ {
		if path != "" {
			path += "/"
		}
		path += fmt.Sprintf("a%d", i)
		b.AddComb(fmt.Sprintf("%s/u", path), 3000, path)
	}
	d := b.MustBuild()
	p := autocluster.DefaultParams()
	if !autocluster.Needed(d, p) {
		t.Fatal("14-deep hierarchy should trigger clustering")
	}
	r := mustCluster(t, d, p)
	if r.Stats.NoOp {
		t.Fatal("expected a synthesized tree")
	}
	// The tiny deep chain collapses into one leaf under the root.
	if r.Stats.Clusters != 1 || r.Stats.TreeNodes != 2 {
		t.Fatalf("stats = %+v, want 1 cluster / 2 tree nodes", r.Stats)
	}
}

func BenchmarkClusterFlat(b *testing.B) {
	spec := flatSpec()
	spec.Scale = 40 // ~10k cells
	g := circuits.GenFlat(spec)
	p := autocluster.DefaultParams()
	p.MaxNumInst = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autocluster.ClusterUsing(g.Design, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// flatGoldenSpec is a cold_flat-shaped flat netlist of about n instances.
func flatGoldenSpec(n int, seed int64) circuits.Spec {
	return circuits.Spec{Name: fmt.Sprintf("gf%d_%d", n, seed), Cells: n, Macros: 24,
		Subsystems: 4, BusWidth: 32, PipelineDepth: 2, Scale: 1, Seed: seed, Flat: true}
}

// clusterDigest renders a clustering result as its Stats plus a SHA-256 of
// every cell's leaf path, in CellID order.
func clusterDigest(r *autocluster.Result) string {
	h := sha256.New()
	for i := range r.Design.Cells {
		io.WriteString(h, r.Design.Node(r.Design.Cells[i].Hier).Path)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%+v %x", r.Stats, h.Sum(nil)[:12])
}

// TestClusterFlatGolden pins the synthesized trees of flat designs at the
// workload sizes the engine's miss path sees, under three knob sets: the
// defaults, a tight multi-level set and a loose set.
func TestClusterFlatGolden(t *testing.T) {
	params := []struct {
		name string
		p    autocluster.Params
	}{
		{"default", autocluster.DefaultParams()},
		{"tight", autocluster.Params{MaxNumInst: 60, MinNumInst: 20, MaxNumMacro: 2,
			MinNumMacro: 1, CoarseningRatio: 4, MaxLevels: 3, Tolerance: 0}},
		{"loose", autocluster.Params{MaxNumInst: 6000, MinNumInst: 1500, MaxNumMacro: 24,
			MinNumMacro: 0, CoarseningRatio: 16, MaxLevels: 1, Tolerance: 0.5}},
	}
	// Constants computed with the original map-based cluster adjacency.
	golden := map[string]string{
		"10000/1/default": `{NoOp:false Instances:9946 SeedClusters:4004 Clusters:3 Levels:0 Rounds:2 TreeNodes:4 MaxLeafInsts:4172} 3036b73b7fd37977b26af2e4`,
		"10000/1/tight":   `{NoOp:false Instances:9946 SeedClusters:4004 Clusters:211 Levels:3 Rounds:3 TreeNodes:292 MaxLeafInsts:60} 3f5874f7a6a56f691bb3df28`,
		"10000/1/loose":   `{NoOp:false Instances:9946 SeedClusters:4004 Clusters:2 Levels:0 Rounds:2 TreeNodes:3 MaxLeafInsts:9000} 26aa6448ac03e8d7b1b54d14`,
		"10000/2/default": `{NoOp:false Instances:9946 SeedClusters:4772 Clusters:7 Levels:0 Rounds:2 TreeNodes:8 MaxLeafInsts:4400} 1e5024867dc7599bc613c913`,
		"10000/2/tight":   `{NoOp:false Instances:9946 SeedClusters:4772 Clusters:210 Levels:3 Rounds:3 TreeNodes:282 MaxLeafInsts:60} eb10bf81394a096649385a2c`,
		"10000/2/loose":   `{NoOp:false Instances:9946 SeedClusters:4772 Clusters:2 Levels:0 Rounds:2 TreeNodes:3 MaxLeafInsts:9000} 2843623b5d02feb9d7a6658c`,
		"10000/3/default": `{NoOp:false Instances:9946 SeedClusters:4772 Clusters:10 Levels:1 Rounds:2 TreeNodes:12 MaxLeafInsts:4400} 1e8d4f27eb1cbafcc5c93c65`,
		"10000/3/tight":   `{NoOp:false Instances:9946 SeedClusters:4772 Clusters:216 Levels:3 Rounds:3 TreeNodes:290 MaxLeafInsts:60} d3872b3353ce0d33e4f38992`,
		"10000/3/loose":   `{NoOp:false Instances:9946 SeedClusters:4772 Clusters:2 Levels:0 Rounds:2 TreeNodes:3 MaxLeafInsts:9000} 2843623b5d02feb9d7a6658c`,
		"50000/1/default": `{NoOp:false Instances:49936 SeedClusters:27998 Clusters:134 Levels:2 Rounds:3 TreeNodes:141 MaxLeafInsts:4400} 335579fe3292488db16a1e87`,
		"50000/1/tight":   `{NoOp:false Instances:49936 SeedClusters:27998 Clusters:1153 Levels:3 Rounds:3 TreeNodes:1441 MaxLeafInsts:60} 348bc002dd50075ed0063900`,
		"50000/1/loose":   `{NoOp:false Instances:49936 SeedClusters:27998 Clusters:7 Levels:0 Rounds:2 TreeNodes:8 MaxLeafInsts:9000} e3715d44ea4cf2f0fb7190da`,
		"50000/2/default": `{NoOp:false Instances:49936 SeedClusters:28766 Clusters:130 Levels:2 Rounds:3 TreeNodes:142 MaxLeafInsts:4400} 42f6bc1b61384281143c4390`,
		"50000/2/tight":   `{NoOp:false Instances:49936 SeedClusters:28766 Clusters:1373 Levels:3 Rounds:3 TreeNodes:1705 MaxLeafInsts:60} a767ef9f85b6c67299f1507e`,
		"50000/2/loose":   `{NoOp:false Instances:49936 SeedClusters:28766 Clusters:9 Levels:0 Rounds:2 TreeNodes:10 MaxLeafInsts:9000} 942fec08549de35060c58e32`,
		"50000/3/default": `{NoOp:false Instances:49936 SeedClusters:28766 Clusters:123 Levels:2 Rounds:2 TreeNodes:127 MaxLeafInsts:4400} 76af6dc8218637ea5b99356a`,
		"50000/3/tight":   `{NoOp:false Instances:49936 SeedClusters:28766 Clusters:1378 Levels:3 Rounds:3 TreeNodes:1676 MaxLeafInsts:60} f62319f5a7642ab68a09bf43`,
		"50000/3/loose":   `{NoOp:false Instances:49936 SeedClusters:28766 Clusters:9 Levels:0 Rounds:2 TreeNodes:10 MaxLeafInsts:9000} 783db8e364b69e0d785a3506`,
	}
	for _, n := range []int{10_000, 50_000} {
		for _, seed := range []int64{1, 2, 3} {
			d := circuits.Generate(flatGoldenSpec(n, seed)).Design
			for _, ps := range params {
				key := fmt.Sprintf("%d/%d/%s", n, seed, ps.name)
				r := mustCluster(t, d, ps.p)
				if err := autocluster.CheckTree(r.Design, ps.p); err != nil {
					t.Errorf("%s: CheckTree: %v", key, err)
				}
				got := clusterDigest(r)
				if want, ok := golden[key]; !ok || got != want {
					t.Errorf("%s:\n got %s\nwant %s", key, got, want)
				}
			}
		}
	}
}

// TestClusterAllocs bounds the allocations of one clustering pass per
// instance of a cold_flat-sized design, so a per-cluster or per-round
// allocation in the coarsening loop cannot creep back in.
func TestClusterAllocs(t *testing.T) {
	d := circuits.Generate(flatGoldenSpec(50_000, 1)).Design
	sg := seqgraph.Build(d, seqgraph.DefaultParams())
	p := autocluster.DefaultParams()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := autocluster.ClusterUsing(d, p, sg); err != nil {
			t.Fatal(err)
		}
	})
	perInst := allocs / float64(len(d.Cells))
	t.Logf("%.0f allocs per call, %.3f per cell", allocs, perInst)
	if perInst > 0.5 {
		t.Fatalf("ClusterUsing made %.2f allocs per cell, want <= 0.5", perInst)
	}
}
