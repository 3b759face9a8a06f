package core_test

import (
	"sync"
	"testing"

	"repro/circuits"
	"repro/internal/autocluster"
	"repro/internal/core"
)

func artifactsSpec() circuits.Spec {
	return circuits.Spec{Name: "a1", Cells: 400_000, Macros: 12, Subsystems: 3,
		BusWidth: 32, PipelineDepth: 2, Scale: 200, Seed: 9}
}

// TestArtifactsCluster pins the cache contract of Artifacts.Cluster: one
// synthesis per params, a no-op variant that is the receiver, a real
// variant that shares Gseq and the bipartite graph but not the tree, and
// failures that are not cached.
func TestArtifactsCluster(t *testing.T) {
	g := circuits.GenFlat(artifactsSpec())
	a := core.NewArtifacts(g.Design, g.SeqGraph)
	if a.SeqGraph() != g.SeqGraph() {
		t.Fatal("artifacts must read the supplied Gseq")
	}
	p := autocluster.Params{MaxNumInst: 300, MaxNumMacro: 4}
	v1, st1, fresh1, err := a.Cluster(p)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	v2, st2, fresh2, err := a.Cluster(p)
	if err != nil {
		t.Fatalf("Cluster (cached): %v", err)
	}
	if !fresh1 || fresh2 {
		t.Fatalf("fresh flags = %v, %v; want true, false", fresh1, fresh2)
	}
	if v1 != v2 || st2 != (autocluster.Stats{}) {
		t.Fatalf("a repeat Cluster returned another variant or stats %+v", st2)
	}
	if st1.NoOp || v1 == a {
		t.Fatal("a flat design must not be a no-op")
	}
	if err := autocluster.CheckTree(v1.Design(), p); err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	if v1.SeqGraph() != a.SeqGraph() || v1.Bipartite() != a.Bipartite() {
		t.Error("a clustered variant must share its parent's Gseq and bipartite graph")
	}
	if v1.Tree() == a.Tree() {
		t.Error("a clustered variant must build its own tree")
	}

	bad := autocluster.Params{MaxNumInst: 300, MaxNumMacro: 4, MinNumMacro: 5}
	for i := 0; i < 2; i++ {
		if v, _, fresh, err := a.Cluster(bad); err == nil || v != nil || fresh {
			t.Fatalf("call %d: invalid params gave (%v, fresh %v, err %v), want an error", i, v, fresh, err)
		}
	}

	h := circuits.Generate(artifactsSpec())
	b := core.NewArtifacts(h.Design, nil)
	v, st, fresh, err := b.Cluster(autocluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !st.NoOp || !fresh || v != b {
		t.Fatalf("well-shaped design: NoOp %v, fresh %v, receiver %v; want a fresh no-op returning the receiver",
			st.NoOp, fresh, v == b)
	}
}

// TestArtifactsClusterConcurrent: goroutines asking for the same variant at
// once get one synthesis and one pointer.
func TestArtifactsClusterConcurrent(t *testing.T) {
	g := circuits.GenFlat(artifactsSpec())
	a := core.NewArtifacts(g.Design, g.SeqGraph)
	p := autocluster.Params{MaxNumInst: 300, MaxNumMacro: 4}
	const n = 8
	vs := make([]*core.Artifacts, n)
	fresh := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			vs[i], _, fresh[i], err = a.Cluster(p)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	built := 0
	for i := range vs {
		if fresh[i] {
			built++
		}
		if vs[i] != vs[0] {
			t.Errorf("goroutine %d got a different variant", i)
		}
	}
	if built != 1 {
		t.Errorf("%d syntheses, want 1", built)
	}
}
