package core

import (
	"context"
	"sync"

	"repro/internal/autocluster"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/seqgraph"
)

// Artifacts are the inputs Place derives from one design — Gseq, the
// hierarchy tree and the cell–net bipartite graph — each built on first use
// and then shared read-only, plus the design's autoclustered variants. A
// caller that places a design more than once (the λ candidates of a flow,
// the jobs of a serving engine) holds one Artifacts per design, so each
// artifact is built once per design rather than once per placement.
type Artifacts struct {
	d         *netlist.Design
	seqGraph  func() *seqgraph.Graph
	tree      func() *hier.Tree
	bipartite func() *graph.Bipartite

	mu       sync.Mutex // guards variants
	variants map[autocluster.Params]*Artifacts
}

// NewArtifacts returns the artifacts of d. seqGraph, when non-nil, supplies
// d's Gseq built with seqgraph.DefaultParams (circuits.Generated.SeqGraph,
// say); nil builds it on first use.
func NewArtifacts(d *netlist.Design, seqGraph func() *seqgraph.Graph) *Artifacts {
	if seqGraph == nil {
		seqGraph = func() *seqgraph.Graph { return seqgraph.Build(d, seqgraph.DefaultParams()) }
	}
	return &Artifacts{
		d:         d,
		seqGraph:  sync.OnceValue(seqGraph),
		tree:      sync.OnceValue(func() *hier.Tree { return hier.New(d) }),
		bipartite: sync.OnceValue(func() *graph.Bipartite { return graph.BipartiteFromDesign(d) }),
	}
}

// Design returns the design the artifacts describe.
func (a *Artifacts) Design() *netlist.Design { return a.d }

// SeqGraph returns the design's Gseq.
func (a *Artifacts) SeqGraph() *seqgraph.Graph { return a.seqGraph() }

// Tree returns the design's hierarchy tree.
func (a *Artifacts) Tree() *hier.Tree { return a.tree() }

// Bipartite returns the design's cell–net bipartite graph.
func (a *Artifacts) Bipartite() *graph.Bipartite { return a.bipartite() }

// Cluster returns the artifacts of the design autoclustered under p,
// synthesizing the hierarchy on the first call per params. fresh reports
// whether this call synthesized it, and st describes that synthesis (zero
// on a cache hit). A no-op synthesis (the hierarchy is already well shaped)
// returns a itself. A real variant builds its own tree and shares a's Gseq
// and bipartite graph, which is exact because the clustered netlist shares
// a's cells, nets and pins. A failed synthesis is not cached.
func (a *Artifacts) Cluster(p autocluster.Params) (v *Artifacts, st autocluster.Stats, fresh bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v, ok := a.variants[p]; ok {
		return v, autocluster.Stats{}, false, nil
	}
	res, err := autocluster.ClusterUsing(a.d, p, a.SeqGraph())
	if err != nil {
		return nil, autocluster.Stats{}, false, err
	}
	v = a
	if !res.Stats.NoOp {
		v = NewArtifacts(res.Design, a.seqGraph)
		v.bipartite = a.bipartite
	}
	if a.variants == nil {
		a.variants = make(map[autocluster.Params]*Artifacts)
	}
	a.variants[p] = v
	return v, res.Stats, true, nil
}

// Place runs Place on the design, reading Gseq, the tree and the bipartite
// graph from a in place of opt's.
func (a *Artifacts) Place(ctx context.Context, opt Options) (*Result, error) {
	opt.SeqGraph, opt.Tree, opt.Bipartite = a.SeqGraph(), a.Tree(), a.Bipartite()
	return Place(ctx, a.d, opt)
}
