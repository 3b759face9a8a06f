package dataflow

import (
	"math"
	"sort"
	"testing"

	"repro/circuits"
	"repro/internal/hier"
)

// affinityOracle is the dense Maff accumulation Pairs replaced, kept as the
// differential oracle: an n×n matrix filled by two passes over the edge
// maps in sorted key order, each directed edge adding its score to both
// symmetric cells.
func affinityOracle(g *Graph, p Params) [][]float64 {
	n := len(g.Nodes)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	acc := func(edges map[EdgeKey]*Histogram, weight float64) {
		keys := make([]EdgeKey, 0, len(edges))
		for k := range edges {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].From != keys[j].From {
				return keys[i].From < keys[j].From
			}
			return keys[i].To < keys[j].To
		})
		for _, k := range keys {
			s := weight * edges[k].Score(p.K)
			m[k.From][k.To] += s
			m[k.To][k.From] += s
		}
	}
	acc(g.BlockFlow, p.Lambda)
	acc(g.MacroFlow, 1-p.Lambda)
	return m
}

// oraclePairs lists the oracle's nonzero upper-triangle entries in (I, J)
// order.
func oraclePairs(g *Graph, p Params) []Pair {
	m := affinityOracle(g, p)
	var out []Pair
	for i := range m {
		for j := i + 1; j < len(m[i]); j++ {
			if m[i][j] != 0 {
				out = append(out, Pair{I: int32(i), J: int32(j), W: m[i][j]})
			}
		}
	}
	return out
}

// samePairs requires the same pairs in the same order with bit-identical
// weights.
func samePairs(t *testing.T, what string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.I != w.I || g.J != w.J || math.Float64bits(g.W) != math.Float64bits(w.W) {
			t.Fatalf("%s: pair %d = %+v, want %+v", what, k, g, w)
		}
	}
}

// sameAffinity requires bit-identical affinity matrices.
func sameAffinity(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: affinity[%d][%d] = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestPairsMatchOracle holds Pairs to the dense oracle at every multi-block
// level of the suite circuits' recursion, at both λ extremes and the
// default blend: exactly the oracle's nonzero upper-triangle entries, in
// (I, J) order, with bitwise-equal weights. The dense Affinity view must
// reproduce the oracle's matrix bit for bit as well.
func TestPairsMatchOracle(t *testing.T) {
	checked := 0
	for _, spec := range circuits.Suite() {
		spec.Scale = 400
		gen := circuits.Generate(spec)
		sg := gen.SeqGraph()
		for _, decl := range recursionLevels(hier.New(gen.Design)) {
			g := Build(sg, decl)
			for _, lambda := range []float64{0, 0.5, 1} {
				p := Params{Lambda: lambda, K: 2}
				pairs := g.Pairs(p)
				samePairs(t, spec.Name, pairs, oraclePairs(g, p))
				sameAffinity(t, spec.Name, g.Affinity(p), affinityOracle(g, p))
				for k := 1; k < len(pairs); k++ {
					a, b := pairs[k-1], pairs[k]
					if a.I > b.I || (a.I == b.I && a.J >= b.J) {
						t.Fatalf("%s: pairs %+v, %+v out of (I, J) order", spec.Name, a, b)
					}
				}
				checked += len(pairs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pairs compared; the check is vacuous")
	}
}
