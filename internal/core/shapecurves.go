// Package core implements the HiDaP flow of the paper: shape-curve
// generation over the hierarchy tree (§IV-A), the recursive block
// floorplan (Algorithm 2) with hierarchical declustering, target-area
// assignment and dataflow-driven layout generation, and the macro-flipping
// post-process (Algorithm 1).
package core

import (
	"context"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/shape"
	"repro/internal/slicing"
)

// ShapeCurves is SΓ: for every hierarchy node with macros beneath it, the
// shape curve of the minimal bounding boxes that can hold a slicing
// placement of those macros.
type ShapeCurves struct {
	// ByNode maps hierarchy nodes (with macros) to their curves.
	ByNode map[netlist.HierID]shape.Curve
	// ByMacro maps each macro cell to its (rotatable) leaf curve.
	ByMacro map[netlist.CellID]shape.Curve
}

// GenerateShapeCurves computes SΓ bottom-up over the hierarchy tree, once
// per design (Algorithm 1, line 4). Leaf macros contribute their two
// orientations; interior nodes compose their parts with a short
// area-minimizing anneal over slicing structures, and the union of every
// composition visited forms the node's Pareto set.
func GenerateShapeCurves(ctx context.Context, tree *hier.Tree, seed int64) *ShapeCurves {
	return generateShapeCurves(ctx, tree, seed, nil)
}

// generateShapeCurves is GenerateShapeCurves with an optional evaluator
// pool: the per-node composition anneals draw their scratch from it, so a
// long-lived engine re-deriving curves for many jobs stays allocation-warm.
func generateShapeCurves(ctx context.Context, tree *hier.Tree, seed int64, pool *slicing.EvaluatorPool) *ShapeCurves {
	d := tree.D
	sc := &ShapeCurves{
		ByNode:  make(map[netlist.HierID]shape.Curve),
		ByMacro: make(map[netlist.CellID]shape.Curve),
	}
	// A reverse topological sweep is bottom-up for any valid tree, not just
	// builder-ordered ones (rebuilt hierarchies renumber nodes arbitrarily).
	order := d.HierTopo()
	for oi := len(order) - 1; oi >= 0; oi-- {
		hid := order[oi]
		if tree.SubMacros[hid] == 0 {
			continue
		}
		node := d.Node(hid)
		var parts []shape.Curve
		for _, cid := range node.Cells {
			c := d.Cell(cid)
			if c.Kind != netlist.KindMacro {
				continue
			}
			curve := shape.FromBoxRotatable(c.Width, c.Height)
			sc.ByMacro[cid] = curve
			parts = append(parts, curve)
		}
		for _, ch := range node.Children {
			if tree.SubMacros[ch] > 0 {
				parts = append(parts, sc.ByNode[ch])
			}
		}
		sc.ByNode[hid] = composeParts(ctx, parts, seed+int64(hid), pool)
	}
	return sc
}

// Curve returns the shape curve of a declustered block.
func (sc *ShapeCurves) Curve(b *hier.Block) shape.Curve {
	if b.Macro != netlist.None {
		return sc.ByMacro[b.Macro]
	}
	if b.Node != netlist.None {
		if c, ok := sc.ByNode[b.Node]; ok {
			return c
		}
	}
	return shape.Curve{} // soft block
}

// composeCompact bounds the corner count of curves fed to composition.
const composeCompact = 16

// composeParts builds the shape curve of a set of sub-curves under slicing
// composition. Two parts are enumerated exactly; more parts run a short
// area-optimization anneal (paper §IV-A), accumulating the Pareto union of
// every slicing structure visited.
func composeParts(ctx context.Context, parts []shape.Curve, seed int64, pool *slicing.EvaluatorPool) shape.Curve {
	switch len(parts) {
	case 0:
		return shape.Curve{}
	case 1:
		return parts[0]
	case 2:
		return shape.Union(
			shape.CombineH(parts[0], parts[1]),
			shape.CombineV(parts[0], parts[1]),
		)
	}
	// The anneal walks on an incremental evaluator over curve-only blocks:
	// it thins every part once (to composeCompact, matching the old
	// pre-compaction) and recomposes only the slicing-tree path each move
	// touches, instead of rebuilding the whole composition per move.
	blocks := make([]slicing.Block, len(parts))
	for i := range parts {
		blocks[i] = slicing.Block{Curve: parts[i]}
	}
	expr := slicing.NewBalanced(len(parts))
	var inc *slicing.Evaluator
	if pool != nil {
		inc = pool.Get(&expr, blocks, slicing.EvalParams{CompactPoints: composeCompact})
		defer pool.Put(inc)
	} else {
		inc = slicing.NewEvaluator(&expr, blocks, slicing.EvalParams{CompactPoints: composeCompact})
	}
	c := composer{inc: inc}
	anneal.RunModel(ctx, anneal.Options{Seed: seed, MovesPerRound: 24, MaxRounds: 30, Alpha: 0.88, StallRounds: 8}, &c)
	return c.acc
}

// composer is the area-minimizing composition anneal as an anneal.Model
// over the incremental evaluator. Every state the walk evaluates folds its
// root curve into acc, so acc ends as the Pareto union of every slicing
// structure visited, rejected proposals included.
type composer struct {
	inc  *slicing.Evaluator
	acc  shape.Curve
	ubuf []shape.Point
}

func (c *composer) Cost() float64 {
	root := c.inc.RootCurve()
	// UnionInto copies the corners into ubuf (so accumulating the
	// evaluator-owned view stays safe across later moves) and reuses the
	// buffer every step instead of allocating a fresh candidate slice per
	// move; acc aliases ubuf between calls, which UnionInto's in-place
	// prune tolerates.
	c.acc, c.ubuf = shape.UnionInto(c.ubuf, c.acc, root)
	return float64(root.MinArea())
}

func (c *composer) Propose(rng *rand.Rand) float64 {
	//hidapvet:commit anneal.RunModel pairs every rejected Propose with composer.Undo, which undoes the evaluator
	c.inc.Perturb(rng)
	return c.Cost()
}

func (c *composer) Undo() { c.inc.Undo() }

// Snapshot records nothing: the result is the accumulated union, not the
// best single structure.
func (c *composer) Snapshot() {}
