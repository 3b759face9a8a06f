// Package autocluster synthesizes a physical hierarchy for netlists whose
// RTL hierarchy is flat, too deep or badly unbalanced, so that the
// hier.Tree → Decluster → multilevel placement flow can consume real-world
// inputs unchanged.
//
// The approach follows the Hier-RTLMP direction (see PAPERS.md): seed
// clusters from whatever hierarchy prefix exists (subtrees that already fit
// the size bounds are kept whole; oversized modules are burst into their
// sequential components), keep macros and their dataflow-adjacent register
// arrays together using Gseq affinities, then coarsen the cluster-level
// connectivity graph with greedy heavy-edge matching until every leaf
// cluster respects the instance and macro bounds. Leaves are finally
// grouped into up to MaxLevels internal tree levels whose bounds scale by
// CoarseningRatio per level.
//
// The algorithm is sequential and breaks every tie by smallest member
// CellID, so the same (design, Params) input always produces a
// byte-identical tree regardless of GOMAXPROCS.
package autocluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/netlist"
	"repro/internal/seqgraph"
)

// Params controls hierarchy synthesis. The knob set mirrors the argument
// surface of OpenROAD's rtl_macro_placer (Hier-RTLMP): MaxNumInst /
// MinNumInst bound the standard-cell instances per leaf cluster
// (max_num_inst / min_num_inst, RTLMP_MAX_INST / RTLMP_MIN_INST),
// MaxNumMacro / MinNumMacro bound the macros per leaf cluster
// (max_num_macro / min_num_macro), CoarseningRatio is the factor by which
// the bounds grow per tree level going up (coarsening_ratio), MaxLevels
// bounds the synthesized tree depth above the leaves (max_num_level), and
// Tolerance relaxes the max bounds by the given fraction (tolerance).
//
// Zero values of MaxNumInst, MaxNumMacro, CoarseningRatio and MaxLevels
// mean "use the DefaultParams value". Zero MinNumInst, MinNumMacro and
// Tolerance are meaningful (no minimum, strict bounds) and are kept.
type Params struct {
	MaxNumInst      int     `json:"max_num_inst"`
	MinNumInst      int     `json:"min_num_inst"`
	MaxNumMacro     int     `json:"max_num_macro"`
	MinNumMacro     int     `json:"min_num_macro"`
	CoarseningRatio float64 `json:"coarsening_ratio"`
	MaxLevels       int     `json:"max_levels"`
	Tolerance       float64 `json:"tolerance"`
}

// DefaultParams returns the recommended knob settings. They are sized so
// that the synthetic suite circuits (whose generated hierarchy is already
// well shaped) pass through as a no-op, while genuinely flat 50k–100k
// instance designs cluster into a few dozen leaves.
func DefaultParams() Params {
	return Params{
		MaxNumInst:      4000,
		MinNumInst:      200,
		MaxNumMacro:     16,
		MinNumMacro:     4,
		CoarseningRatio: 8,
		MaxLevels:       2,
		Tolerance:       0.1,
	}
}

// withDefaults fills the zero-meaning-default fields.
func (p Params) withDefaults() Params {
	def := DefaultParams()
	if p.MaxNumInst == 0 {
		p.MaxNumInst = def.MaxNumInst
	}
	if p.MaxNumMacro == 0 {
		p.MaxNumMacro = def.MaxNumMacro
	}
	if p.CoarseningRatio == 0 {
		p.CoarseningRatio = def.CoarseningRatio
	}
	if p.MaxLevels == 0 {
		p.MaxLevels = def.MaxLevels
	}
	return p
}

// Validate rejects contradictory or out-of-range knob settings. It is
// called (after default filling) by Cluster.
func (p Params) Validate() error {
	switch {
	case p.MaxNumInst < 1:
		return fmt.Errorf("autocluster: MaxNumInst %d < 1", p.MaxNumInst)
	case p.MinNumInst < 0:
		return fmt.Errorf("autocluster: MinNumInst %d < 0", p.MinNumInst)
	case p.MinNumInst > p.MaxNumInst:
		return fmt.Errorf("autocluster: MinNumInst %d > MaxNumInst %d", p.MinNumInst, p.MaxNumInst)
	case p.MaxNumMacro < 1:
		return fmt.Errorf("autocluster: MaxNumMacro %d < 1", p.MaxNumMacro)
	case p.MinNumMacro < 0:
		return fmt.Errorf("autocluster: MinNumMacro %d < 0", p.MinNumMacro)
	case p.MinNumMacro > p.MaxNumMacro:
		return fmt.Errorf("autocluster: MinNumMacro %d > MaxNumMacro %d", p.MinNumMacro, p.MaxNumMacro)
	case p.CoarseningRatio <= 1:
		return fmt.Errorf("autocluster: CoarseningRatio %g must be > 1", p.CoarseningRatio)
	case p.MaxLevels < 1:
		return fmt.Errorf("autocluster: MaxLevels %d < 1", p.MaxLevels)
	case p.Tolerance < 0 || p.Tolerance > 4:
		return fmt.Errorf("autocluster: Tolerance %g out of [0, 4]", p.Tolerance)
	}
	return nil
}

// Stats summarizes one clustering pass.
type Stats struct {
	// NoOp is true when the input hierarchy was already well shaped and
	// the design was passed through untouched.
	NoOp bool `json:"noop,omitempty"`
	// Instances is the number of movable cells (comb + flop + macro).
	Instances int `json:"instances"`
	// SeedClusters counts clusters after hierarchy-prefix seeding.
	SeedClusters int `json:"seed_clusters"`
	// Clusters counts the leaf clusters of the synthesized tree.
	Clusters int `json:"clusters"`
	// Levels counts internal tree levels between the leaves and the root.
	Levels int `json:"levels"`
	// Rounds counts coarsening match rounds.
	Rounds int `json:"rounds"`
	// TreeNodes is the total synthesized hierarchy node count (with root).
	TreeNodes int `json:"tree_nodes"`
	// MaxLeafInsts is the largest leaf cluster instance count.
	MaxLeafInsts int `json:"max_leaf_insts"`
}

// Result is the outcome of Cluster.
type Result struct {
	// Design is the re-hierarchized design (the input design itself when
	// NoOp). Cell, net and pin IDs are identical to the input's.
	Design *netlist.Design
	Stats  Stats
}

// Graph-construction constants: nets with more pins than
// largeNetThreshold, or touching more than cliqueCap clusters, contribute
// no affinity (they are global wires; clique weights would be noise).
const (
	largeNetThreshold = 64
	cliqueCap         = 16
	maxRounds         = 64
)

// tolInt relaxes a bound by the tolerance fraction.
func tolInt(v int, tol float64) int {
	return int(float64(v) * (1 + tol))
}

// maxGoodDepth is the hierarchy depth beyond which Needed asks for
// re-clustering even if every node respects the direct-size bounds.
func maxGoodDepth(p Params) int { return 3*p.MaxLevels + 3 }

// Needed reports whether the design's hierarchy is flat, too deep or
// unbalanced enough to benefit from a synthesized hierarchy: some node
// directly owns more movable instances (or macros) than the tolerance-
// relaxed bounds allow, or the tree is deeper than the multilevel flow
// can usefully consume.
func Needed(d *netlist.Design, p Params) bool {
	p = p.withDefaults()
	capI := tolInt(p.MaxNumInst, p.Tolerance)
	capM := tolInt(p.MaxNumMacro, p.Tolerance)
	for i := range d.Hier {
		insts, macros := 0, 0
		for _, cid := range d.Hier[i].Cells {
			switch d.Cell(cid).Kind {
			case netlist.KindPort:
				continue
			case netlist.KindMacro:
				macros++
			}
			insts++
		}
		if insts > capI || macros > capM {
			return true
		}
	}
	depth := make([]int32, len(d.Hier))
	maxDepth := 0
	for _, n := range d.HierTopo() {
		if n != 0 {
			depth[n] = depth[d.Hier[n].Parent] + 1
			if int(depth[n]) > maxDepth {
				maxDepth = int(depth[n])
			}
		}
	}
	return maxDepth > maxGoodDepth(p)
}

// ClusterUsing synthesizes a physical hierarchy for d. When the existing
// hierarchy already fits the bounds the input design is returned unchanged
// with Stats.NoOp set, which guarantees bit-identical downstream results
// for well-shaped inputs. sg is a sequential graph of d (for engines that
// already cache Gseq). The graph depends only on cells,
// nets and names — not on the hierarchy — so a graph built from any
// ReplaceHier variant of the same connectivity is acceptable. A nil graph
// is built internally.
func ClusterUsing(d *netlist.Design, p Params, sg *seqgraph.Graph) (*Result, error) {
	q := p.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	st := Stats{}
	for i := range d.Cells {
		if d.Cells[i].Kind != netlist.KindPort {
			st.Instances++
		}
	}
	if !Needed(d, q) {
		st.NoOp = true
		st.TreeNodes = len(d.Hier)
		return &Result{Design: d, Stats: st}, nil
	}
	if sg == nil {
		sg = seqgraph.Build(d, seqgraph.DefaultParams())
	} else if len(sg.CellNode) != len(d.Cells) {
		return nil, fmt.Errorf("autocluster: sequential graph covers %d cells, design has %d", len(sg.CellNode), len(d.Cells))
	}

	c := &clusterer{
		d:        d,
		p:        q,
		sg:       sg,
		maxInst:  tolInt(q.MaxNumInst, q.Tolerance),
		maxMacro: tolInt(q.MaxNumMacro, q.Tolerance),
		adj:      adjBuilder{d: d},
	}
	c.seed()
	st.SeedClusters = c.alive
	c.splitOversized()
	c.attachAffinity()
	c.coarsen()
	c.mergeSmall()
	st.Rounds = c.rounds

	nd, err := c.build(&st)
	if err != nil {
		return nil, err
	}
	return &Result{Design: nd, Stats: st}, nil
}

// clusterer carries the union-find cluster state of one pass.
type clusterer struct {
	d  *netlist.Design
	p  Params
	sg *seqgraph.Graph
	// maxInst and maxMacro are the tolerance-relaxed leaf bounds.
	maxInst, maxMacro int

	cellCl  []int32 // cell -> cluster (pre-find), -1 for ports
	parent  []int32 // union-find forest
	insts   []int32 // per root: movable instance count
	macros  []int32 // per root: macro count
	minCell []int32 // per root: smallest member CellID (deterministic order key)
	alive   int
	rounds  int
	levels  int

	scratch []netlist.CellID
	repIdx  []int32 // per cluster root: dense index into the current reps
	adj     adjBuilder
}

func (c *clusterer) newCluster() int32 {
	id := int32(len(c.parent))
	c.parent = append(c.parent, id)
	c.insts = append(c.insts, 0)
	c.macros = append(c.macros, 0)
	c.minCell = append(c.minCell, math.MaxInt32)
	c.alive++
	return id
}

func (c *clusterer) addCell(ci int32, cid netlist.CellID) {
	c.cellCl[cid] = ci
	c.insts[ci]++
	if c.d.Cell(cid).Kind == netlist.KindMacro {
		c.macros[ci]++
	}
	if int32(cid) < c.minCell[ci] {
		c.minCell[ci] = int32(cid)
	}
}

func (c *clusterer) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]] // path halving
		x = c.parent[x]
	}
	return x
}

// union merges the two roots; the root with the smaller minCell survives.
// Returns the surviving root.
func (c *clusterer) union(a, b int32) int32 {
	if a == b {
		return a
	}
	if c.minCell[b] < c.minCell[a] {
		a, b = b, a
	}
	c.parent[b] = a
	c.insts[a] += c.insts[b]
	c.macros[a] += c.macros[b]
	c.alive--
	return a
}

func (c *clusterer) fits(a, b int32) bool {
	return int(c.insts[a]+c.insts[b]) <= c.maxInst && int(c.macros[a]+c.macros[b]) <= c.maxMacro
}

// seed forms the initial clusters from the hierarchy prefix: subtrees that
// already fit the bounds become whole seed clusters; oversized (or root)
// levels burst their direct cells into sequential components — register
// arrays and macros become one seed each (via Gseq), everything else a
// singleton.
func (c *clusterer) seed() {
	d := c.d
	c.cellCl = make([]int32, len(d.Cells))
	for i := range c.cellCl {
		c.cellCl[i] = -1
	}

	topo := d.HierTopo()
	subI := make([]int32, len(d.Hier))
	subM := make([]int32, len(d.Hier))
	for oi := len(topo) - 1; oi >= 0; oi-- {
		n := topo[oi]
		node := d.Node(n)
		for _, cid := range node.Cells {
			switch d.Cell(cid).Kind {
			case netlist.KindPort:
				continue
			case netlist.KindMacro:
				subM[n]++
			}
			subI[n]++
		}
		for _, ch := range node.Children {
			subI[n] += subI[ch]
			subM[n] += subM[ch]
		}
	}

	var walk func(n netlist.HierID)
	walk = func(n netlist.HierID) {
		if n != 0 && subI[n] > 0 && int(subI[n]) <= c.maxInst && int(subM[n]) <= c.maxMacro {
			c.scratch = c.d.SubtreeCells(n, c.scratch[:0])
			ci := c.newCluster()
			for _, cid := range c.scratch {
				if d.Cell(cid).Kind != netlist.KindPort {
					c.addCell(ci, cid)
				}
			}
			return
		}
		c.burstDirect(n)
		for _, ch := range d.Node(n).Children {
			walk(ch)
		}
	}
	walk(0)
}

// burstDirect seeds the direct cells of one oversized hierarchy node,
// grouping by sequential component so register arrays stay whole.
func (c *clusterer) burstDirect(n netlist.HierID) {
	d := c.d
	bySeq := map[int32]int32{}
	for _, cid := range d.Node(n).Cells {
		if d.Cell(cid).Kind == netlist.KindPort {
			continue
		}
		if sq := c.sg.CellNode[cid]; sq >= 0 {
			ci, ok := bySeq[sq]
			if !ok {
				ci = c.newCluster()
				bySeq[sq] = ci
			}
			c.addCell(ci, cid)
		} else {
			c.addCell(c.newCluster(), cid)
		}
	}
}

// splitOversized chunks any seed cluster that exceeds the instance bound
// (a register array wider than MaxNumInst) into bound-sized pieces in
// CellID order. It runs before any union, so every cluster is still its
// own root.
func (c *clusterer) splitOversized() {
	over := false
	isOver := make([]bool, len(c.parent))
	for i := range c.parent {
		if int(c.insts[i]) > c.maxInst {
			isOver[i] = true
			over = true
		}
	}
	if !over {
		return
	}
	members := make(map[int32][]netlist.CellID)
	for i := range c.cellCl {
		if ci := c.cellCl[i]; ci >= 0 && isOver[ci] {
			members[ci] = append(members[ci], netlist.CellID(i))
		}
	}
	var order []int32
	for ci := range members {
		order = append(order, ci)
	}
	slices.Sort(order)
	for _, ci := range order {
		cells := members[ci]
		c.insts[ci], c.macros[ci], c.minCell[ci] = 0, 0, math.MaxInt32
		cur := ci
		for k, cid := range cells {
			if k > 0 && k%c.maxInst == 0 {
				cur = c.newCluster()
			}
			c.addCell(cur, cid)
		}
	}
}

// attachAffinity merges each register array into the cluster of its
// widest dataflow-adjacent macro (one Gseq hop, either direction) when the
// merged cluster still fits the bounds. Ties break toward the smaller
// Gseq node index.
func (c *clusterer) attachAffinity() {
	sg := c.sg
	in := make([][]seqgraph.Edge, len(sg.Nodes))
	for u := range sg.Nodes {
		for _, e := range sg.Out[u] {
			in[e.To] = append(in[e.To], seqgraph.Edge{To: int32(u), Bits: e.Bits})
		}
	}
	for u := range sg.Nodes {
		if sg.Nodes[u].Kind != seqgraph.KindRegister || len(sg.Nodes[u].Cells) == 0 {
			continue
		}
		best, bestBits := int32(-1), int32(0)
		consider := func(v, bits int32) {
			if sg.Nodes[v].Kind != seqgraph.KindMacro {
				return
			}
			if bits > bestBits || (bits == bestBits && best >= 0 && v < best) {
				best, bestBits = v, bits
			}
		}
		for _, e := range sg.Out[u] {
			consider(e.To, e.Bits)
		}
		for _, e := range in[u] {
			consider(e.To, e.Bits)
		}
		if best < 0 {
			continue
		}
		ru := c.find(c.cellCl[sg.Nodes[u].Cells[0]])
		rm := c.find(c.cellCl[sg.Nodes[best].Cells[0]])
		if ru != rm && c.fits(ru, rm) {
			c.union(ru, rm)
		}
	}
}

// nb is one weighted neighbor in a cluster adjacency list.
type nb struct {
	to int32
	w  float64
}

// aliveReps returns the current cluster roots sorted by minCell.
func (c *clusterer) aliveReps() []int32 {
	reps := make([]int32, 0, c.alive)
	for i := range c.parent {
		if c.find(int32(i)) == int32(i) {
			reps = append(reps, int32(i))
		}
	}
	slices.SortFunc(reps, func(a, b int32) int { return cmp.Compare(c.minCell[a], c.minCell[b]) })
	return reps
}

// cellDense fills dst with each cell's dense index into reps (or -1) and
// returns it.
func (c *clusterer) cellDense(reps []int32, dst []int32) []int32 {
	c.repIdx = grow(c.repIdx, len(c.parent))
	for i, r := range reps {
		c.repIdx[r] = int32(i)
	}
	if cap(dst) < len(c.cellCl) {
		dst = make([]int32, len(c.cellCl))
	}
	dst = dst[:len(c.cellCl)]
	for i, ci := range c.cellCl {
		if ci < 0 {
			dst[i] = -1
		} else {
			dst[i] = c.repIdx[c.find(ci)]
		}
	}
	return dst
}

// adjBuilder builds the weighted cluster adjacency of a grouping of the
// design's cells: every net with at most largeNetThreshold pins touching
// 2..cliqueCap groups contributes a clique with weight 1/(k-1) per pair.
// Neighbor lists are sorted by weight (descending) then dense index, so
// greedy consumption is deterministic.
//
// The qualifying nets are recorded as a CSR of their distinct groups, and
// each group then sums its incident nets' weights into a dense accumulator
// in ascending net order: the order a per-pair running sum over the nets
// would use, so every weight is the same float64 whatever the grouping's
// shape. The buffers are reused across the rounds of one pass.
type adjBuilder struct {
	d *netlist.Design

	seen   []int32   // per group: the last net that listed it
	netOff []int32   // per qualifying net: offset of its groups in netGrp
	netGrp []int32   // distinct groups of each qualifying net
	netW   []float64 // per qualifying net: its pair weight 1/(k-1)
	grpOff []int32   // per group: offset of its nets in grpNet
	grpNet []int32   // qualifying nets incident to each group, ascending
	next   []int32   // per group: fill cursor into grpNet, then list offset
	acc    []float64 // per group: weight summed so far, 0 when untouched
	touch  []int32   // groups with a nonzero acc entry
	list   []nb      // every neighbor list, back to back
	adj    [][]nb    // per group: its span of list
}

// build returns the adjacency of the grouping cellTop (cell -> group in
// [0, n), or -1 for cells outside every group). The lists stay valid until
// the next build call.
func (a *adjBuilder) build(cellTop []int32, n int) [][]nb {
	d := a.d
	a.seen = grow(a.seen, n)
	for i := range a.seen {
		a.seen[i] = -1
	}
	// Size the buffers to their bounds once, so the first (largest) call
	// of a pass does not grow them step by step.
	a.netOff = append(slices.Grow(a.netOff[:0], len(d.Nets)+1), 0)
	a.netGrp = slices.Grow(a.netGrp[:0], len(d.Pins))
	a.netW = slices.Grow(a.netW[:0], len(d.Nets))
	pairs := 0
	for ni := range d.Nets {
		pins := d.Nets[ni].Pins
		if len(pins) < 2 || len(pins) > largeNetThreshold {
			continue
		}
		epoch := int32(ni)
		start := len(a.netGrp)
		k := 0
		for _, pid := range pins {
			t := cellTop[d.Pin(pid).Cell]
			if t < 0 || a.seen[t] == epoch {
				continue
			}
			if k == cliqueCap {
				k = 0 // a global wire: no affinity
				break
			}
			a.seen[t] = epoch
			a.netGrp = append(a.netGrp, t)
			k++
		}
		if k < 2 {
			a.netGrp = a.netGrp[:start]
			continue
		}
		a.netOff = append(a.netOff, int32(len(a.netGrp)))
		a.netW = append(a.netW, 1.0/float64(k-1))
		pairs += k * (k - 1)
	}

	// Invert to group -> incident nets; filling in net order keeps every
	// group's nets ascending.
	a.grpOff = grow(a.grpOff, n+1)
	clear(a.grpOff)
	for _, g := range a.netGrp {
		a.grpOff[g+1]++
	}
	for g := 0; g < n; g++ {
		a.grpOff[g+1] += a.grpOff[g]
	}
	a.next = append(a.next[:0], a.grpOff[:n]...)
	a.grpNet = grow(a.grpNet, len(a.netGrp))
	for q := range a.netW {
		for _, g := range a.netGrp[a.netOff[q]:a.netOff[q+1]] {
			a.grpNet[a.next[g]] = int32(q)
			a.next[g]++
		}
	}

	a.acc = grow(a.acc, n)
	clear(a.acc)
	a.list = slices.Grow(a.list[:0], pairs)
	a.adj = grow(a.adj, n)
	for g := 0; g < n; g++ {
		a.touch = a.touch[:0]
		for _, q := range a.grpNet[a.grpOff[g]:a.grpOff[g+1]] {
			w := a.netW[q]
			for _, h := range a.netGrp[a.netOff[q]:a.netOff[q+1]] {
				if h == int32(g) {
					continue
				}
				if a.acc[h] == 0 {
					a.touch = append(a.touch, h)
				}
				a.acc[h] += w
			}
		}
		start := len(a.list)
		for _, h := range a.touch {
			a.list = append(a.list, nb{to: h, w: a.acc[h]})
			a.acc[h] = 0
		}
		slices.SortFunc(a.list[start:], byWeight)
		a.next[g] = int32(start) // reused as the list offsets
	}
	a.next = append(a.next[:n], int32(len(a.list)))
	for g := 0; g < n; g++ {
		a.adj[g] = a.list[a.next[g]:a.next[g+1]:a.next[g+1]]
	}
	return a.adj
}

// grow returns s resized to n elements, reusing its backing array when it
// is large enough. The contents are unspecified.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// byWeight orders neighbors by weight, heaviest first, then by index.
func byWeight(x, y nb) int {
	switch {
	case x.w > y.w:
		return -1
	case x.w < y.w:
		return 1
	}
	return cmp.Compare(x.to, y.to)
}

// coarsen runs greedy heavy-edge match rounds until no merge fits the leaf
// bounds anymore.
func (c *clusterer) coarsen() {
	var dense []int32
	for c.rounds < maxRounds {
		reps := c.aliveReps()
		if len(reps) < 2 {
			break
		}
		dense = c.cellDense(reps, dense)
		adj := c.adj.build(dense, len(reps))
		merges := 0
		for i := range reps {
			cur := c.find(reps[i])
			if cur != reps[i] {
				continue // absorbed earlier this round
			}
			for _, e := range adj[i] {
				tgt := c.find(reps[e.to])
				if tgt == cur {
					continue
				}
				if c.fits(cur, tgt) {
					cur = c.union(cur, tgt)
					merges++
				}
			}
		}
		c.rounds++
		if merges == 0 {
			break
		}
	}
}

// mergeSmall folds clusters below the minimum bounds into their
// best-connected (or, failing that, nearest-by-CellID) neighbor that still
// fits the maximum bounds. Macro-poor clusters only merge toward other
// macro-bearing clusters, concentrating stray macros.
func (c *clusterer) mergeSmall() {
	if c.p.MinNumInst == 0 && c.p.MinNumMacro == 0 {
		return
	}
	var dense []int32
	for pass := 0; pass < 8; pass++ {
		reps := c.aliveReps()
		if len(reps) < 2 {
			return
		}
		dense = c.cellDense(reps, dense)
		adj := c.adj.build(dense, len(reps))
		changed := false
		for i := range reps {
			cur := c.find(reps[i])
			if cur != reps[i] {
				continue
			}
			tiny := int(c.insts[cur]) < c.p.MinNumInst
			poor := c.macros[cur] > 0 && int(c.macros[cur]) < c.p.MinNumMacro
			if !tiny && !poor {
				continue
			}
			merged := false
			for _, e := range adj[i] {
				tgt := c.find(reps[e.to])
				if tgt == cur || (poor && !tiny && c.macros[tgt] == 0) {
					continue
				}
				if c.fits(cur, tgt) {
					c.union(cur, tgt)
					changed, merged = true, true
					break
				}
			}
			if merged || !tiny {
				continue
			}
			// Disconnected tiny cluster: fold into the nearest cluster in
			// minCell order that fits.
			for off := 1; off < len(reps); off++ {
				for _, j := range [2]int{i + off, i - off} {
					if j < 0 || j >= len(reps) {
						continue
					}
					tgt := c.find(reps[j])
					if tgt != cur && c.fits(cur, tgt) {
						c.union(cur, tgt)
						changed, merged = true, true
						break
					}
				}
				if merged {
					break
				}
			}
		}
		if !changed {
			return
		}
	}
}

// boundFor returns the tolerance-relaxed instance and macro caps for a
// tree node of the given height (leaves have height 1); the caps grow by
// CoarseningRatio per level.
func (c *clusterer) boundFor(h int32) (int32, int32) {
	scale := math.Pow(c.p.CoarseningRatio, float64(h-1))
	capI := float64(c.maxInst) * scale
	capM := float64(c.maxMacro) * scale
	if capI > math.MaxInt32 {
		capI = math.MaxInt32
	}
	if capM > math.MaxInt32 {
		capM = math.MaxInt32
	}
	return int32(capI), int32(capM)
}

// tnode is one node of the synthesized tree during construction.
type tnode struct {
	children []int32
	parent   int32
	minCell  int32
	insts    int32
	macros   int32
	height   int32
}

// build groups the leaf clusters into up to MaxLevels internal levels and
// materializes the synthesized hierarchy via netlist.ReplaceHier.
func (c *clusterer) build(st *Stats) (*netlist.Design, error) {
	d := c.d
	reps := c.aliveReps()
	L := len(reps)

	tn := make([]tnode, 0, 2*L)
	leafIdx := make([]int32, len(c.parent)) // root cluster -> leaf tnode index
	for i, r := range reps {
		tn = append(tn, tnode{
			parent: -1, minCell: c.minCell[r],
			insts: c.insts[r], macros: c.macros[r], height: 1,
		})
		leafIdx[r] = int32(i)
	}
	level := make([]int32, L)
	for i := range level {
		level[i] = int32(i)
	}
	fanCap := int(math.Ceil(c.p.CoarseningRatio))
	if fanCap < 2 {
		fanCap = 2
	}

	cellTop := make([]int32, len(c.cellCl))
	pos := make([]int32, 0)
	topOf := func(t int32) int32 {
		for tn[t].parent >= 0 {
			t = tn[t].parent
		}
		return t
	}
	for c.levels < c.p.MaxLevels && len(level) > fanCap {
		// Dense position of each current-level node, then per-cell tops.
		pos = append(pos[:0], make([]int32, len(tn))...)
		for i, t := range level {
			pos[t] = int32(i)
		}
		leafTop := make([]int32, L)
		for l := 0; l < L; l++ {
			leafTop[l] = pos[topOf(int32(l))]
		}
		for i, ci := range c.cellCl {
			if ci < 0 {
				cellTop[i] = -1
			} else {
				cellTop[i] = leafTop[leafIdx[c.find(ci)]]
			}
		}
		adj := c.adj.build(cellTop, len(level))

		assigned := make([]int32, len(level))
		for i := range assigned {
			assigned[i] = -1
		}
		var next []int32
		created := 0
		for i := range level {
			if assigned[i] >= 0 {
				continue
			}
			base := level[i]
			members := []int32{int32(i)}
			gi, gm, mh := tn[base].insts, tn[base].macros, tn[base].height
			for _, e := range adj[i] {
				if len(members) >= fanCap {
					break
				}
				j := e.to
				if assigned[j] >= 0 || int(j) == i {
					continue
				}
				cand := level[j]
				h := mh
				if tn[cand].height > h {
					h = tn[cand].height
				}
				capI, capM := c.boundFor(h + 1)
				if gi+tn[cand].insts <= capI && gm+tn[cand].macros <= capM {
					members = append(members, j)
					gi += tn[cand].insts
					gm += tn[cand].macros
					if tn[cand].height > mh {
						mh = tn[cand].height
					}
				}
			}
			if len(members) == 1 {
				assigned[i] = int32(i)
				next = append(next, base)
				continue
			}
			nt := int32(len(tn))
			node := tnode{parent: -1, minCell: tn[base].minCell, insts: gi, macros: gm, height: mh + 1}
			for _, m := range members {
				assigned[m] = nt
				node.children = append(node.children, level[m])
				tn[level[m]].parent = nt
			}
			tn = append(tn, node)
			next = append(next, nt)
			created++
		}
		if created == 0 {
			break
		}
		level = next
		c.levels++
	}

	// Materialize: root is 0, leaves get IDs 1..L in minCell order, then
	// internal nodes in creation order. Parents of internal nodes come
	// AFTER their children on purpose — consumers must not assume builder
	// ordering (hier.New and the shape-curve sweep handle this).
	nodes := make([]netlist.NewHierNode, 1, len(tn)+1)
	nodes[0] = netlist.NewHierNode{Parent: netlist.None}
	hid := make([]netlist.HierID, len(tn))
	for t := range tn {
		name := fmt.Sprintf("g%d", t-L)
		if t < L {
			name = fmt.Sprintf("c%d", t)
		}
		hid[t] = netlist.HierID(len(nodes))
		nodes = append(nodes, netlist.NewHierNode{Name: name})
	}
	for t := range tn {
		p := netlist.HierID(0)
		if tn[t].parent >= 0 {
			p = hid[tn[t].parent]
		}
		nodes[hid[t]].Parent = p
	}
	cellNode := make([]netlist.HierID, len(d.Cells))
	for i, ci := range c.cellCl {
		if ci < 0 {
			cellNode[i] = 0
		} else {
			cellNode[i] = hid[leafIdx[c.find(ci)]]
		}
	}
	nd, err := netlist.ReplaceHier(d, nodes, cellNode)
	if err != nil {
		return nil, fmt.Errorf("autocluster: rebuild: %w", err)
	}

	st.Clusters = L
	st.Levels = c.levels
	st.TreeNodes = len(nodes)
	for t := 0; t < L; t++ {
		if int(tn[t].insts) > st.MaxLeafInsts {
			st.MaxLeafInsts = int(tn[t].insts)
		}
	}
	return nd, nil
}

// CheckTree verifies that a synthesized hierarchy respects the bounds at
// every level: leaves stay within the tolerance-relaxed MaxNumInst /
// MaxNumMacro, and a node whose height above the leaves is h stays within
// those bounds scaled by CoarseningRatio^h. The root is exempt (it owns
// the whole design). Intended for tests and acceptance checks on Cluster
// output; arbitrary RTL hierarchies need not satisfy it.
func CheckTree(d *netlist.Design, p Params) error {
	p = p.withDefaults()
	maxInst := tolInt(p.MaxNumInst, p.Tolerance)
	maxMacro := tolInt(p.MaxNumMacro, p.Tolerance)
	topo := d.HierTopo()
	insts := make([]int32, len(d.Hier))
	macros := make([]int32, len(d.Hier))
	height := make([]int32, len(d.Hier))
	for oi := len(topo) - 1; oi >= 0; oi-- {
		n := topo[oi]
		node := d.Node(n)
		for _, cid := range node.Cells {
			switch d.Cell(cid).Kind {
			case netlist.KindPort:
				continue
			case netlist.KindMacro:
				macros[n]++
			}
			insts[n]++
		}
		height[n] = 1
		for _, ch := range node.Children {
			insts[n] += insts[ch]
			macros[n] += macros[ch]
			if height[ch]+1 > height[n] {
				height[n] = height[ch] + 1
			}
		}
		if n == 0 {
			continue
		}
		scale := math.Pow(p.CoarseningRatio, float64(height[n]-1))
		capI := int32(math.Min(float64(maxInst)*scale, math.MaxInt32))
		capM := int32(math.Min(float64(maxMacro)*scale, math.MaxInt32))
		if insts[n] > capI {
			return fmt.Errorf("autocluster: node %q (height %d) holds %d insts > cap %d", node.Path, height[n], insts[n], capI)
		}
		if macros[n] > capM {
			return fmt.Errorf("autocluster: node %q (height %d) holds %d macros > cap %d", node.Path, height[n], macros[n], capM)
		}
	}
	return nil
}
