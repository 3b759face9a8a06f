package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/layout"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/seqgraph"
	"repro/internal/slicing"
)

// Progress stages reported to Options.Progress.
const (
	// StageLevel reports one floorplanned recursion level.
	StageLevel = "level"
	// StageFlips reports the macro-flipping post-process.
	StageFlips = "flips"
)

// Progress is one event of a running placement, delivered to the
// Options.Progress callback so long runs can stream status.
type Progress struct {
	// Stage is one of the Stage* constants.
	Stage string
	// Path, Depth and Blocks describe the floorplanned level (StageLevel).
	Path   string
	Depth  int
	Blocks int
	// Level counts floorplanned levels so far.
	Level int
	// Lambda is the dataflow blend of the run.
	Lambda float64
	// Flips counts orientation changes (StageFlips).
	Flips int
}

// ProgressFunc receives placement progress events. Callbacks must be fast
// and must not retain the event past the call; they may be invoked from the
// goroutine running the placement. Place delivers StageLevel events in the
// canonical depth-first order of the recursion whatever the Parallelism:
// levels solved before the recursion first forks stream live (so callbacks
// see progress and can cancel mid-run), the rest buffer inside their
// subtree task and replay at the join.
type ProgressFunc func(Progress)

// Knobs are the HiDaP parameters a caller sets: the paper's λ and k, the
// run controls, and the trace, flat and progress switches. Options embeds
// them, and so do hidap.Config and flows.Options, so each knob is declared
// once.
type Knobs struct {
	// Lambda blends block flow (λ) against macro flow (1−λ); the paper
	// evaluates λ ∈ {0.2, 0.5, 0.8} and keeps the best wirelength.
	Lambda float64
	// K is the latency decay exponent of the affinity score (paper: 2; 0
	// means 2).
	K float64
	// Effort selects the annealing budget per level.
	Effort layout.Effort
	// Parallelism sizes the work-stealing scheduler the sibling subtrees of
	// the hierarchy drain through: 1 is a one-lane pool that runs every
	// task on the calling goroutine, <= 0 uses runtime.GOMAXPROCS(0), and
	// anything else starts that many lanes. The placement is a pure
	// function of (Seed, Lambda, Effort) regardless of this value: tasks
	// are indexed, seeded from stable task paths (sched.Derive), and
	// reduced in index order. Ignored when Options.Sched is set.
	Parallelism int
	// Seed drives all stochastic steps; equal seeds give equal floorplans.
	Seed int64
	// Trace records the per-level block floorplans (Fig. 1 evolution).
	Trace bool
	// Flat disables the multi-level recursion: every macro becomes its own
	// block in a single floorplanning instance. This is the ablation for
	// the paper's first contribution (multi-level placement with
	// hierarchy-aware declustering); dataflow affinity is still used.
	Flat bool
	// Progress, when set, receives one event per floorplanned level and one
	// for the flipping post-process.
	Progress ProgressFunc
}

// DefaultKnobs are the paper's defaults: λ=0.5, k=2, medium effort, seed 0.
func DefaultKnobs() Knobs {
	return Knobs{Lambda: 0.5, K: 2, Effort: layout.EffortMedium}
}

// Options configures the HiDaP flow: the caller-facing Knobs plus the
// prebuilt artifacts a harness or engine supplies. The model parameters are
// the paper's: hier's 1% open_area and 40% min_area for declustering,
// seqgraph.DefaultParams for Gseq and slicing.DefaultEvalParams for the
// level layouts.
type Options struct {
	Knobs
	// SeqGraph optionally supplies a prebuilt sequential graph for the
	// design; the flow then skips seqgraph.Build. The caller asserts the
	// graph was built from the same design, normally with
	// seqgraph.DefaultParams (a serving engine caches one graph per design
	// and reuses it across jobs; the graph is read-only during placement,
	// so sharing is safe). An ablation may pass a graph built with other
	// parameters.
	SeqGraph *seqgraph.Graph
	// Tree optionally supplies the prebuilt hierarchy tree of the design,
	// skipping hier.New. Same contract as SeqGraph: built from this design,
	// shared read-only.
	Tree *hier.Tree
	// Bipartite optionally supplies the prebuilt cell–net bipartite graph
	// of the design, skipping graph.BipartiteFromDesign. Same contract as
	// SeqGraph.
	Bipartite *graph.Bipartite
	// Pool optionally shares annealing scratch (incremental slicing
	// evaluators) across levels and runs; see layout.Options.Pool.
	Pool *slicing.EvaluatorPool
	// Sched, when set, borrows an existing work-stealing pool instead of
	// creating one per Place call; a multi-candidate sweep passes its pool
	// here so candidates and their subtrees share one set of lanes.
	Sched *sched.Pool
}

// DefaultOptions mirrors the paper's defaults.
func DefaultOptions() Options {
	return Options{Knobs: DefaultKnobs()}
}

// TraceBlock is one block of a traced level.
type TraceBlock struct {
	Name       string
	Rect       geom.Rect
	MacroCount int
}

// LevelTrace captures one recursion level for visualization (Fig. 1).
type LevelTrace struct {
	Path   string
	Depth  int
	Region geom.Rect
	Blocks []TraceBlock
}

// Result is a finished HiDaP macro placement.
type Result struct {
	// Placement holds macro and port positions/orientations.
	Placement *placement.Placement
	// Trace lists the per-level block floorplans when Options.Trace is set.
	Trace []LevelTrace
	// Levels counts floorplanned recursion levels.
	Levels int
	// SeqStats reports the Gseq size (Table I).
	SeqStats seqgraph.Stats
	// Flips counts orientation changes made by the flipping post-process.
	Flips int
}

// flowState carries the per-run context through the recursion. Everything
// here is either read-only during the recursion (design, graphs, curves,
// options) or written at disjoint indices by disjoint subtree tasks (the
// placement: every macro belongs to exactly one subtree).
type flowState struct {
	d     *netlist.Design
	tree  *hier.Tree
	sg    *seqgraph.Graph
	sc    *ShapeCurves
	bp    *graph.Bipartite
	pl    *placement.Placement
	opt   Options
	res   *Result
	sched *sched.Pool
	// labelers holds *graph.Labeler scratch for targetAreas, one per
	// concurrently running subtree task.
	labelers sync.Pool
}

// cellEstimates holds the position estimates of the non-macro cells, which
// every task shares: such a cell is written only by the task that owns its
// subtree, and read only by that task and, after the last join, by
// the flipping pass. It also maps each macro cell to its slot in a view's
// per-macro arrays.
type cellEstimates struct {
	macroSlot []int32 // cell -> macro slot, or -1
	approx    []geom.Point
	hasApx    []bool
}

// view is one task's sight of the evolving position estimates: per-cell
// approximations (block centers, refined to exact centers once a macro is
// fixed) and whether a macro has actually been placed. A task reads
// outside its own subtree only the estimates of external macros (Gdf
// terminals), so the macro estimates are per task and the rest is shared.
// Parallel sibling subtrees each work on a frozen fork of the macro
// estimates taken at fork time — a sibling's deeper refinements are
// invisible until the join, which is what makes the result independent of
// scheduling (the paper's recursion treats sibling subtrees as independent
// subproblems; cross-subtree attraction comes from the parent level's
// block centers, which the fork carries).
type view struct {
	cells  *cellEstimates
	approx []geom.Point // per macro slot
	hasApx []bool
	placed []bool // mirrors placement.Placed for macros this view has seen fixed
}

func newView(d *netlist.Design) *view {
	cells := &cellEstimates{
		macroSlot: make([]int32, len(d.Cells)),
		approx:    make([]geom.Point, len(d.Cells)),
		hasApx:    make([]bool, len(d.Cells)),
	}
	n := 0
	for i := range d.Cells {
		cells.macroSlot[i] = -1
		if d.Cells[i].Kind == netlist.KindMacro {
			cells.macroSlot[i] = int32(n)
			n++
		}
	}
	return &view{cells: cells, approx: make([]geom.Point, n), hasApx: make([]bool, n), placed: make([]bool, n)}
}

// get returns the estimate of cell cid and whether it has one.
func (v *view) get(cid netlist.CellID) (geom.Point, bool) {
	if m := v.cells.macroSlot[cid]; m >= 0 {
		return v.approx[m], v.hasApx[m]
	}
	return v.cells.approx[cid], v.cells.hasApx[cid]
}

// set records the estimate of cell cid.
func (v *view) set(cid netlist.CellID, p geom.Point) {
	if m := v.cells.macroSlot[cid]; m >= 0 {
		v.approx[m], v.hasApx[m] = p, true
		return
	}
	v.cells.approx[cid], v.cells.hasApx[cid] = p, true
}

// fork copies the per-macro estimates for a child task: O(#macros).
func (v *view) fork() *view {
	return &view{
		cells:  v.cells,
		approx: append([]geom.Point(nil), v.approx...),
		hasApx: append([]bool(nil), v.hasApx...),
		placed: append([]bool(nil), v.placed...),
	}
}

// absorb copies a child task's macro estimates back for the macros the
// child owned (its block's macros); the child wrote its other cells'
// estimates into the shared arrays directly. Sibling macro sets are
// disjoint, so absorbing the children in block order is conflict-free and
// order-canonical.
func (v *view) absorb(sub *view, macros []netlist.CellID) {
	for _, cid := range macros {
		m := v.cells.macroSlot[cid]
		v.approx[m] = sub.approx[m]
		v.hasApx[m] = sub.hasApx[m]
		v.placed[m] = sub.placed[m]
	}
}

// merged writes the macro estimates into the shared per-cell arrays and
// returns them: the whole design's estimates, once every task has joined.
func (v *view) merged() ([]geom.Point, []bool) {
	for cid, m := range v.cells.macroSlot {
		if m >= 0 {
			v.cells.approx[cid], v.cells.hasApx[cid] = v.approx[m], v.hasApx[m]
		}
	}
	return v.cells.approx, v.cells.hasApx
}

// subRun buffers everything one subtree task produces — its view of the
// estimates, trace entries, progress events (with subtree-local level
// numbers) and level count — so the parent can merge the children in block
// order and reproduce the serial depth-first result exactly.
type subRun struct {
	view   *view
	trace  []LevelTrace
	events []Progress
	levels int
	err    error
	// live marks the root task's spine: every level solved before the
	// first fork is the canonical prefix of the event stream whatever the
	// scheduling, so those events stream to the callback as they happen (a
	// long run shows progress, and a callback can cancel mid-run); forked
	// subtrees buffer instead and replay at the join.
	live bool
}

// event delivers one progress event: immediately on the live spine,
// buffered otherwise.
func (run *subRun) event(st *flowState, ev Progress) {
	if run.live {
		st.emit(ev)
		return
	}
	run.events = append(run.events, ev)
}

// Place runs the complete HiDaP flow (Algorithm 1) on a design: hierarchy
// tree, shape curves, recursive block floorplan, and macro flipping. A
// cancelled or expired ctx aborts the run promptly (between annealing moves)
// and returns ctx.Err().
func Place(ctx context.Context, d *netlist.Design, opt Options) (*Result, error) {
	if len(d.Macros()) == 0 {
		return nil, fmt.Errorf("core: design %q has no macros to place", d.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.K == 0 {
		opt.K = 2
	}

	sg := opt.SeqGraph
	if sg == nil {
		sg = seqgraph.Build(d, seqgraph.DefaultParams())
	}
	tree := opt.Tree
	if tree == nil {
		tree = hier.New(d)
	}
	bp := opt.Bipartite
	if bp == nil {
		bp = graph.BipartiteFromDesign(d)
	}
	st := &flowState{
		d:    d,
		tree: tree,
		sg:   sg,
		bp:   bp,
		pl:   placement.New(d),
		opt:  opt,
		res:  &Result{},
	}
	st.sched = opt.Sched
	if st.sched == nil {
		st.sched = sched.NewPool(opt.Parallelism)
		defer st.sched.Close()
	}
	st.sc = generateShapeCurves(ctx, st.tree, opt.Seed, opt.Pool)
	st.res.SeqStats = st.sg.Stats()

	root := &subRun{view: newView(d), live: true}
	var err error
	if opt.Flat {
		err = st.flatPlace(ctx, d.Die, root)
	} else {
		err = st.recurse(ctx, d.Root(), d.Die, 0, root)
	}
	if err != nil {
		return nil, err
	}
	st.res.Levels = root.levels
	if opt.Trace {
		st.res.Trace = root.trace
	}

	if !st.pl.AllMacrosPlaced() {
		return nil, fmt.Errorf("core: flow left macros unplaced")
	}
	legalize.Macros(st.pl, d.Die)
	approx, hasApx := root.view.merged()
	st.res.Flips = st.pl.FlipMacros(d.Macros(), approx, hasApx, 4)
	st.res.Placement = st.pl
	// Replay the buffered level events (the root spine already streamed
	// live) in canonical depth-first order, then close with the flips
	// stage: the stream is identical at any Parallelism.
	for _, ev := range root.events {
		st.emit(ev)
	}
	st.emit(Progress{Stage: StageFlips, Level: st.res.Levels, Lambda: opt.Lambda, Flips: st.res.Flips})
	return st.res, nil
}

// emit delivers one progress event when a callback is registered.
func (st *flowState) emit(ev Progress) {
	if st.opt.Progress != nil {
		st.opt.Progress(ev)
	}
}

// recurse is Algorithm 2: floorplan the blocks of one hierarchy level
// inside region, then recurse into multi-macro blocks. It runs as one task
// of the solve DAG, writing only into run (its own buffers) and the
// disjoint placement slots of its subtree; multi-macro children fork as
// sibling tasks on frozen view clones and merge back in block order, so
// the result is byte-identical to the serial depth-first execution.
func (st *flowState) recurse(ctx context.Context, nh netlist.HierID, region geom.Rect, depth int, run *subRun) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := st.d
	decl := st.tree.Decluster(nh)
	if len(decl.Blocks) < 2 {
		st.tree.Release(decl)
	}
	if len(decl.Blocks) == 0 {
		return nil
	}
	run.levels++

	if len(decl.Blocks) == 1 {
		// A level that cannot be partitioned further: place its macros
		// directly (wrapper collapse already tried to open it).
		b := &decl.Blocks[0]
		for _, m := range b.MacroCells {
			st.fixSingleMacro(m, region, nil, nil, 0, nil, run.view)
		}
		return nil
	}

	gdf, aff, sol, err := st.solveLevel(ctx, decl, region, sched.Derive(st.opt.Seed, int64(nh)), run.view)
	// Only Gdf reads the design-sized membership; give it back before the
	// children decluster theirs.
	st.tree.Release(decl)
	if err != nil {
		return err
	}
	run.event(st, Progress{
		Stage: StageLevel, Path: d.Node(nh).Path, Depth: depth,
		Blocks: len(decl.Blocks), Level: run.levels, Lambda: st.opt.Lambda,
	})

	// Refresh position estimates: every cell of block i now lives at the
	// center of the block's rectangle; glue cells at the region center.
	v := run.view
	for i := range decl.Blocks {
		c := sol.Rects[i].Center()
		for _, cid := range decl.Blocks[i].Cells {
			v.set(cid, c)
		}
	}
	for _, cid := range decl.Glue {
		if _, ok := v.get(cid); !ok {
			v.set(cid, region.Center())
		}
	}

	if st.opt.Trace {
		tl := LevelTrace{Path: d.Node(nh).Path, Depth: depth, Region: region}
		for i := range decl.Blocks {
			tl.Blocks = append(tl.Blocks, TraceBlock{
				Name:       decl.Blocks[i].Name,
				Rect:       sol.Rects[i],
				MacroCount: decl.Blocks[i].MacroCount(),
			})
		}
		run.trace = append(run.trace, tl)
	}

	// Descend (Algorithm 2, lines 7-11), in two phases so the result does
	// not depend on scheduling: first every single-macro block is fixed
	// serially in block order (these are cheap corner placements), then the
	// multi-macro blocks — the expensive recursive subproblems — run as
	// sibling tasks, each on a fork of the view as it stands right here.
	// Forking even on a one-lane pool keeps the semantics identical at any
	// Parallelism: a sibling never sees another sibling's deeper
	// refinements, only the block centers this level just computed.
	var children []int
	for i := range decl.Blocks {
		b := &decl.Blocks[i]
		switch {
		case b.MacroCount() == 0:
			// Soft block: standard cells only, placed later by the cell
			// placer; nothing to fix here.
		case b.MacroCount() == 1:
			st.fixSingleMacro(b.MacroCells[0], sol.Rects[i], gdf, aff, int32(i), sol, v)
		default:
			children = append(children, i)
		}
	}
	if len(children) == 0 {
		return nil
	}
	if len(children) == 1 {
		// One child sees exactly the view a fork would carry; recurse in
		// place and let it extend this task's buffers directly.
		i := children[0]
		return st.recurse(ctx, decl.Blocks[i].Node, sol.Rects[i], depth+1, run)
	}
	subs := make([]*subRun, len(children))
	for k := range children {
		subs[k] = &subRun{view: v.fork()}
	}
	g := st.sched.Group(ctx)
	for k, i := range children {
		sub, b, r := subs[k], &decl.Blocks[i], sol.Rects[i]
		g.Go(func(ctx context.Context) {
			sub.err = st.recurse(ctx, b.Node, r, depth+1, sub)
		})
	}
	g.Wait() // a cancelled ctx still drains; errors are read per-child below
	// Merge the children in block order: level numbers shift by the levels
	// accumulated so far, traces and events concatenate, and each child's
	// view writes back over exactly its block's macros (disjoint across
	// siblings). Errors surface in block order too, so the reported
	// error does not depend on scheduling.
	for k, i := range children {
		sub := subs[k]
		if sub.err != nil {
			return sub.err
		}
		for e := range sub.events {
			sub.events[e].Level += run.levels
		}
		run.events = append(run.events, sub.events...)
		run.trace = append(run.trace, sub.trace...)
		run.levels += sub.levels
		v.absorb(sub.view, decl.Blocks[i].MacroCells)
	}
	return ctx.Err()
}

// flatPlace is the single-level ablation: one layout instance whose blocks
// are the individual macros; all standard cells are glue.
func (st *flowState) flatPlace(ctx context.Context, region geom.Rect, run *subRun) error {
	d := st.d
	decl := &hier.Result{CellBlock: make([]int32, len(d.Cells))}
	for i := range decl.CellBlock {
		decl.CellBlock[i] = hier.Glue
	}
	for _, m := range d.Macros() {
		c := d.Cell(m)
		decl.CellBlock[m] = int32(len(decl.Blocks))
		decl.Blocks = append(decl.Blocks, hier.Block{
			Name:       c.Name,
			Node:       netlist.None,
			Macro:      m,
			Cells:      []netlist.CellID{m},
			MacroCells: []netlist.CellID{m},
			Area:       c.Area(),
		})
	}
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.KindPort {
			decl.CellBlock[i] = hier.Outside
		} else if decl.CellBlock[i] == hier.Glue {
			decl.Glue = append(decl.Glue, netlist.CellID(i))
			decl.GlueArea += d.Cells[i].Area()
		}
	}
	run.levels = 1

	gdf, aff, sol, err := st.solveLevel(ctx, decl, region, st.opt.Seed, run.view)
	if err != nil {
		return err
	}
	run.event(st, Progress{Stage: StageLevel, Path: "(flat)", Blocks: len(decl.Blocks), Level: 1, Lambda: st.opt.Lambda})
	for i := range decl.Blocks {
		st.fixSingleMacro(decl.Blocks[i].MacroCells[0], sol.Rects[i], gdf, aff, int32(i), sol, run.view)
	}
	if st.opt.Trace {
		tl := LevelTrace{Path: "(flat)", Depth: 0, Region: region}
		for i := range decl.Blocks {
			tl.Blocks = append(tl.Blocks, TraceBlock{Name: decl.Blocks[i].Name, Rect: sol.Rects[i], MacroCount: 1})
		}
		run.trace = append(run.trace, tl)
	}
	return nil
}

// levelAffinity is the CSR adjacency of one level's affinity pairs, for
// corner scoring. Gdf node i's neighbours are nbr[off[i]:off[i+1]] in
// ascending order, with the pair weights in w alongside.
type levelAffinity struct {
	off []int32
	nbr []int32
	w   []float64
}

// newLevelAffinity indexes the sorted pairs of an n-node Gdf. Filling the
// rows in (I, J) order lists every row ascending: a node's lower
// neighbours arrive (as I) before the pairs it leads.
func newLevelAffinity(pairs []dataflow.Pair, n int) *levelAffinity {
	la := &levelAffinity{
		off: make([]int32, n+1),
		nbr: make([]int32, 2*len(pairs)),
		w:   make([]float64, 2*len(pairs)),
	}
	for _, pr := range pairs {
		la.off[pr.I+1]++
		la.off[pr.J+1]++
	}
	for i := 1; i <= n; i++ {
		la.off[i] += la.off[i-1]
	}
	fill := make([]int32, n)
	copy(fill, la.off[:n])
	for _, pr := range pairs {
		la.nbr[fill[pr.I]], la.w[fill[pr.I]] = pr.J, pr.W
		fill[pr.I]++
		la.nbr[fill[pr.J]], la.w[fill[pr.J]] = pr.I, pr.W
		fill[pr.J]++
	}
	return la
}

// solveLevel floorplans one level: the declustered blocks (with their
// §IV-C target areas and shape curves) and the Gdf terminals (at their
// positions in view v) go into one layout instance inside region, annealed
// from seed. It returns the level's Gdf, its affinity and the solution, or
// ctx.Err() when the solve was cancelled.
func (st *flowState) solveLevel(ctx context.Context, decl *hier.Result, region geom.Rect, seed int64, v *view) (*dataflow.Graph, *levelAffinity, *layout.Result, error) {
	at := st.targetAreas(decl)
	gdf := dataflow.Build(st.sg, decl)
	pairs := gdf.Pairs(dataflow.Params{Lambda: st.opt.Lambda, K: st.opt.K})
	aff := newLevelAffinity(pairs, len(gdf.Nodes))

	prob := &layout.Problem{Region: region, Pairs: pairs}
	for i := range decl.Blocks {
		b := &decl.Blocks[i]
		prob.Blocks = append(prob.Blocks, layout.BlockSpec{
			Name: b.Name,
			Block: slicing.Block{
				Curve:      st.sc.Curve(b),
				MinArea:    b.Area,
				TargetArea: at[i],
			},
		})
	}
	for i := len(decl.Blocks); i < len(gdf.Nodes); i++ {
		prob.Terminals = append(prob.Terminals, layout.Terminal{
			Name: gdf.Nodes[i].Name,
			Pos:  st.terminalPos(gdf, i, v),
		})
	}
	sol := layout.Solve(ctx, prob, layout.Options{Seed: seed, Effort: st.opt.Effort, Pool: st.opt.Pool})
	return gdf, aff, sol, ctx.Err()
}

// targetAreas implements §IV-C: glue cells adopt their BFS-nearest block,
// and each block's target area is its own area plus the adopted glue.
func (st *flowState) targetAreas(decl *hier.Result) []int64 {
	d := st.d
	var seeds, seedLabels []int32
	for i := range decl.Blocks {
		for _, cid := range decl.Blocks[i].Cells {
			seeds = append(seeds, int32(cid))
			seedLabels = append(seedLabels, int32(i))
		}
	}
	targets := make([]int32, len(decl.Glue))
	for i, cid := range decl.Glue {
		targets[i] = int32(cid)
	}
	lab, _ := st.labelers.Get().(*graph.Labeler)
	if lab == nil {
		lab = st.bp.NewLabeler()
	}
	defer st.labelers.Put(lab)
	labels := lab.Label(seeds, seedLabels, targets)

	at := make([]int64, len(decl.Blocks))
	var blockArea int64
	for i := range decl.Blocks {
		at[i] = decl.Blocks[i].Area
		blockArea += decl.Blocks[i].Area
	}
	var orphan int64
	for i, cid := range decl.Glue {
		area := d.Cell(cid).Area()
		if l := labels[i]; l >= 0 {
			at[l] += area
		} else {
			orphan += area
		}
	}
	// Unreachable glue: spread proportionally to block area.
	if orphan > 0 && blockArea > 0 {
		for i := range at {
			at[i] += orphan * decl.Blocks[i].Area / blockArea
		}
	}
	return at
}

// terminalPos estimates the fixed position of a Gdf terminal node from the
// task's view. A placed macro's view approximation equals its exact placed
// center (fixSingleMacro writes both), so reading the view covers the
// placed case too — without racing on placement slots other tasks own.
func (st *flowState) terminalPos(gdf *dataflow.Graph, node int, v *view) geom.Point {
	n := &gdf.Nodes[node]
	var sx, sy, cnt int64
	for _, si := range n.Seq {
		for _, cid := range st.sg.Nodes[si].Cells {
			p, ok := v.get(cid)
			switch {
			case st.d.Cell(cid).Kind == netlist.KindPort:
				p = st.d.PortPos(cid)
			case !ok:
				p = st.d.Die.Center()
			}
			sx += p.X
			sy += p.Y
			cnt++
		}
	}
	if cnt == 0 {
		return st.d.Die.Center()
	}
	return geom.Pt(sx/cnt, sy/cnt)
}

// fixSingleMacro places one macro inside its block rectangle, in the corner
// that minimizes the affinity-weighted distance to its Gdf counterparts
// (Algorithm 2, line 11). gdf/sol may be nil for degenerate levels, in
// which case the macro centers in the region.
func (st *flowState) fixSingleMacro(m netlist.CellID, r geom.Rect, gdf *dataflow.Graph, aff *levelAffinity, blockIdx int32, sol *layout.Result, v *view) {
	c := st.d.Cell(m)
	// Choose the orientation whose outline fits the rectangle best.
	orients := []geom.Orient{geom.R0, geom.R90}
	bestOrient := geom.R0
	bestFit := int64(-1)
	for _, o := range orients {
		w, h := o.Dims(c.Width, c.Height)
		overW := max64(0, w-r.W)
		overH := max64(0, h-r.H)
		fit := overW + overH
		if bestFit < 0 || fit < bestFit {
			bestFit = fit
			bestOrient = o
		}
	}
	w, h := bestOrient.Dims(c.Width, c.Height)

	// Candidate anchor points: four corners and the center.
	candidates := []geom.Rect{
		geom.RectXYWH(r.X, r.Y, w, h),
		geom.RectXYWH(r.X2()-w, r.Y, w, h),
		geom.RectXYWH(r.X, r.Y2()-h, w, h),
		geom.RectXYWH(r.X2()-w, r.Y2()-h, w, h),
		geom.RectXYWH(r.X+(r.W-w)/2, r.Y+(r.H-h)/2, w, h),
	}
	best := candidates[0]
	bestCost := float64(-1)
	for _, cand := range candidates {
		cand = cand.ClampInside(st.d.Die)
		cost := st.macroAttraction(cand.Center(), gdf, aff, blockIdx, sol, v)
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			best = cand
		}
	}
	st.pl.PlaceOriented(m, geom.Pt(best.X, best.Y), bestOrient)
	// The view approximation must equal the placed center exactly — the
	// view stands in for placement reads everywhere in this flow.
	v.set(m, best.Center())
	v.placed[v.cells.macroSlot[m]] = true
}

// macroAttraction scores a candidate macro position against the affinity
// row of its block, visiting the block's Gdf neighbours in ascending order.
func (st *flowState) macroAttraction(p geom.Point, gdf *dataflow.Graph, aff *levelAffinity, blockIdx int32, sol *layout.Result, v *view) float64 {
	if gdf == nil || sol == nil {
		// No dataflow context: all candidates tie at zero and the first
		// (lower-left corner) wins.
		return 0
	}
	var cost float64
	for k := aff.off[blockIdx]; k < aff.off[blockIdx+1]; k++ {
		cost += aff.w[k] * float64(p.ManhattanDist(st.counterpartPos(gdf, int(aff.nbr[k]), sol, v)))
	}
	return cost
}

// counterpartPos locates a Gdf node for corner scoring: macros the task has
// seen fixed (earlier single-macro siblings at this level) count with their
// real positions via the view, others with their block rectangle centers.
func (st *flowState) counterpartPos(gdf *dataflow.Graph, j int, sol *layout.Result, v *view) geom.Point {
	if j >= len(sol.Rects) {
		return st.terminalPos(gdf, j, v)
	}
	var sx, sy, cnt int64
	for _, si := range gdf.Nodes[j].Seq {
		if st.sg.Nodes[si].Kind != seqgraph.KindMacro {
			continue
		}
		m := v.cells.macroSlot[st.sg.Nodes[si].Cells[0]]
		if v.placed[m] {
			p := v.approx[m] // == the placed center, set by fixSingleMacro
			sx += p.X
			sy += p.Y
			cnt++
		}
	}
	if cnt > 0 {
		return geom.Pt(sx/cnt, sy/cnt)
	}
	return sol.Rects[j].Center()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
