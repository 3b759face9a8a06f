package anneal

import (
	"context"
	"math/rand"
	"testing"
)

// permProblem is a toy quadratic-assignment-style problem: order the numbers
// 0..n-1 so that cost = Σ |perm[i] - i| is minimized (optimum 0, identity).
// It implements Model with a one-swap undo journal, the same shape as the
// incremental evaluators the engine drives in production.
type permProblem struct {
	perm []int
	i, j int   // the last proposed swap
	best []int // perm at the last Snapshot
	// snapshots counts Snapshot calls and evals cost evaluations, through
	// Cost and Propose alike.
	snapshots int
	evals     int
	// onEval, if set, runs after every cost evaluation.
	onEval func(evals int)
}

func newPermProblem(n int, seed int64) *permProblem {
	p := &permProblem{perm: make([]int, n), best: make([]int, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := range p.perm {
		p.perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p.perm[i], p.perm[j] = p.perm[j], p.perm[i] })
	return p
}

func (p *permProblem) Cost() float64 {
	c := 0
	for i, v := range p.perm {
		d := v - i
		if d < 0 {
			d = -d
		}
		c += d
	}
	p.evals++
	if p.onEval != nil {
		p.onEval(p.evals)
	}
	return float64(c)
}

func (p *permProblem) Propose(rng *rand.Rand) float64 {
	p.i = rng.Intn(len(p.perm))
	p.j = rng.Intn(len(p.perm))
	p.perm[p.i], p.perm[p.j] = p.perm[p.j], p.perm[p.i]
	return p.Cost()
}

func (p *permProblem) Undo() { p.perm[p.i], p.perm[p.j] = p.perm[p.j], p.perm[p.i] }

func (p *permProblem) Snapshot() {
	p.snapshots++
	copy(p.best, p.perm)
}

func TestRunFindsOptimum(t *testing.T) {
	p := newPermProblem(12, 99)
	res := RunModel(context.Background(), Options{Seed: 1, MovesPerRound: 200, MaxRounds: 300}, p)
	if res.BestCost != 0 {
		t.Errorf("BestCost = %v, want 0 (best perm %v)", res.BestCost, p.best)
	}
	for i, v := range p.best {
		if v != i {
			t.Fatalf("best perm not identity: %v", p.best)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, []int) {
		p := newPermProblem(10, 5)
		res := RunModel(context.Background(), Options{Seed: 42, MovesPerRound: 50, MaxRounds: 60}, p)
		return res.BestCost, p.best
	}
	c1, p1 := run()
	c2, p2 := run()
	if c1 != c2 {
		t.Fatalf("cost nondeterministic: %v vs %v", c1, c2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("best state nondeterministic: %v vs %v", p1, p2)
		}
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	accepted := func(seed int64) int {
		p := newPermProblem(10, 5)
		return RunModel(context.Background(), Options{Seed: seed, MovesPerRound: 30, MaxRounds: 20}, p).Accepted
	}
	if accepted(1) == accepted(2) {
		// Not impossible, but with 600 proposals it would be a remarkable
		// coincidence; treat as a bug signal.
		t.Error("different seeds produced identical acceptance counts")
	}
}

func TestBestNeverWorseThanInitial(t *testing.T) {
	p := newPermProblem(15, 3)
	initial := p.Cost()
	res := RunModel(context.Background(), Options{Seed: 7, MovesPerRound: 10, MaxRounds: 10}, p)
	if res.BestCost > initial {
		t.Errorf("BestCost %v worse than initial %v", res.BestCost, initial)
	}
}

func TestCalibration(t *testing.T) {
	p := newPermProblem(12, 11)
	res := RunModel(context.Background(), Options{Seed: 2, MovesPerRound: 20, MaxRounds: 5}, p)
	if res.InitTemp <= 0 {
		t.Errorf("calibrated InitTemp = %v, want > 0", res.InitTemp)
	}
}

func TestExplicitTemperatureHonored(t *testing.T) {
	p := newPermProblem(12, 11)
	res := RunModel(context.Background(), Options{Seed: 2, InitialTemp: 123, MovesPerRound: 5, MaxRounds: 3}, p)
	if res.InitTemp != 123 {
		t.Errorf("InitTemp = %v, want 123", res.InitTemp)
	}
}

// flatModel has one cost everywhere and moves that change nothing.
type flatModel struct{}

func (flatModel) Cost() float64              { return 1 }
func (flatModel) Propose(*rand.Rand) float64 { return 1 }
func (flatModel) Undo()                      {}
func (flatModel) Snapshot()                  {}

func TestStallStopsEarly(t *testing.T) {
	// A flat landscape never improves; StallRounds must cut the run short.
	res := RunModel(context.Background(), Options{Seed: 1, InitialTemp: 1, MovesPerRound: 2, MaxRounds: 1000, StallRounds: 3}, flatModel{})
	if res.Rounds > 4 {
		t.Errorf("Rounds = %d, want early stall stop", res.Rounds)
	}
}

// countdown decreases its cost by one on every move.
type countdown struct{ x, old float64 }

func (c *countdown) Cost() float64 { return c.x }
func (c *countdown) Propose(*rand.Rand) float64 {
	c.old = c.x
	c.x--
	return c.x
}
func (c *countdown) Undo()     { c.x = c.old }
func (c *countdown) Snapshot() {}

func TestZeroTempOnMonotoneLandscape(t *testing.T) {
	// Monotone decreasing cost: calibration sees no uphill moves and must
	// still produce a usable (tiny) temperature.
	res := RunModel(context.Background(), Options{Seed: 1, MovesPerRound: 5, MaxRounds: 5}, &countdown{x: 1000})
	if res.BestCost >= 1000 {
		t.Errorf("BestCost = %v, want < 1000", res.BestCost)
	}
}

func TestSnapshotCalledOnImprovement(t *testing.T) {
	p := newPermProblem(8, 17)
	RunModel(context.Background(), Options{Seed: 3, MovesPerRound: 50, MaxRounds: 50}, p)
	if p.snapshots < 2 {
		t.Errorf("Snapshot calls = %d, want >= 2 (initial + improvements)", p.snapshots)
	}
}

func TestCancelStopsSchedule(t *testing.T) {
	// Cancel mid-run from a cost evaluation: the engine must stop within
	// one cancellation-check window instead of finishing the schedule.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := newPermProblem(12, 9)
	p.onEval = func(evals int) {
		if evals == 10 {
			cancel()
		}
	}
	res := RunModel(ctx, Options{Seed: 1, MovesPerRound: 64, MaxRounds: 10_000, InitialTemp: 1}, p)
	if !res.Canceled {
		t.Fatal("Canceled not set after mid-run cancellation")
	}
	if p.evals > 10+ctxCheckMoves+1 {
		t.Errorf("engine ran %d cost evals after cancellation, want <= %d", p.evals-10, ctxCheckMoves+1)
	}
}

// disciplined wraps a Model and fails the test on any Undo that does not
// revert a pending Propose: an Undo before any Propose, or a second Undo of
// the same proposal.
type disciplined struct {
	Model
	t       *testing.T
	pending bool
	undos   int
}

func (d *disciplined) Propose(rng *rand.Rand) float64 {
	d.pending = true
	return d.Model.Propose(rng)
}

func (d *disciplined) Undo() {
	if !d.pending {
		d.t.Fatalf("Undo #%d with no pending Propose", d.undos+1)
	}
	d.pending = false
	d.undos++
	d.Model.Undo()
}

// TestModelMoveDiscipline pins the contract the incremental evaluators
// rely on: each proposal is undone at most once, and only before the next
// Propose. It covers the calibration walk, the main loop and a run that
// stops mid-round on cancellation.
func TestModelMoveDiscipline(t *testing.T) {
	t.Run("calibration", func(t *testing.T) {
		// One move per round: nearly every undo comes from calibration.
		d := &disciplined{Model: newPermProblem(12, 4), t: t}
		res := RunModel(context.Background(), Options{Seed: 5, MovesPerRound: 1, MaxRounds: 1}, d)
		if res.InitTemp <= 0 || d.undos == 0 {
			t.Fatalf("calibration undid %d moves (InitTemp %v), want > 0", d.undos, res.InitTemp)
		}
	})
	t.Run("main loop", func(t *testing.T) {
		d := &disciplined{Model: newPermProblem(12, 4), t: t}
		res := RunModel(context.Background(), Options{Seed: 5, InitialTemp: 1, MovesPerRound: 64, MaxRounds: 40}, d)
		if res.Rejected == 0 || d.undos != res.Rejected {
			t.Fatalf("undos = %d, rejected = %d: want every rejection undone exactly once", d.undos, res.Rejected)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p := newPermProblem(12, 4)
		p.onEval = func(evals int) {
			if evals == 200 {
				cancel()
			}
		}
		d := &disciplined{Model: p, t: t}
		res := RunModel(ctx, Options{Seed: 5, MovesPerRound: 64, MaxRounds: 10_000}, d)
		if !res.Canceled {
			t.Fatal("Canceled not set after mid-run cancellation")
		}
	})
}

// TestRunModelAllocs: the engine's own allocations are the schedule's
// random source and do not grow with the number of moves, so a model that
// does not allocate keeps the whole anneal allocation-free per move.
func TestRunModelAllocs(t *testing.T) {
	p := newPermProblem(12, 6)
	allocs := func(moves int) float64 {
		return testing.AllocsPerRun(20, func() {
			RunModel(context.Background(), Options{Seed: 1, InitialTemp: 1, MovesPerRound: moves, MaxRounds: 1}, p)
		})
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Errorf("RunModel allocations grow with moves: %v at 10, %v at 1000", few, many)
	}
}
