// Package anneal provides the deterministic simulated-annealing engine
// shared by shape-curve generation, layout generation and the baseline
// floorplanners' refinement. The engine is state-agnostic: the caller owns
// the state and exposes it through the Model interface (propose → cost →
// accept or undo), and RunModel sequences the moves. All randomness comes
// from a caller-seeded source, so every run is reproducible.
package anneal

import (
	"context"
	"math"
	"math/rand"
)

// Options tunes the annealing schedule.
type Options struct {
	// Seed initializes the random source. Equal seeds give equal runs.
	Seed int64
	// InitialTemp is the starting temperature; if 0 it is calibrated from a
	// short random walk so that 85% of uphill moves pass. The schedule
	// stops once it has cooled to 1e-4 × the initial temperature.
	InitialTemp float64
	// Alpha is the geometric cooling factor per round (default 0.92).
	Alpha float64
	// MovesPerRound is the number of proposed moves per temperature step
	// (default 64).
	MovesPerRound int
	// MaxRounds caps the schedule length (default 200).
	MaxRounds int
	// StallRounds stops early after this many rounds without a new best
	// (default 0: disabled).
	StallRounds int
}

const (
	// initialAcceptance is the uphill acceptance calibration targets.
	initialAcceptance = 0.85
	// finalTempRatio stops the schedule once the temperature has cooled
	// to this fraction of the initial one.
	finalTempRatio = 1e-4
)

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.92
	}
	if o.MovesPerRound <= 0 {
		o.MovesPerRound = 64
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 200
	}
	return o
}

// Result reports what the run did.
type Result struct {
	BestCost  float64
	Accepted  int
	Rejected  int
	Rounds    int
	InitTemp  float64
	FinalTemp float64
	// Canceled is set when the run stopped early because ctx was done. The
	// best snapshot taken so far is still valid.
	Canceled bool
}

// Model is the delta-aware annealing interface. The caller owns the state;
// the engine only sequences moves:
//
//   - Cost returns the objective of the current state. It is called at the
//     start of a run (and once more after calibration) and must agree bit
//     for bit with the values Propose maintains incrementally — a full
//     recompute re-synchronizing any cached partial sums is the usual
//     implementation.
//   - Propose applies one random move and returns the resulting cost. A
//     delta-aware model updates only the cost terms the move touched.
//   - Undo reverts the last proposal. The engine guarantees a strict move
//     discipline, in the main loop and in the calibration walk alike: Undo
//     is invoked at most once per proposal, always before the next Propose,
//     or not at all. Incremental evaluators depend on this to keep a
//     single-move undo journal instead of full snapshots.
//   - Snapshot is invoked whenever the current state improves on the best
//     seen so far, so the model can record it. The engine never restores
//     state itself: when the run ends the model's state is whatever the
//     walk last accepted, and the snapshot holds the best.
type Model interface {
	Cost() float64
	Propose(rng *rand.Rand) float64
	Undo()
	Snapshot()
}

// ctxCheckMoves bounds how many moves run between cancellation checks, so a
// cancelled context stops a schedule within a fraction of one round.
const ctxCheckMoves = 16

// RunModel minimizes a Model's objective under the configured schedule.
// Cancelling ctx stops the schedule within a few moves; the caller should
// propagate ctx.Err() after checking Result.Canceled.
//
//hidapvet:hotpath
func RunModel(ctx context.Context, opt Options, m Model) Result {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed)) //hidapvet:allow allocfree one RNG per schedule, constructed before the move loop; the loop itself is the hot path

	cur := m.Cost()
	best := cur
	m.Snapshot()

	temp := opt.InitialTemp
	if temp <= 0 {
		temp = calibrate(rng, m)
		cur = m.Cost() // calibration leaves the state perturbed; re-read
		if cur < best {
			best = cur
			m.Snapshot()
		}
	}
	finalTemp := temp * finalTempRatio

	res := Result{InitTemp: temp}
	stall := 0
	for round := 0; round < opt.MaxRounds && temp > finalTemp; round++ {
		res.Rounds++
		improvedThisRound := false
		for mv := 0; mv < opt.MovesPerRound; mv++ {
			if mv%ctxCheckMoves == 0 && ctx.Err() != nil {
				res.Canceled = true
				res.BestCost = best
				res.FinalTemp = temp
				return res
			}
			next := m.Propose(rng)
			delta := next - cur
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cur = next
				res.Accepted++
				if cur < best {
					best = cur
					improvedThisRound = true
					m.Snapshot()
				}
			} else {
				m.Undo()
				res.Rejected++
			}
		}
		if improvedThisRound {
			stall = 0
		} else if stall++; opt.StallRounds > 0 && stall >= opt.StallRounds {
			break
		}
		temp *= opt.Alpha
	}
	res.BestCost = best
	res.FinalTemp = temp
	return res
}

// calibrate estimates an initial temperature from the uphill deltas of a
// short random walk: T0 = mean(Δ⁺) / ln(1/p0).
func calibrate(rng *rand.Rand, m Model) float64 {
	const samples = 32
	cur := m.Cost()
	var upSum float64
	upCount := 0
	for i := 0; i < samples; i++ {
		next := m.Propose(rng)
		if d := next - cur; d > 0 {
			upSum += d
			upCount++
			m.Undo()
		} else {
			cur = next // keep downhill moves; they cost nothing
		}
	}
	if upCount == 0 {
		// Flat or monotone landscape; any small positive temperature works.
		return 1e-6
	}
	return (upSum / float64(upCount)) / math.Log(1/initialAcceptance)
}
