package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// estimateRef is the straightforward form of Estimate: it rebuilds every
// gcell's rectangle and clips both axes against a net's box per gcell.
// TestEstimateMatchesRef requires Estimate to reproduce it bit for bit.
func estimateRef(pl *placement.Placement, opt Options) *Result {
	if opt.GcellBins <= 0 {
		opt = DefaultOptions()
	}
	d := pl.D
	n := opt.GcellBins
	res := &Result{Bins: n, Demand: make([]float64, n*n), Capacity: make([]float64, n*n)}
	die := d.Die
	binW := float64(die.W) / float64(n)
	binH := float64(die.H) / float64(n)
	var macroRects []geom.Rect
	for _, m := range d.Macros() {
		if pl.Placed[m] {
			macroRects = append(macroRects, pl.Rect(m))
		}
	}
	for by := 0; by < n; by++ {
		for bx := 0; bx < n; bx++ {
			r := binRectRef(die, n, bx, by)
			full := opt.SupplyPerDBU2 * float64(r.Area())
			var blocked int64
			for _, mr := range macroRects {
				blocked += r.Intersect(mr).Area()
			}
			frac := 0.0
			if a := r.Area(); a > 0 {
				frac = float64(blocked) / float64(a)
			}
			res.Capacity[by*n+bx] = full * (1 - frac + frac*opt.MacroDerate)
		}
	}
	for i := range d.Nets {
		bbox, pins := netBBox(pl, netlist.NetID(i))
		if pins < 2 {
			continue
		}
		w := float64(bbox.W) + binW
		h := float64(bbox.H) + binH
		density := (w + h) / (w * h)
		x0, y0 := binIndex(die, n, bbox.X, bbox.Y)
		x1, y1 := binIndex(die, n, bbox.X2(), bbox.Y2())
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				r := binRectRef(die, n, bx, by)
				ov := overlap1D(float64(r.X), float64(r.X2()), float64(bbox.X)-binW/2, float64(bbox.X2())+binW/2) *
					overlap1D(float64(r.Y), float64(r.Y2()), float64(bbox.Y)-binH/2, float64(bbox.Y2())+binH/2)
				if ov > 0 {
					res.Demand[by*n+bx] += density * ov
				}
			}
		}
	}
	over := 0
	for i := range res.Demand {
		res.TotalDemand += res.Demand[i]
		if res.Capacity[i] > 0 {
			ratio := res.Demand[i] / res.Capacity[i]
			if ratio > res.WorstRatio {
				res.WorstRatio = ratio
			}
			if ratio > 1 {
				over++
			}
		}
	}
	res.OverflowPct = 100 * float64(over) / float64(len(res.Demand))
	return res
}

func binRectRef(die geom.Rect, n, bx, by int) geom.Rect {
	x0 := die.X + die.W*int64(bx)/int64(n)
	x1 := die.X + die.W*int64(bx+1)/int64(n)
	y0 := die.Y + die.H*int64(by)/int64(n)
	y1 := die.Y + die.H*int64(by+1)/int64(n)
	return geom.RectXYWH(x0, y0, x1-x0, y1-y0)
}

// randomCongestionCase places a design on a die with a random origin and an
// extent not divisible by bins: macros (some left unplaced) and cells wired
// by nets of one to eight pins. Each cell sits in a shared local cluster
// smaller than a gcell, just outside one of two opposite die corners, or
// anywhere on the die, so nets range from single-gcell to die-spanning.
func randomCongestionCase(rng *rand.Rand, bins int) *placement.Placement {
	b := netlist.NewBuilder("congestion")
	w, h := 1_000+rng.Int63n(500_000), 1_000+rng.Int63n(500_000)
	if bins > 1 && w%int64(bins) == 0 {
		w++
	}
	if bins > 1 && h%int64(bins) == 0 {
		h++
	}
	die := geom.RectXYWH(rng.Int63n(2_000_001)-1_000_000, rng.Int63n(2_000_001)-1_000_000, w, h)
	b.SetDie(die)
	var macros, cells []netlist.CellID
	for i, n := 0, rng.Intn(5); i < n; i++ {
		macros = append(macros, b.AddMacro(fmt.Sprintf("m%d", i), 1+rng.Int63n(die.W/3), 1+rng.Int63n(die.H/3), ""))
	}
	for i, n := 0, 2+rng.Intn(200); i < n; i++ {
		cells = append(cells, b.AddComb(fmt.Sprintf("c%d", i), 100+rng.Int63n(10_000), ""))
	}
	all := append(slices.Clone(macros), cells...)
	for i, n := 0, rng.Intn(300); i < n; i++ {
		net := b.Net(fmt.Sprintf("n%d", i))
		for j, pins := 0, 1+rng.Intn(8); j < pins; j++ {
			b.Connect(all[rng.Intn(len(all))], net, netlist.DirIn)
		}
	}
	d := b.MustBuild()
	pl := placement.New(d)
	for _, m := range macros {
		if rng.Intn(4) != 0 {
			pl.Place(m, geom.Pt(die.X+rng.Int63n(die.W), die.Y+rng.Int63n(die.H)))
		}
	}
	local := geom.Pt(die.X+rng.Int63n(die.W), die.Y+rng.Int63n(die.H))
	spanX, spanY := die.W/int64(4*bins)+1, die.H/int64(4*bins)+1
	for _, id := range cells {
		var p geom.Point
		switch rng.Intn(4) {
		case 0:
			p = local.Add(geom.Pt(rng.Int63n(spanX), rng.Int63n(spanY)))
		case 1:
			p = geom.Pt(die.X-rng.Int63n(1000), die.Y-rng.Int63n(1000))
		case 2:
			p = geom.Pt(die.X2()+rng.Int63n(1000), die.Y2()+rng.Int63n(1000))
		default:
			p = geom.Pt(die.X+rng.Int63n(die.W), die.Y+rng.Int63n(die.H))
		}
		pl.Place(id, p)
	}
	return pl
}

// TestEstimateMatchesRef requires Estimate and estimateRef to agree bit for
// bit on seeded random placements at 1–64 gcells per axis and the default
// 32, and checks that the seeds cover single-gcell and die-spanning nets.
func TestEstimateMatchesRef(t *testing.T) {
	var single, spanning int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := DefaultOptions()
		if seed%3 != 0 {
			opt.GcellBins = 1 + rng.Intn(64)
		}
		pl := randomCongestionCase(rng, opt.GcellBins)
		got, want := Estimate(pl, opt), estimateRef(pl, opt)
		if !slices.Equal(got.Demand, want.Demand) || !slices.Equal(got.Capacity, want.Capacity) ||
			got.OverflowPct != want.OverflowPct || got.WorstRatio != want.WorstRatio ||
			got.TotalDemand != want.TotalDemand || got.Bins != want.Bins {
			t.Fatalf("seed %d (%d gcells, die %v): Estimate differs from estimateRef", seed, opt.GcellBins, pl.D.Die)
		}
		for i := range pl.D.Nets {
			bbox, pins := netBBox(pl, netlist.NetID(i))
			if pins < 2 {
				continue
			}
			n := opt.GcellBins
			x0, y0 := binIndex(pl.D.Die, n, bbox.X, bbox.Y)
			x1, y1 := binIndex(pl.D.Die, n, bbox.X2(), bbox.Y2())
			if n > 1 && x0 == x1 && y0 == y1 {
				single++
			}
			if x0 == 0 && y0 == 0 && x1 == n-1 && y1 == n-1 && !pl.D.Die.ContainsRect(bbox) {
				spanning++
			}
		}
	}
	t.Logf("%d single-gcell nets, %d die-spanning nets", single, spanning)
	if single == 0 || spanning == 0 {
		t.Fatalf("cases lack single-gcell (%d) or die-spanning (%d) nets", single, spanning)
	}
}
