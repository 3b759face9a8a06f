package autocluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netlist"
)

// refBuildAdj is the original map-based cluster adjacency, kept as the
// reference the CSR builder must reproduce bit for bit.
func refBuildAdj(d *netlist.Design, cellTop []int32, n int) [][]nb {
	pair := make(map[int64]float64)
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	var mem [cliqueCap]int32
	for ni := range d.Nets {
		pins := d.Nets[ni].Pins
		if len(pins) < 2 || len(pins) > largeNetThreshold {
			continue
		}
		epoch := int32(ni)
		k := 0
		ok := true
		for _, pid := range pins {
			t := cellTop[d.Pin(pid).Cell]
			if t < 0 || seen[t] == epoch {
				continue
			}
			if k == cliqueCap {
				ok = false
				break
			}
			seen[t] = epoch
			mem[k] = t
			k++
		}
		if !ok || k < 2 {
			continue
		}
		w := 1.0 / float64(k-1)
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				x, y := mem[a], mem[b]
				if x > y {
					x, y = y, x
				}
				pair[int64(x)<<32|int64(y)] += w
			}
		}
	}
	keys := make([]int64, 0, len(pair))
	for k := range pair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	adj := make([][]nb, n)
	for _, k := range keys {
		a, b, w := int32(k>>32), int32(k&0xffffffff), pair[k]
		adj[a] = append(adj[a], nb{to: b, w: w})
		adj[b] = append(adj[b], nb{to: a, w: w})
	}
	for i := range adj {
		l := adj[i]
		sort.Slice(l, func(x, y int) bool {
			if l[x].w != l[y].w {
				return l[x].w > l[y].w
			}
			return l[x].to < l[y].to
		})
	}
	return adj
}

// sameAdj reports the first difference between two adjacencies, comparing
// weights by their bits.
func sameAdj(got, want [][]nb) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for g := range want {
		if len(got[g]) != len(want[g]) {
			return fmt.Errorf("group %d: %d neighbors, want %d", g, len(got[g]), len(want[g]))
		}
		for i, e := range want[g] {
			if o := got[g][i]; o.to != e.to || math.Float64bits(o.w) != math.Float64bits(e.w) {
				return fmt.Errorf("group %d neighbor %d: got {%d %v}, want {%d %v}", g, i, o.to, o.w, e.to, e.w)
			}
		}
	}
	return nil
}

// capDesign has nets exactly at and just over the pin and group caps: 64-
// and 65-pin nets over cells 0..64, and nets over cells 0..15 and 0..16,
// which touch 16 and 17 groups under the identity grouping.
func capDesign(t *testing.T) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("caps")
	cells := make([]netlist.CellID, 80)
	for i := range cells {
		cells[i] = b.AddComb(fmt.Sprintf("u%d", i), 3000, "")
	}
	b.Wire("pins64", cells[0], cells[1:64]...)
	b.Wire("pins65", cells[0], cells[1:65]...)
	b.Wire("grp16", cells[20], cells[21:36]...)
	b.Wire("grp17", cells[40], cells[41:58]...)
	b.Wire("dup", cells[70], cells[71], cells[71], cells[72])
	b.Wire("lone", cells[79])
	p := b.AddPort("in")
	b.Wire("port", p, cells[60], cells[61])
	return b.MustBuild()
}

// randDesign has random nets of 1 to 80 pins, mostly small, over 3000
// cells.
func randDesign(rng *rand.Rand) *netlist.Design {
	b := netlist.NewBuilder("rand")
	cells := make([]netlist.CellID, 3000)
	for i := range cells {
		cells[i] = b.AddComb(fmt.Sprintf("u%d", i), 3000, "")
	}
	sinks := make([]netlist.CellID, 0, 80)
	for ni := 0; ni < 5000; ni++ {
		fan := 1 + rng.Intn(4)
		if rng.Intn(10) == 0 {
			fan = rng.Intn(80)
		}
		sinks = sinks[:0]
		for k := 0; k < fan; k++ {
			sinks = append(sinks, cells[rng.Intn(len(cells))])
		}
		b.Wire(fmt.Sprintf("n%d", ni), cells[rng.Intn(len(cells))], sinks...)
	}
	return b.MustBuild()
}

func TestBuildAdjMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []*netlist.Design{capDesign(t), randDesign(rng)} {
		a := adjBuilder{d: d} // one builder across groupings, as in a pass
		check := func(name string, cellTop []int32, n int) {
			t.Helper()
			if err := sameAdj(a.build(cellTop, n), refBuildAdj(d, cellTop, n)); err != nil {
				t.Errorf("%s/%s: %v", d.Name, name, err)
			}
		}
		cellTop := make([]int32, len(d.Cells))
		for _, mod := range []int{16, 17, len(d.Cells)} {
			for i := range cellTop {
				cellTop[i] = int32(i % mod)
			}
			check(fmt.Sprintf("mod%d", mod), cellTop, mod)
		}
		for _, n := range []int{5000, 1, 2, 7, 16, 17, 60, 500} {
			for i := range cellTop {
				if rng.Intn(20) == 0 {
					cellTop[i] = -1
				} else {
					cellTop[i] = int32(rng.Intn(n))
				}
			}
			check(fmt.Sprintf("rand%d", n), cellTop, n)
		}
	}
}
