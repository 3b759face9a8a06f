// Seed derivation: every task's RNG seed is a pure function of the base
// seed and the task's stable path (a hierarchy node id or a named stream
// — never a worker id or a completion order), so
// annealing sequences survive any refactor of task ordering. The golden
// tests in derive_test.go pin the exact values; changing this function
// changes every seeded placement and must be a deliberate decision.
package sched

// Derive mixes a base seed with a stable task path into an independent
// RNG seed. Components are folded left to right through a
// splitmix64-style finalizer, so Derive(s, a, b) == Derive(Derive(s, a), b)
// and nearby paths (sibling subtrees) get statistically unrelated
// streams.
func Derive(seed int64, path ...int64) int64 {
	h := uint64(seed)
	for _, c := range path {
		h = mix64(h + 0x9e3779b97f4a7c15 + mix64(uint64(c)))
	}
	return int64(h)
}

// mix64 is the splitmix64 output finalizer (Steele et al., "Fast
// splittable pseudorandom number generators").
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
