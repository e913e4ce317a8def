// Package rng provides a small deterministic pseudo-random number generator
// used by every stochastic algorithm in fold3d (netlist generation,
// placement, folding, FM tie-breaking). Using one splittable generator keeps every
// experiment bit-reproducible across runs and platforms, which the experiment
// harness relies on when comparing design styles.
package rng

import "math"

// R is a splitmix64-based generator. The zero value is NOT valid; use New.
type R struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *R {
	// Avoid the all-zeros fixed point of the mixing function.
	return &R{state: seed*0x9E3779B97F4A7C15 + 0x1234567887654321}
}

// Split derives an independent generator from r, keyed by tag. Two splits
// with different tags produce uncorrelated streams, so subsystems can draw
// randomness without perturbing each other's sequences.
func (r *R) Split(tag string) *R {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *R) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *R) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *R) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *R) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation (Box-Muller).
func (r *R) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *R) Perm(n int) []int {
	return r.PermInto(make([]int, 0, n), n)
}

// PermInto appends a random permutation of [0, n) to p and returns it,
// reusing p's capacity. It consumes exactly the same draws as Perm, so the
// two are interchangeable without perturbing downstream randomness.
func (r *R) PermInto(p []int, n int) []int {
	base := len(p)
	for i := 0; i < n; i++ {
		p = append(p, i)
	}
	q := p[base:]
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		q[i], q[j] = q[j], q[i]
	}
	return p
}

// Shuffle permutes the order of n elements using swap.
func (r *R) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *R) Bool(p float64) bool { return r.Float64() < p }
