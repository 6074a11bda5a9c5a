// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator and the graph generators.
//
// The simulator must be bit-for-bit reproducible across runs and Go
// versions, so it cannot depend on math/rand's unspecified algorithm
// evolution. SplitMix64 seeds Xoshiro256** state; Xoshiro256** generates
// the stream. Both are public-domain algorithms (Blackman & Vigna).
package rng

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via SplitMix64, so
// that nearby seeds produce decorrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success.
// Used by the graph generators to draw power-law-ish degree tails.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p >= 1 {
		panic("rng: Geometric requires 0 < p < 1")
	}
	n := 0
	for r.Float64() >= p {
		n++
		if n > 1<<24 { // defensive cap; p is never small enough to hit this
			break
		}
	}
	return n
}
