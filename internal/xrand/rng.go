// Package xrand provides the pseudo-random substrate for the TBS library:
// a fast, seedable xoshiro256++ generator with SplitMix64 seeding and
// jump-ahead for statistically independent parallel streams (used by the
// distributed algorithms, following Haramoto et al. [20] in the paper), plus
// exact discrete variate generators (binomial, hypergeometric, multivariate
// hypergeometric, Poisson) and the stochastic-rounding primitive that R-TBS
// relies on (paper Section 4.1, line 16 of Algorithm 2).
//
// Everything in this package is deterministic given a seed, which makes every
// experiment in the repository reproducible.
package xrand

import "math"

// RNG is a xoshiro256++ pseudo-random number generator. It is not safe for
// concurrent use; create one RNG per goroutine, deriving independent streams
// with Split or Jump.
type RNG struct {
	s [4]uint64
	// spare holds a cached second normal variate from the polar method.
	spare    float64
	hasSpare bool
}

// New returns an RNG seeded from the given seed using SplitMix64, as
// recommended by the xoshiro authors to avoid correlated low-entropy states.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed via SplitMix64.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = mix64(sm)
	}
	r.hasSpare = false
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// mix64 is SplitMix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// jumpPoly is the xoshiro256 jump polynomial; Jump advances the state by
// 2^128 steps, yielding 2^128 non-overlapping subsequences.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator by 2^128 steps in O(1) amortized work. Calling
// Jump k times on copies of a base generator produces k streams that will not
// overlap for 2^128 outputs each.
func (r *RNG) Jump() {
	var s [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s[0] ^= r.s[0]
				s[1] ^= r.s[1]
				s[2] ^= r.s[2]
				s[3] ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = s
	r.hasSpare = false
}

// Split returns a new RNG whose stream is the current stream jumped ahead by
// 2^128, and advances r past the jump as well, so successive Split calls
// yield mutually non-overlapping generators. This is the parallel
// pseudo-random number generation technique referenced in Section 5.3.
func (r *RNG) Split() *RNG {
	child := &RNG{s: r.s}
	r.Jump()
	return child
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// StateFloat64 returns a uniform variate in [0, 1) that is a pure function
// of the generator's state: it does not advance the stream, so every call
// between two draws returns the same value. It XOR-folds the four state
// words with a domain constant and applies mix64, not xoshiro's output
// function, so it is not the value the next Float64 returns. R-TBS flips
// the partial-item coin of a realization with it (equation (2)).
func (r *RNG) StateFloat64() float64 {
	z := r.s[0] ^ r.s[1] ^ r.s[2] ^ r.s[3] ^ 0x5bd1e9955bd1e995
	return float64(mix64(z)>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in the open interval (0, 1),
// convenient when the value feeds a logarithm.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Uint64n returns a uniform integer in [0, n) using Lemire's unbiased
// multiply-shift rejection method. n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

// mul64 computes the 128-bit product of x and y.
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method with a cached spare.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// StochasticRound rounds x to ⌊x⌋ with probability ⌈x⌉−x and to ⌈x⌉ with
// probability x−⌊x⌋, so that the expectation of the result is exactly x.
// This is the StochRound routine of Algorithm 2 (line 16); R-TBS uses it to
// minimize sample-size variance (Theorem 4.4).
func (r *RNG) StochasticRound(x float64) int {
	fl := math.Floor(x)
	frac := x - fl
	n := int(fl)
	if frac > 0 && r.Float64() < frac {
		n++
	}
	return n
}
