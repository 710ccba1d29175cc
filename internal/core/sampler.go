package core

import "math"

// Sampler is the interface shared by every sampling scheme in this package.
// Implementations are not safe for concurrent use.
type Sampler[T any] interface {
	// Advance feeds the next batch to the sampler, advancing the clock by
	// one time unit (Δ = 1). The batch may be empty. The sampler does not
	// retain the batch slice.
	Advance(batch []T)

	// Sample returns a freshly realized copy of the current sample Sₜ. It
	// changes no state, so every call between two Advance calls returns
	// the same sample. For schemes with a latent fractional state (R-TBS)
	// the partial item's coin is a function of the RNG state.
	Sample() []T

	// ExpectedSize returns E[|Sₜ|]: the sample weight Cₜ for fractional
	// schemes, or the exact current size for integral ones.
	ExpectedSize() float64
}

// AppendSampler is implemented by samplers whose realization can be
// appended into a caller-owned buffer. AppendSample(dst[:0]) realizes
// exactly what Sample returns, but reuses dst's backing array when it has
// capacity — the read-side half of the steady-state zero-allocation ingest
// path. Every scheme in this package implements it; Sample is a thin
// copying wrapper over it.
type AppendSampler[T any] interface {
	// AppendSample appends a freshly realized sample to dst and returns
	// the extended slice. Items are value copies; for reference-typed T
	// (slices, pointers) the pointees are shared with sampler storage.
	AppendSample(dst []T) []T
}

// TimedSampler is implemented by samplers that support arbitrary real-valued
// batch-arrival times (Section 2: "our results can be applied to arbitrary
// sequences of real-valued batch arrival times").
type TimedSampler[T any] interface {
	Sampler[T]

	// AdvanceAt feeds a batch arriving at time t, which must be strictly
	// greater than the previous arrival time. Weights decay by
	// exp(−λ·(t − prev)) before the batch is incorporated.
	AdvanceAt(t float64, batch []T)

	// Now returns the time of the most recent batch.
	Now() float64
}

// Weighted is implemented by the time-biased samplers, exposing the
// weight bookkeeping that the paper's analysis is phrased in.
type Weighted interface {
	// TotalWeight returns Wₜ = Σⱼ Bⱼ·exp(−λ(t−j)), the decayed weight of
	// every item seen so far.
	TotalWeight() float64

	// DecayRate returns λ.
	DecayRate() float64
}

// decayFactor returns exp(−λ·dt), clamped to [0, 1] for safety under tiny
// negative dt produced by floating-point noise.
func decayFactor(lambda, dt float64) float64 {
	f := math.Exp(-lambda * dt)
	if f > 1 {
		return 1
	}
	return f
}

// frac returns the fractional part of x.
func frac(x float64) float64 { return x - math.Floor(x) }

// ValidateLambda reports whether lambda is a usable decay rate (finite and
// nonnegative; λ = 0 degrades gracefully to no decay).
func ValidateLambda(lambda float64) bool {
	return lambda >= 0 && !math.IsInf(lambda, 1) && !math.IsNaN(lambda)
}

// LambdaForRetention returns the decay rate λ such that an item's appearance
// probability after k batches is p times its initial appearance probability.
// For example, LambdaForRetention(40, 0.10) ≈ 0.058 reproduces the paper's
// "around 10% of the data items from 40 batches ago are included" example
// (Section 1).
func LambdaForRetention(k int, p float64) float64 {
	if k <= 0 || p <= 0 || p >= 1 {
		panic("core: LambdaForRetention requires k > 0 and 0 < p < 1")
	}
	return -math.Log(p) / float64(k)
}

// LambdaForEntitySurvival returns λ such that if an entity was represented
// by n items k batches ago, at least one of those items remains in the
// sample with probability q (assuming inclusion probability 1 at arrival).
// This reproduces the paper's Section 1 example: k = 150, n = 1000, q = 0.01
// gives λ ≈ 0.077.
func LambdaForEntitySurvival(k, n int, q float64) float64 {
	if k <= 0 || n <= 0 || q <= 0 || q >= 1 {
		panic("core: LambdaForEntitySurvival requires k, n > 0 and 0 < q < 1")
	}
	return -math.Log(1-math.Pow(1-q, 1/float64(n))) / float64(k)
}
