package core

import (
	"fmt"

	"repro/internal/xrand"
)

// RTBS is Reservoir-based Time-Biased Sampling (Algorithm 2), the paper's
// primary contribution. It maintains the invariant (equation (4))
//
//	Pr[i ∈ Sₜ] = (Cₜ / Wₜ) · wₜ(i),
//
// where wₜ(i) = exp(−λ(t − arrival(i))) is the item's decayed weight,
// Wₜ is the total decayed weight of all items seen, and Cₜ = min(n, Wₜ) is
// the sample weight. This yields exponential decay of appearance
// probabilities (property (1)) together with a hard sample-size bound n,
// for arbitrary, unknown batch-size sequences. Among all bounded
// exponential-decay schemes it maximizes the expected sample size when
// unsaturated (Theorem 4.3) and minimizes sample-size variance
// (Theorem 4.4).
type RTBS[T any] struct {
	lambda float64
	n      int
	rng    *xrand.RNG

	latent *Latent[T]
	w      float64 // total weight Wₜ
	now    float64 // time of the most recent batch

	// Scratch buffers for the saturated-case victim/insert index draws.
	// They are derived state (never serialized) and let AdvanceAt run
	// allocation-free once grown to the reservoir size.
	victimScratch []int
	insertScratch []int
}

// NewRTBS returns an R-TBS sampler with decay rate lambda (≥ 0), maximum
// sample size n (> 0), and the given random source. The sample starts empty
// at time 0; use NewRTBSFrom to start from an initial sample S₀.
func NewRTBS[T any](lambda float64, n int, rng *xrand.RNG) (*RTBS[T], error) {
	return NewRTBSFrom[T](lambda, n, nil, rng)
}

// NewRTBSFrom is NewRTBS with a nonempty initial sample S₀ (|S₀| ≤ n),
// whose items are treated as arriving at time 0 with weight 1 each.
func NewRTBSFrom[T any](lambda float64, n int, initial []T, rng *xrand.RNG) (*RTBS[T], error) {
	switch {
	case !ValidateLambda(lambda):
		return nil, fmt.Errorf("core: invalid decay rate λ = %v", lambda)
	case n <= 0:
		return nil, fmt.Errorf("core: maximum sample size must be positive, got %d", n)
	case len(initial) > n:
		return nil, fmt.Errorf("core: initial sample size %d exceeds maximum %d", len(initial), n)
	case rng == nil:
		return nil, fmt.Errorf("core: nil RNG")
	}
	return &RTBS[T]{
		lambda: lambda,
		n:      n,
		rng:    rng,
		latent: NewLatent(initial),
		w:      float64(len(initial)),
	}, nil
}

// Advance processes the batch arriving at time Now()+1.
func (s *RTBS[T]) Advance(batch []T) { s.AdvanceAt(s.now+1, batch) }

// AdvanceAt processes a batch arriving at real-valued time t > Now(),
// decaying all weights by exp(−λ(t − Now())) first. This is the real-valued
// time extension described in Section 2 of the paper.
func (s *RTBS[T]) AdvanceAt(t float64, batch []T) {
	if t <= s.now {
		panic(fmt.Sprintf("core: RTBS.AdvanceAt time %v not after current time %v", t, s.now))
	}
	d := decayFactor(s.lambda, t-s.now)
	s.now = t
	nf := float64(s.n)
	b := float64(len(batch))

	if s.w < nf {
		// Previously unsaturated: Cₜ₋₁ = Wₜ₋₁ (lines 5–12).
		s.w *= d
		if s.w > 0 && s.w < s.latent.Weight() {
			s.latent.Downsample(s.rng, s.w)
		}
		s.latent.appendFull(batch)
		s.w += b
		if s.w > nf {
			// Overshoot: bring the sample weight back down to n (line 12).
			s.latent.Downsample(s.rng, nf)
		}
		return
	}

	// Previously saturated: Cₜ₋₁ = n and π = ∅ (lines 13–20).
	s.w = s.w*d + b
	if s.w >= nf {
		// Still saturated: accept a stochastically rounded number of batch
		// items, replacing random victims (lines 15–17).
		m := s.rng.StochasticRound(b * nf / s.w)
		if m > s.n {
			m = s.n
		}
		if m > len(batch) {
			m = len(batch)
		}
		if m == 0 {
			return
		}
		victims := s.rng.SampleIndicesInto(s.victimScratch, len(s.latent.full), m)
		inserts := s.rng.SampleIndicesInto(s.insertScratch, len(batch), m)
		s.victimScratch, s.insertScratch = victims, inserts
		for i := 0; i < m; i++ {
			s.latent.full[victims[i]] = batch[inserts[i]]
		}
		return
	}
	// Undershoot: the decayed weight plus the whole batch no longer fills
	// the reservoir. Downsample the old items to their decayed weight and
	// accept every batch item as full (lines 19–20).
	s.latent.Downsample(s.rng, s.w-b)
	s.latent.appendFull(batch)
}

// Sample realizes and returns the current sample Sₜ (equation (2)). It
// changes no state, so every read and retrain until the next batch sees Sₜ.
func (s *RTBS[T]) Sample() []T { return s.latent.Realize(s.rng) }

// AppendSample realizes the current sample into a caller-owned buffer; see
// core.AppendSampler. It realizes exactly what Sample does.
//
//tbs:zeroalloc
func (s *RTBS[T]) AppendSample(dst []T) []T { return s.latent.AppendRealize(s.rng, dst) }

// Latent exposes the internal latent sample for read-only inspection
// (tests, distributed merging, and footprint accounting).
func (s *RTBS[T]) Latent() *Latent[T] { return s.latent }

// ExpectedSize returns the sample weight Cₜ = min(n, Wₜ).
func (s *RTBS[T]) ExpectedSize() float64 { return s.latent.Weight() }

// TotalWeight returns Wₜ.
func (s *RTBS[T]) TotalWeight() float64 { return s.w }

// DecayRate returns λ.
func (s *RTBS[T]) DecayRate() float64 { return s.lambda }

// MaxSize returns the hard sample-size bound n.
func (s *RTBS[T]) MaxSize() int { return s.n }

// Saturated reports whether Wₜ ≥ n, i.e. whether the reservoir is full.
func (s *RTBS[T]) Saturated() bool { return s.w >= float64(s.n) }

// Now returns the time of the most recent batch.
func (s *RTBS[T]) Now() float64 { return s.now }

// InclusionProbability returns the theoretical Pr[i ∈ Sₜ] for an item that
// arrived at time arrival ≤ Now(): (Cₜ/Wₜ)·exp(−λ(Now()−arrival))
// (equation (4)). It returns 0 when no items have arrived.
func (s *RTBS[T]) InclusionProbability(arrival float64) float64 {
	if s.w == 0 {
		return 0
	}
	return s.latent.Weight() / s.w * decayFactor(s.lambda, s.now-arrival)
}
