package tbs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Sampler is the unified interface over every sampling scheme. A Sampler
// consumes a stream of batches arriving at times t = 1, 2, … and maintains
// a sample of the items seen so far. Implementations returned by New are
// not safe for concurrent use; see NewConcurrent.
type Sampler[T any] interface {
	// Advance feeds the next batch, advancing the clock by one time unit.
	// The batch may be empty and is not retained.
	Advance(batch []T)

	// Sample returns a freshly realized copy of the current sample. It
	// changes no state: every call between two Advance calls returns the
	// same sample. Concurrent shares its read lock on that guarantee, for
	// every implementation.
	Sample() []T

	// ExpectedSize returns E[|Sₜ|]: the sample weight for fractional
	// schemes, the exact current size for integral ones.
	ExpectedSize() float64

	// Scheme returns the canonical registry name of the scheme.
	Scheme() string

	// Snapshot captures the sampler's complete state — including its RNG —
	// in the unified checkpoint envelope. Restore continues the identical
	// stochastic process.
	Snapshot() (Snapshot, error)
}

// extended is the internal capability surface behind the Weight, AdvanceAt,
// Now and AppendSample helpers. Both the scheme wrapper and Concurrent
// implement it.
type extended[T any] interface {
	Sampler[T]
	weightCap() (total, lambda float64, ok bool)
	advanceAtCap(t float64, batch []T) bool
	nowCap() (float64, bool)
	inclusionCap(arrival float64) (float64, bool)
	appendSampleCap(dst []T) ([]T, bool)
}

// wrapper adapts one concrete internal sampler to the Sampler interface.
type wrapper[T any] struct {
	inner  core.Sampler[T]
	scheme string
	snap   func() (Snapshot, error)
	weight func() (total, lambda float64) // nil when the scheme tracks no weights
	timed  core.TimedSampler[T]           // nil when real-valued times are unsupported
	incl   func(arrival float64) float64  // nil unless the scheme has exact inclusion probabilities
}

func (w *wrapper[T]) Advance(batch []T)           { w.inner.Advance(batch) }
func (w *wrapper[T]) Sample() []T                 { return w.inner.Sample() }
func (w *wrapper[T]) ExpectedSize() float64       { return w.inner.ExpectedSize() }
func (w *wrapper[T]) Scheme() string              { return w.scheme }
func (w *wrapper[T]) Snapshot() (Snapshot, error) { return w.snap() }

func (w *wrapper[T]) weightCap() (float64, float64, bool) {
	if w.weight == nil {
		return 0, 0, false
	}
	total, lambda := w.weight()
	return total, lambda, true
}

func (w *wrapper[T]) advanceAtCap(t float64, batch []T) bool {
	if w.timed == nil {
		return false
	}
	w.timed.AdvanceAt(t, batch)
	return true
}

func (w *wrapper[T]) nowCap() (float64, bool) {
	if w.timed == nil {
		return 0, false
	}
	return w.timed.Now(), true
}

func (w *wrapper[T]) inclusionCap(arrival float64) (float64, bool) {
	if w.incl == nil {
		return 0, false
	}
	return w.incl(arrival), true
}

func (w *wrapper[T]) appendSampleCap(dst []T) ([]T, bool) {
	if a, ok := w.inner.(core.AppendSampler[T]); ok {
		return a.AppendSample(dst), true
	}
	return dst, false
}

// Weight returns the scheme's weight bookkeeping — the total decayed weight
// Wₜ of every item seen and the decay rate λ — when the scheme tracks it
// (R-TBS, T-TBS, B-TBS, B-Chao); ok is false otherwise.
func Weight[T any](s Sampler[T]) (total, lambda float64, ok bool) {
	if e, isExt := s.(extended[T]); isExt {
		return e.weightCap()
	}
	return 0, 0, false
}

// AdvanceAt feeds a batch arriving at real-valued time t, which must be
// strictly greater than the previous arrival time. It returns an error for
// schemes that only support unit time steps (brs, window). Like
// Sampler.Advance, it panics if t is not after the current time.
func AdvanceAt[T any](s Sampler[T], t float64, batch []T) error {
	if e, isExt := s.(extended[T]); isExt && e.advanceAtCap(t, batch) {
		return nil
	}
	return fmt.Errorf("tbs: scheme %q does not support real-valued batch times", s.Scheme())
}

// Now returns the time of the most recent batch for schemes that track
// real-valued time; ok is false otherwise.
func Now[T any](s Sampler[T]) (t float64, ok bool) {
	if e, isExt := s.(extended[T]); isExt {
		return e.nowCap()
	}
	return 0, false
}

// InclusionProbability returns the theoretical Pr[i ∈ Sₜ] for an item that
// arrived at time arrival ≤ Now() — equation (4) of the paper,
// (Cₜ/Wₜ)·exp(−λ·age) — for schemes with exact inclusion probabilities
// (currently R-TBS); ok is false otherwise.
func InclusionProbability[T any](s Sampler[T], arrival float64) (p float64, ok bool) {
	if e, isExt := s.(extended[T]); isExt {
		return e.inclusionCap(arrival)
	}
	return 0, false
}

// AppendSample realizes the current sample into a caller-owned buffer: the
// realization is appended to dst and the extended slice returned, reusing
// dst's backing array when it has capacity. A caller that feeds the result
// back in (buf = tbs.AppendSample(s, buf[:0])) samples without allocating
// in steady state — the read side of the zero-allocation ingest path. It
// realizes exactly what Sample returns, and like Sample it changes no
// state. Samplers from New always
// support the append path; for foreign Sampler implementations that do
// not, it falls back to appending a Sample() copy.
func AppendSample[T any](s Sampler[T], dst []T) []T {
	if e, isExt := s.(extended[T]); isExt {
		if out, ok := e.appendSampleCap(dst); ok {
			return out
		}
	}
	return append(dst, s.Sample()...)
}

// New constructs a sampler by scheme name (see Schemes for discovery):
//
//	s, err := tbs.New[string]("rtbs", tbs.Lambda(0.07), tbs.MaxSize(1000), tbs.Seed(1))
//
// Every option the scheme lists as required must be supplied; passing an
// option the scheme does not accept is an error. The RNG seed defaults
// to 1.
func New[T any](scheme string, opts ...Option) (Sampler[T], error) {
	info, err := Lookup(scheme)
	if err != nil {
		return nil, err
	}
	cfg := config{seed: 1}
	set := make(map[string]bool, len(opts))
	for _, o := range opts {
		if o.apply == nil {
			return nil, fmt.Errorf("tbs: zero-value Option")
		}
		if !info.Accepts(o.name) {
			return nil, fmt.Errorf("tbs: scheme %q does not accept option %s", info.Name, o.name)
		}
		if err := o.apply(&cfg); err != nil {
			return nil, fmt.Errorf("tbs: %s: %w", info.Name, err)
		}
		set[o.name] = true
	}
	for _, req := range info.Required {
		if !set[req] {
			return nil, fmt.Errorf("tbs: scheme %q requires option %s", info.Name, req)
		}
	}
	return build[T](info.Name, cfg)
}

// build instantiates the named scheme. Restore goes through the matching
// wrap* helpers so constructed and restored samplers are indistinguishable.
func build[T any](name string, cfg config) (Sampler[T], error) {
	rng := xrand.New(cfg.seed)
	switch name {
	case "rtbs":
		u, err := core.NewRTBS[T](cfg.lambda, cfg.maxSize, rng)
		if err != nil {
			return nil, err
		}
		return wrapRTBS(u), nil
	case "ttbs":
		u, err := core.NewTTBS[T](cfg.lambda, cfg.maxSize, cfg.meanBatch, rng)
		if err != nil {
			return nil, err
		}
		return wrapTTBS(u), nil
	case "btbs":
		u, err := core.NewBTBS[T](cfg.lambda, rng)
		if err != nil {
			return nil, err
		}
		return wrapBTBS(u), nil
	case "brs":
		u, err := core.NewBRS[T](cfg.maxSize, rng)
		if err != nil {
			return nil, err
		}
		return wrapBRS(u), nil
	case "bchao":
		u, err := core.NewBChao[T](cfg.lambda, cfg.maxSize, rng)
		if err != nil {
			return nil, err
		}
		return wrapBChao(u), nil
	case "ares":
		u, err := core.NewARes[T](cfg.lambda, cfg.maxSize, rng)
		if err != nil {
			return nil, err
		}
		return wrapARes(u), nil
	case "window":
		u, err := core.NewSlidingWindow[T](cfg.maxSize)
		if err != nil {
			return nil, err
		}
		return wrapWindow(u), nil
	case "timewindow":
		u, err := core.NewTimeWindow[T](cfg.horizon)
		if err != nil {
			return nil, err
		}
		return wrapTimeWindow(u), nil
	case "ptwindow":
		u, err := core.NewPriorityTimeWindow[T](cfg.horizon, cfg.maxSize, rng)
		if err != nil {
			return nil, err
		}
		return wrapPTWindow(u), nil
	}
	return nil, fmt.Errorf("tbs: scheme %q registered but not buildable", name)
}

func wrapRTBS[T any](u *core.RTBS[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "rtbs",
		snap:   func() (Snapshot, error) { return encodeState("rtbs", u.Snapshot()) },
		weight: func() (float64, float64) { return u.TotalWeight(), u.DecayRate() },
		timed:  u,
		incl:   u.InclusionProbability,
	}
}

func wrapTTBS[T any](u *core.TTBS[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "ttbs",
		snap:   func() (Snapshot, error) { return encodeState("ttbs", u.Snapshot()) },
		weight: func() (float64, float64) { return u.TotalWeight(), u.DecayRate() },
		timed:  u,
	}
}

func wrapBTBS[T any](u *core.BTBS[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "btbs",
		snap:   func() (Snapshot, error) { return encodeState("btbs", u.Snapshot()) },
		weight: func() (float64, float64) { return u.TotalWeight(), u.DecayRate() },
		timed:  u,
	}
}

func wrapBRS[T any](u *core.BRS[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "brs",
		snap:   func() (Snapshot, error) { return encodeState("brs", u.Snapshot()) },
	}
}

func wrapBChao[T any](u *core.BChao[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "bchao",
		snap:   func() (Snapshot, error) { return encodeState("bchao", u.Snapshot()) },
		weight: func() (float64, float64) { return u.TotalWeight(), u.DecayRate() },
		timed:  u,
	}
}

func wrapARes[T any](u *core.ARes[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "ares",
		snap:   func() (Snapshot, error) { return encodeState("ares", u.Snapshot()) },
		timed:  u,
	}
}

func wrapWindow[T any](u *core.SlidingWindow[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "window",
		snap:   func() (Snapshot, error) { return encodeState("window", u.Snapshot()) },
	}
}

func wrapTimeWindow[T any](u *core.TimeWindow[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "timewindow",
		snap:   func() (Snapshot, error) { return encodeState("timewindow", u.Snapshot()) },
		timed:  u,
	}
}

func wrapPTWindow[T any](u *core.PriorityTimeWindow[T]) Sampler[T] {
	return &wrapper[T]{
		inner:  u,
		scheme: "ptwindow",
		snap:   func() (Snapshot, error) { return encodeState("ptwindow", u.Snapshot()) },
		timed:  u,
	}
}
