// Package manage implements the online model-management loop that
// motivates the paper: maintain a temporally-biased sample, monitor the
// deployed model's error on each incoming batch, and retrain the model
// from the current sample according to a policy. The paper treats "when to
// retrain" as an orthogonal problem (Section 1, citing the concept-drift
// survey [17] and the Velox system [14]); this package provides the three
// standard policies — always, every k batches, and drift-triggered — so the
// samplers can be used end-to-end.
package manage

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// Trainer builds a model from the current sample. It is called only with a
// nonempty sample.
type Trainer[T, M any] func(sample []T) (M, error)

// Evaluator scores a model on an incoming batch, returning an error
// measure (e.g. misclassification percentage) where larger means worse.
type Evaluator[T, M any] func(model M, batch []T) float64

// Policy decides, after the model has been scored on a batch, whether to
// retrain. Implementations may be stateful.
type Policy interface {
	// ShouldRetrain receives the batch index (1-based) and the model's
	// error on that batch (NaN when no score was possible) and reports
	// whether to retrain now.
	ShouldRetrain(t int, err float64) bool
}

// PolicyState is the serializable observation state of a retraining
// policy: the trailing error window and the quiet-batch counter. Always
// and Every are pure functions of the batch index and carry none; OnDrift
// exports and re-imports its detector state through it, which is what lets
// a server checkpoint a drift detector mid-stream and restore the exact
// decision process after a restart.
type PolicyState struct {
	Hist  []float64 `json:"hist,omitempty"`
	Quiet int       `json:"quiet,omitempty"`
}

// StatefulPolicy is implemented by policies whose decisions depend on
// accumulated observations. State must capture everything ShouldRetrain
// consults beyond its arguments, and SetState must restore it, so that
// State→SetState round-trips continue the identical decision sequence.
type StatefulPolicy interface {
	Policy
	State() PolicyState
	SetState(PolicyState)
}

// Always retrains after every batch — maximally adaptive, maximally
// expensive.
type Always struct{}

// ShouldRetrain implements Policy.
func (Always) ShouldRetrain(int, float64) bool { return true }

// Every retrains once every K batches.
type Every struct{ K int }

// ShouldRetrain implements Policy.
func (e Every) ShouldRetrain(t int, _ float64) bool {
	if e.K <= 1 {
		return true
	}
	return t%e.K == 0
}

// OnDrift retrains when the latest error exceeds the trailing window's
// mean by Factor standard deviations — a light-weight drift detector in
// the spirit of DDM (the concept-drift literature the paper cites). It
// also retrains unconditionally every MaxStale batches as a safety net.
type OnDrift struct {
	Window   int     // trailing errors considered (default 10)
	Factor   float64 // trigger threshold in standard deviations (default 2)
	MinObs   int     // observations required before triggering (default 3)
	MaxStale int     // force retrain after this many quiet batches (default 0 = never)

	hist  []float64
	quiet int
}

// Validate rejects configurations that would silently misbehave — most
// importantly a negative Factor, which would put the trigger threshold
// *below* the trailing mean and fire a retrain on nearly every batch.
// Manager constructors call this; Factor = 0 still means "default".
func (d *OnDrift) Validate() error {
	switch {
	case d.Factor < 0:
		return fmt.Errorf("manage: OnDrift.Factor must be nonnegative, got %v", d.Factor)
	case math.IsNaN(d.Factor):
		return fmt.Errorf("manage: OnDrift.Factor must not be NaN")
	case d.Window < 0:
		return fmt.Errorf("manage: OnDrift.Window must be nonnegative, got %d", d.Window)
	case d.MinObs < 0:
		return fmt.Errorf("manage: OnDrift.MinObs must be nonnegative, got %d", d.MinObs)
	case d.MaxStale < 0:
		return fmt.Errorf("manage: OnDrift.MaxStale must be nonnegative, got %d", d.MaxStale)
	}
	return nil
}

// ShouldRetrain implements Policy.
func (d *OnDrift) ShouldRetrain(_ int, err float64) bool {
	window := d.Window
	if window <= 0 {
		window = 10
	}
	factor := d.Factor
	if factor <= 0 || math.IsNaN(factor) {
		// 0 selects the default; negative/NaN values are rejected by
		// Validate, and clamped to the default here for callers that use
		// the policy standalone.
		factor = 2
	}
	minObs := d.MinObs
	if minObs <= 0 {
		minObs = 3
	}
	defer func() {
		if !math.IsNaN(err) {
			d.hist = append(d.hist, err)
			if len(d.hist) > window {
				d.hist = d.hist[len(d.hist)-window:]
			}
		}
	}()
	d.quiet++
	if d.MaxStale > 0 && d.quiet >= d.MaxStale {
		d.reset()
		return true
	}
	if math.IsNaN(err) || len(d.hist) < minObs {
		return false
	}
	mean, sd := meanStd(d.hist)
	if err > mean+factor*sd+1e-12 {
		d.reset()
		return true
	}
	return false
}

// reset clears the detector after a retrain so the new model gets a fresh
// baseline.
func (d *OnDrift) reset() {
	d.hist = d.hist[:0]
	d.quiet = 0
}

// State implements StatefulPolicy: it returns a copy of the detector's
// trailing error window and quiet counter.
func (d *OnDrift) State() PolicyState {
	return PolicyState{Hist: append([]float64(nil), d.hist...), Quiet: d.quiet}
}

// SetState implements StatefulPolicy, replacing the detector state with a
// copy of st.
func (d *OnDrift) SetState(st PolicyState) {
	d.hist = append(d.hist[:0], st.Hist...)
	d.quiet = st.Quiet
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	if len(xs) > 1 {
		v /= float64(len(xs) - 1)
	}
	return m, math.Sqrt(v)
}

// Manager runs the predict→sample→maybe-retrain loop over a batch stream.
// Step takes one batch through three phases: Score, Fold and Deploy. A
// caller that fits models off its ingest path, as tbsd does on a
// background worker, runs the phases apart, in that order, and fits the
// sample that Fold returns itself. Model may be called at any time, also
// while Deploy runs; the other methods must not run concurrently.
type Manager[T, M any] struct {
	sampler core.Sampler[T]
	train   Trainer[T, M]
	eval    Evaluator[T, M]
	policy  Policy

	model    atomic.Pointer[M] // nil until the first successful fit
	retrains int
	t        int
}

// New returns a Manager wiring a sampler, a trainer, an evaluator, and a
// retraining policy together.
func New[T, M any](sampler core.Sampler[T], train Trainer[T, M], eval Evaluator[T, M], policy Policy) (*Manager[T, M], error) {
	if sampler == nil || train == nil || eval == nil || policy == nil {
		return nil, fmt.Errorf("manage: nil component")
	}
	if v, ok := policy.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	return &Manager[T, M]{sampler: sampler, train: train, eval: eval, policy: policy}, nil
}

// Step processes one incoming batch: it scores the deployed model on the
// batch (returning that error, or NaN if no model exists yet or the batch
// is empty), folds the batch into the sample, and retrains if the policy
// fires (or if no model exists and data is available). Training errors are
// returned; a failed training keeps the previous model deployed.
func (m *Manager[T, M]) Step(batch []T) (float64, error) {
	err := m.Score(batch)
	if sample := m.Fold(batch, err); sample != nil {
		model, terr := m.train(sample)
		if derr := m.Deploy(model, terr); derr != nil {
			return err, derr
		}
	}
	return err, nil
}

// Score returns the deployed model's error on batch, or NaN when no model
// exists yet or the batch is empty.
func (m *Manager[T, M]) Score(batch []T) float64 {
	if p := m.model.Load(); p != nil && len(batch) > 0 {
		return m.eval(*p, batch)
	}
	return math.NaN()
}

// Fold counts the batch, advances the sampler with it and asks the
// policy about err, the batch's score. When the policy fires or no model
// exists yet, it returns the realized sample to fit; otherwise, and for
// an empty realization, it returns nil. The policy hears every batch,
// because a stateful policy such as OnDrift learns from each error.
func (m *Manager[T, M]) Fold(batch []T, err float64) []T {
	m.t++
	m.sampler.Advance(batch)
	if !m.policy.ShouldRetrain(m.t, err) && m.model.Load() != nil {
		return nil
	}
	if sample := m.sampler.Sample(); len(sample) > 0 {
		return sample
	}
	return nil
}

// Deploy installs a model fitted on Fold's sample and counts the retrain.
// When the fit failed (fitErr non-nil), the previous model stays deployed
// and Deploy returns the failure.
func (m *Manager[T, M]) Deploy(model M, fitErr error) error {
	if fitErr != nil {
		return fmt.Errorf("manage: retrain at t=%d: %w", m.t, fitErr)
	}
	m.model.Store(&model)
	m.retrains++
	return nil
}

// Resume sets a new Manager to saved progress: t batches processed,
// retrains fits deployed, and the deployed model when ok. Its sampler must
// already hold the state saved with them.
func (m *Manager[T, M]) Resume(t, retrains int, model M, ok bool) {
	m.t, m.retrains = t, retrains
	if ok {
		m.model.Store(&model)
	}
}

// Model returns the deployed model and whether one exists.
func (m *Manager[T, M]) Model() (M, bool) {
	if p := m.model.Load(); p != nil {
		return *p, true
	}
	var zero M
	return zero, false
}

// Retrains returns how many times a model has been (re)trained.
func (m *Manager[T, M]) Retrains() int { return m.retrains }

// T returns the number of batches processed.
func (m *Manager[T, M]) T() int { return m.t }
