package manage

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/xrand"
)

func TestEveryPolicy(t *testing.T) {
	e := Every{K: 5}
	fired := 0
	for tt := 1; tt <= 20; tt++ {
		if e.ShouldRetrain(tt, 0) {
			fired++
			if tt%5 != 0 {
				t.Errorf("Every{5} fired at t=%d", tt)
			}
		}
	}
	if fired != 4 {
		t.Errorf("Every{5} fired %d times in 20 steps", fired)
	}
	if !(Every{K: 0}).ShouldRetrain(3, 0) {
		t.Error("Every{0} should behave like Always")
	}
	if !(Always{}).ShouldRetrain(1, math.NaN()) {
		t.Error("Always must always fire")
	}
}

func TestOnDriftTriggersOnSpike(t *testing.T) {
	d := &OnDrift{Window: 10, Factor: 2, MinObs: 3}
	// Stable phase: errors around 10 ± small.
	stable := []float64{10, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9}
	for i, e := range stable {
		if d.ShouldRetrain(i+1, e) {
			t.Fatalf("drift detector fired during stable phase at %d", i)
		}
	}
	// Spike.
	if !d.ShouldRetrain(len(stable)+1, 50) {
		t.Fatal("drift detector missed a 5x error spike")
	}
	// After reset, a normal reading must not re-trigger immediately.
	if d.ShouldRetrain(len(stable)+2, 10) {
		t.Error("drift detector re-fired right after reset")
	}
}

func TestOnDriftIgnoresNaNAndWarmsUp(t *testing.T) {
	d := &OnDrift{MinObs: 3}
	if d.ShouldRetrain(1, math.NaN()) {
		t.Error("fired on NaN")
	}
	if d.ShouldRetrain(2, 100) || d.ShouldRetrain(3, 1) {
		t.Error("fired before MinObs observations")
	}
}

func TestOnDriftMaxStale(t *testing.T) {
	d := &OnDrift{MaxStale: 4}
	fires := 0
	for tt := 1; tt <= 12; tt++ {
		if d.ShouldRetrain(tt, 10) {
			fires++
		}
	}
	if fires != 3 {
		t.Errorf("MaxStale=4 fired %d times in 12 steps, want 3", fires)
	}
}

var _ StatefulPolicy = (*OnDrift)(nil)

// TestOnDriftNaNDoesNotPolluteWindow: NaN scores (no model yet, empty
// batches) must neither enter the trailing window nor reset the quiet
// counter, so a spike right after a NaN gap is still detected against the
// pre-gap baseline.
func TestOnDriftNaNDoesNotPolluteWindow(t *testing.T) {
	d := &OnDrift{Window: 10, Factor: 2, MinObs: 3}
	for i, e := range []float64{10, 10.2, 9.8, 10.1} {
		if d.ShouldRetrain(i+1, e) {
			t.Fatalf("fired during stable phase at t=%d", i+1)
		}
	}
	for i := 0; i < 5; i++ {
		if d.ShouldRetrain(5+i, math.NaN()) {
			t.Fatalf("fired on NaN at t=%d", 5+i)
		}
	}
	if len(d.hist) != 4 {
		t.Errorf("NaN entered the trailing window: len=%d, want 4", len(d.hist))
	}
	if !d.ShouldRetrain(10, 50) {
		t.Error("spike after a NaN gap not detected")
	}
}

// TestOnDriftMinObsBoundary: the detector must stay silent until the
// window holds MinObs observations — the decision at time t sees the
// window *before* t's error is appended, so the first fireable call is the
// (MinObs+1)-th non-NaN observation.
func TestOnDriftMinObsBoundary(t *testing.T) {
	d := &OnDrift{Window: 10, Factor: 2, MinObs: 3}
	d.ShouldRetrain(1, 10)
	d.ShouldRetrain(2, 10.1)
	// Third call: only 2 observations in the window — a huge spike must
	// not fire yet.
	if d.ShouldRetrain(3, 1000) {
		t.Fatal("fired with fewer than MinObs observations in the window")
	}
	// The spike itself entered the window; reset with a fresh detector to
	// test the exact boundary cleanly.
	d = &OnDrift{Window: 10, Factor: 2, MinObs: 3}
	for i, e := range []float64{10, 9.9, 10.1} {
		if d.ShouldRetrain(i+1, e) {
			t.Fatalf("fired during warm-up at t=%d", i+1)
		}
	}
	if !d.ShouldRetrain(4, 60) {
		t.Error("spike on the first post-MinObs call not detected")
	}
}

// TestOnDriftMaxStaleAllNaN: the MaxStale safety net must fire even when
// every score is NaN (e.g. a stream of empty batches) — it is the
// guarantee that a model can never go stale forever just because scoring
// is impossible.
func TestOnDriftMaxStaleAllNaN(t *testing.T) {
	d := &OnDrift{MaxStale: 5}
	fires := 0
	for tt := 1; tt <= 15; tt++ {
		if d.ShouldRetrain(tt, math.NaN()) {
			fires++
			if tt%5 != 0 {
				t.Errorf("MaxStale fired off-schedule at t=%d", tt)
			}
		}
	}
	if fires != 3 {
		t.Errorf("MaxStale=5 fired %d times in 15 all-NaN steps, want 3", fires)
	}
}

// TestOnDriftStateRoundTrip: State→SetState must continue the identical
// decision sequence — the property the server's checkpoint/restore of
// drift detectors depends on.
func TestOnDriftStateRoundTrip(t *testing.T) {
	errs := []float64{10, 10.4, 9.6, math.NaN(), 10.2, 9.9, 30, 10.1, 9.8, 10.0, 45, 10.2}
	fresh := func() *OnDrift { return &OnDrift{Window: 6, Factor: 2, MinObs: 3, MaxStale: 9} }

	reference := fresh()
	var want []bool
	for i, e := range errs {
		want = append(want, reference.ShouldRetrain(i+1, e))
	}

	// Replay the first half, checkpoint, restore into a fresh policy, and
	// replay the rest: decisions must match the uninterrupted run.
	half := len(errs) / 2
	first := fresh()
	for i := 0; i < half; i++ {
		if got := first.ShouldRetrain(i+1, errs[i]); got != want[i] {
			t.Fatalf("pre-checkpoint decision %d = %v, want %v", i, got, want[i])
		}
	}
	st := first.State()
	// Mutating the exported state must not alias the detector.
	if len(st.Hist) > 0 {
		st.Hist[0] = -1
		if first.hist[0] == -1 {
			t.Fatal("State aliases the detector's window")
		}
		st.Hist[0] = first.hist[0]
	}
	second := fresh()
	second.SetState(st)
	for i := half; i < len(errs); i++ {
		if got := second.ShouldRetrain(i+1, errs[i]); got != want[i] {
			t.Fatalf("post-restore decision %d = %v, want %v", i, got, want[i])
		}
	}
}

func TestManagerValidation(t *testing.T) {
	s, _ := core.NewSlidingWindow[int](5)
	tr := func([]int) (int, error) { return 0, nil }
	ev := func(int, []int) float64 { return 0 }
	if _, err := New[int, int](nil, tr, ev, Always{}); err == nil {
		t.Error("nil sampler accepted")
	}
	if _, err := New[int, int](s, nil, ev, Always{}); err == nil {
		t.Error("nil trainer accepted")
	}
	if _, err := New[int, int](s, tr, nil, Always{}); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := New[int, int](s, tr, ev, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

// Regression test: a negative OnDrift.Factor used to be passed through as
// the trigger threshold, putting it *below* the trailing mean so the policy
// retrained on essentially every batch. It must now be rejected at
// construction and clamped to the default when the policy is used
// standalone.
func TestOnDriftRejectsNegativeFactor(t *testing.T) {
	s, _ := core.NewSlidingWindow[int](5)
	tr := func([]int) (int, error) { return 0, nil }
	ev := func(int, []int) float64 { return 0 }
	for _, bad := range []*OnDrift{
		{Factor: -2},
		{Factor: math.NaN()},
		{Window: -1},
		{MinObs: -1},
		{MaxStale: -1},
	} {
		if _, err := New[int, int](s, tr, ev, bad); err == nil {
			t.Errorf("New accepted invalid policy %+v", bad)
		}
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	if err := (&OnDrift{Window: 8, Factor: 2, MinObs: 3, MaxStale: 25}).Validate(); err != nil {
		t.Errorf("Validate rejected a valid policy: %v", err)
	}

	// Standalone use: steady sub-mean errors must not trigger even with a
	// negative Factor (clamped to the default rather than used as-is).
	d := &OnDrift{Window: 10, Factor: -3, MinObs: 3}
	errs := []float64{10, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0, 9.7}
	for i, e := range errs {
		if d.ShouldRetrain(i+1, e) {
			t.Fatalf("negative Factor fired on steady error %v at t=%d", e, i+1)
		}
	}
}

func TestManagerBasicLoop(t *testing.T) {
	s, _ := core.NewSlidingWindow[int](100)
	trained := 0
	mgr, err := New(s,
		func(sample []int) (int, error) { trained++; return len(sample), nil },
		func(model int, batch []int) float64 { return float64(model) },
		Every{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// First batch: no model yet → NaN error, then initial training.
	e, err := mgr.Step([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(e) {
		t.Errorf("first step error = %v, want NaN", e)
	}
	if _, ok := mgr.Model(); !ok {
		t.Fatal("no model after first step")
	}
	for i := 0; i < 8; i++ {
		if _, err := mgr.Step([]int{4, 5}); err != nil {
			t.Fatal(err)
		}
	}
	// Initial training + retrains at t=3,6,9.
	if mgr.Retrains() != 4 {
		t.Errorf("retrains = %d, want 4", mgr.Retrains())
	}
	if mgr.T() != 9 {
		t.Errorf("T = %d", mgr.T())
	}
	if trained != mgr.Retrains() {
		t.Errorf("trainer called %d times, retrains %d", trained, mgr.Retrains())
	}
}

func TestManagerTrainFailureKeepsOldModel(t *testing.T) {
	s, _ := core.NewSlidingWindow[int](10)
	calls := 0
	mgr, err := New(s,
		func(sample []int) (int, error) {
			calls++
			if calls > 1 {
				return 0, fmt.Errorf("boom")
			}
			return 42, nil
		},
		func(model int, batch []int) float64 { return 1 },
		Always{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Step([]int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Step([]int{2}); err == nil {
		t.Fatal("training failure not surfaced")
	}
	model, ok := mgr.Model()
	if !ok || model != 42 {
		t.Errorf("old model not retained: %v %v", model, ok)
	}
	if mgr.Retrains() != 1 {
		t.Errorf("retrains = %d", mgr.Retrains())
	}
}

// countPolicy never fires and counts how often it is asked.
type countPolicy struct{ asked int }

func (c *countPolicy) ShouldRetrain(int, float64) bool { c.asked++; return false }

// TestManagerPhasesApart runs Score, Fold and Deploy apart, with the fit
// in between as a server runs it off its ingest path, against Step on a
// twin manager: errors, sample realizations, counters and models must
// agree at every batch, including empty batches, failed fits and the
// empty realization before the first item. Model is read concurrently
// with Deploy throughout (run under -race).
func TestManagerPhasesApart(t *testing.T) {
	fit := func(sample []int) (int, error) {
		sum := 0
		for _, v := range sample {
			sum += v
		}
		if sum%7 == 0 {
			return 0, fmt.Errorf("sum %d", sum)
		}
		return sum, nil
	}
	eval := func(model int, batch []int) float64 { return float64(model % (len(batch) + 3)) }
	mk := func() *Manager[int, int] {
		s, err := core.NewSlidingWindow[int](6)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(s, fit, eval, Every{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	step, apart := mk(), mk()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				apart.Model()
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 40; i++ {
		batch := make([]int, (i*5)%4)
		for j := range batch {
			batch[j] = i*10 + j
		}
		want, werr := step.Step(batch)
		got := apart.Score(batch)
		var gerr error
		if sample := apart.Fold(batch, got); sample != nil {
			gerr = apart.Deploy(fit(sample))
		}
		if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(want) && got != want) {
			t.Fatalf("batch %d: phases scored %v, Step %v", i, got, want)
		}
		if (gerr == nil) != (werr == nil) || apart.T() != step.T() || apart.Retrains() != step.Retrains() {
			t.Fatalf("batch %d: phases (err %v, t %d, retrains %d), Step (err %v, t %d, retrains %d)",
				i, gerr, apart.T(), apart.Retrains(), werr, step.T(), step.Retrains())
		}
		gm, gok := apart.Model()
		wm, wok := step.Model()
		if gm != wm || gok != wok {
			t.Fatalf("batch %d: phases model (%v, %v), Step (%v, %v)", i, gm, gok, wm, wok)
		}
	}
	if step.Retrains() == 0 {
		t.Fatal("no retrain happened; the comparison is vacuous")
	}
}

// TestManagerFoldAsksPolicyEveryBatch: the policy hears every batch, also
// before a model exists, and an empty realization orders no fit.
func TestManagerFoldAsksPolicyEveryBatch(t *testing.T) {
	s, _ := core.NewSlidingWindow[int](4)
	pol := &countPolicy{}
	m, err := New(s, func(sample []int) (int, error) { return len(sample), nil },
		func(int, []int) float64 { return 0 }, pol)
	if err != nil {
		t.Fatal(err)
	}
	if sample := m.Fold(nil, math.NaN()); sample != nil {
		t.Fatalf("empty realization returned %v", sample)
	}
	if sample := m.Fold([]int{1, 2}, math.NaN()); len(sample) != 2 {
		t.Fatalf("no model yet: Fold returned %v, want the 2-item sample", sample)
	}
	if err := m.Deploy(2, nil); err != nil {
		t.Fatal(err)
	}
	if sample := m.Fold([]int{3}, 0); sample != nil {
		t.Fatalf("policy did not fire but Fold returned %v", sample)
	}
	if pol.asked != 3 || m.T() != 3 || m.Retrains() != 1 {
		t.Fatalf("policy asked %d times, t %d, retrains %d; want 3, 3, 1", pol.asked, m.T(), m.Retrains())
	}
}

// TestManagerEndToEndKNN runs the full loop on the paper's kNN workload
// and checks that a drift-triggered policy retrains far less often than
// Always while staying in the same accuracy regime.
func TestManagerEndToEndKNN(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	run := func(policy Policy) (avgErr float64, retrains int) {
		gen, err := datagen.NewGMM(datagen.GMMConfig{
			Schedule: datagen.Periodic{Delta: 10, Eta: 10},
			Warmup:   30,
		}, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := core.NewRTBS[datagen.Point](0.07, 500, xrand.New(100))
		if err != nil {
			t.Fatal(err)
		}
		train := func(sample []datagen.Point) (*ml.KNN, error) {
			m, err := ml.NewKNN(7)
			if err != nil {
				return nil, err
			}
			xs := make([][]float64, len(sample))
			ys := make([]int, len(sample))
			for i, p := range sample {
				xs[i] = []float64{p.X[0], p.X[1]}
				ys[i] = p.Class
			}
			if err := m.Fit(xs, ys); err != nil {
				return nil, err
			}
			return m, nil
		}
		eval := func(m *ml.KNN, batch []datagen.Point) float64 {
			wrong := 0
			for _, p := range batch {
				if m.Predict([]float64{p.X[0], p.X[1]}) != p.Class {
					wrong++
				}
			}
			return 100 * float64(wrong) / float64(len(batch))
		}
		mgr, err := New(sampler, train, eval, policy)
		if err != nil {
			t.Fatal(err)
		}
		var errs []float64
		for tt := 1; tt <= 80; tt++ {
			e, err := mgr.Step(gen.Batch(tt, 100))
			if err != nil {
				t.Fatal(err)
			}
			if tt > 30 && !math.IsNaN(e) {
				errs = append(errs, e)
			}
		}
		return metrics.Mean(errs), mgr.Retrains()
	}

	alwaysErr, alwaysRetrains := run(Always{})
	driftErr, driftRetrains := run(&OnDrift{Window: 8, Factor: 2, MinObs: 3, MaxStale: 20})

	if driftRetrains >= alwaysRetrains/2 {
		t.Errorf("drift policy should retrain far less: %d vs %d", driftRetrains, alwaysRetrains)
	}
	if driftRetrains < 2 {
		t.Errorf("drift policy never fired: %d retrains", driftRetrains)
	}
	// Accuracy should be in the same regime (drift-triggered retraining is
	// allowed to be somewhat worse, not catastrophically so).
	if driftErr > alwaysErr*2+10 {
		t.Errorf("drift policy accuracy collapsed: %.1f vs %.1f", driftErr, alwaysErr)
	}
}
