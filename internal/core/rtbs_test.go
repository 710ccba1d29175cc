package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func mustRTBS(t *testing.T, lambda float64, n int, seed uint64) *RTBS[int] {
	t.Helper()
	s, err := NewRTBS[int](lambda, n, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRTBSConstructorValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := NewRTBS[int](-1, 10, rng); err == nil {
		t.Error("negative λ accepted")
	}
	if _, err := NewRTBS[int](math.NaN(), 10, rng); err == nil {
		t.Error("NaN λ accepted")
	}
	if _, err := NewRTBS[int](0.1, 0, rng); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewRTBS[int](0.1, 10, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	if _, err := NewRTBSFrom(0.1, 2, []int{1, 2, 3}, rng); err == nil {
		t.Error("oversized initial sample accepted")
	}
	if _, err := NewRTBS[int](0, 10, rng); err != nil {
		t.Errorf("λ = 0 should be allowed: %v", err)
	}
}

func TestRTBSNeverExceedsBound(t *testing.T) {
	rng := xrand.New(77)
	f := func(seed uint64, sizes []uint16) bool {
		s, err := NewRTBS[int](0.1, 50, xrand.New(seed))
		if err != nil {
			return false
		}
		id := 0
		for _, raw := range sizes {
			b := int(raw % 300)
			batch := make([]int, b)
			for i := range batch {
				batch[i] = id
				id++
			}
			s.Advance(batch)
			if got := s.Sample(); len(got) > 50 {
				return false
			}
			if s.Latent().Footprint() > 50 {
				return false
			}
			if s.ExpectedSize() > 50+1e-9 {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRTBSUnsaturatedTracksTotalWeight(t *testing.T) {
	// While W < n, R-TBS must have C = W exactly: every arriving item is
	// accepted with probability 1 (equation (5) with Cₜ = Wₜ).
	s := mustRTBS(t, 0.1, 1000, 5)
	batch := make([]int, 50)
	w := 0.0
	for tstep := 1; tstep <= 20; tstep++ {
		s.Advance(batch)
		w = w*math.Exp(-0.1) + 50
		if math.Abs(s.TotalWeight()-w) > 1e-9 {
			t.Fatalf("t=%d: W = %v, want %v", tstep, s.TotalWeight(), w)
		}
		if math.Abs(s.ExpectedSize()-w) > 1e-9 {
			t.Fatalf("t=%d: C = %v, want W = %v", tstep, s.ExpectedSize(), w)
		}
		if s.Saturated() {
			t.Fatalf("t=%d: saturated too early", tstep)
		}
	}
}

func TestRTBSSaturatedStaysAtBound(t *testing.T) {
	s := mustRTBS(t, 0.1, 100, 6)
	batch := make([]int, 200)
	for i := range batch {
		batch[i] = i
	}
	for tstep := 0; tstep < 50; tstep++ {
		s.Advance(batch)
	}
	if !s.Saturated() {
		t.Fatal("should be saturated")
	}
	if s.ExpectedSize() != 100 {
		t.Fatalf("C = %v, want exactly 100", s.ExpectedSize())
	}
	if got := len(s.Sample()); got != 100 {
		t.Fatalf("|S| = %d, want exactly 100 (saturated samples are integral)", got)
	}
	if s.Latent().HasPartial() {
		t.Fatal("saturated latent sample must have no partial item")
	}
}

func TestRTBSUndershootShrinksSample(t *testing.T) {
	// Saturate, then stop the stream: the sample must decay below n,
	// demonstrating the "sample shrinks when data dries up" behaviour that
	// distinguishes R-TBS from Chao's algorithm (Section 7).
	lambda := 0.5
	s := mustRTBS(t, lambda, 100, 7)
	big := make([]int, 500)
	s.Advance(big)
	if !s.Saturated() {
		t.Fatal("not saturated after big batch")
	}
	w := s.TotalWeight()
	for i := 0; i < 10; i++ {
		s.Advance(nil)
		w *= math.Exp(-lambda)
		if math.Abs(s.TotalWeight()-w) > 1e-6 {
			t.Fatalf("W drifted: %v vs %v", s.TotalWeight(), w)
		}
	}
	if s.Saturated() {
		t.Fatal("still saturated after decay")
	}
	want := math.Min(100, w)
	if math.Abs(s.ExpectedSize()-want) > 1e-6 {
		t.Fatalf("C = %v, want %v", s.ExpectedSize(), want)
	}
}

// TestRTBSInclusionProperty is the central statistical test: it verifies
// equation (4), Pr[i ∈ Sₜ] = (Cₜ/Wₜ)·wₜ(i), and hence property (1), by
// running many independent replicas over a batch sequence that exercises
// unsaturated, overshoot, saturated and undershoot transitions.
func TestRTBSInclusionProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const (
		lambda   = 0.3
		n        = 20
		replicas = 60000
	)
	// Batch sizes chosen to force every code path: fill-up (5, 5),
	// overshoot (30), saturated replacement (25), decay while saturated
	// (0, 0, 0), undershoot (the final 0 drops W below n), refill (8).
	batchSizes := []int{5, 5, 30, 25, 0, 0, 0, 0, 8}
	totalItems := 0
	for _, b := range batchSizes {
		totalItems += b
	}
	// arrivals[id] = batch index (0-based) of item id.
	arrivals := make([]int, totalItems)
	{
		id := 0
		for bi, b := range batchSizes {
			for j := 0; j < b; j++ {
				arrivals[id] = bi
				id++
			}
		}
	}

	counts := make([]float64, totalItems)
	var lastC, lastW float64
	for rep := 0; rep < replicas; rep++ {
		s, err := NewRTBS[int](lambda, n, xrand.New(uint64(rep)+1_000_000))
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		for _, b := range batchSizes {
			batch := make([]int, b)
			for j := range batch {
				batch[j] = id
				id++
			}
			s.Advance(batch)
		}
		for _, item := range s.Sample() {
			counts[item]++
		}
		lastC, lastW = s.ExpectedSize(), s.TotalWeight()
	}

	tFinal := float64(len(batchSizes))
	for id := 0; id < totalItems; id++ {
		got := counts[id] / replicas
		age := tFinal - float64(arrivals[id]+1)
		want := lastC / lastW * math.Exp(-lambda*age)
		se := math.Sqrt(want*(1-want)/replicas) + 1e-9
		if math.Abs(got-want) > 6*se {
			t.Errorf("item %d (batch %d): inclusion %v, want %v (±%v)",
				id, arrivals[id]+1, got, want, 6*se)
		}
	}
}

// TestRTBSRelativeInclusion verifies property (1) directly: the ratio of
// inclusion probabilities between two batches equals e^{−λ·Δt}.
func TestRTBSRelativeInclusion(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const (
		lambda   = 0.1
		n        = 40
		batches  = 12
		bSize    = 20
		replicas = 40000
	)
	perBatch := make([]float64, batches)
	for rep := 0; rep < replicas; rep++ {
		s, err := NewRTBS[int](lambda, n, xrand.New(uint64(rep)+5_000_000))
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		for b := 0; b < batches; b++ {
			batch := make([]int, bSize)
			for j := range batch {
				batch[j] = id
				id++
			}
			s.Advance(batch)
		}
		for _, item := range s.Sample() {
			perBatch[item/bSize]++
		}
	}
	// perBatch[b]/(replicas·bSize) estimates the common inclusion
	// probability of batch b's items.
	p := make([]float64, batches)
	for b := range perBatch {
		p[b] = perBatch[b] / (replicas * bSize)
	}
	for b := 0; b < batches-1; b++ {
		ratio := p[b] / p[b+1]
		want := math.Exp(-lambda)
		if math.Abs(ratio-want) > 0.05 {
			t.Errorf("batch %d/%d inclusion ratio = %v, want %v", b+1, b+2, ratio, want)
		}
	}
}

func TestRTBSDeterministicGivenSeed(t *testing.T) {
	run := func() []int {
		s := mustRTBS(t, 0.2, 30, 99)
		id := 0
		var last []int
		for tstep := 0; tstep < 40; tstep++ {
			b := (tstep*7)%50 + 1
			batch := make([]int, b)
			for j := range batch {
				batch[j] = id
				id++
			}
			s.Advance(batch)
			last = s.Sample()
		}
		return last
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("samples differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRTBSSampleChangesNoState: every realization between two Advance
// calls is the same Sₜ, and realizing leaves the snapshot (RNG included)
// unchanged. The run is unsaturated with decay, so a partial item exists
// at each step and its coin comes out both ways across the run.
func TestRTBSSampleChangesNoState(t *testing.T) {
	s := mustRTBS(t, 0.3, 1000, 7)
	s.Advance([]int{0, 1, 2})
	withPartial, withoutPartial := 0, 0
	var buf []int
	for step := 1; step <= 60; step++ {
		s.Advance([]int{3 * step, 3*step + 1, 3*step + 2})
		if !s.Latent().HasPartial() {
			t.Fatalf("step %d: no partial item in an unsaturated, decaying run", step)
		}
		before := s.Snapshot()
		first := s.Sample()
		if second := s.Sample(); !reflect.DeepEqual(first, second) {
			t.Fatalf("step %d: two reads differ: %v vs %v", step, first, second)
		}
		if buf = s.AppendSample(buf[:0]); !reflect.DeepEqual(first, buf) {
			t.Fatalf("step %d: AppendSample %v differs from Sample %v", step, buf, first)
		}
		if after := s.Snapshot(); !reflect.DeepEqual(before, after) {
			t.Fatalf("step %d: realizing changed the snapshot", step)
		}
		if len(first) > s.Latent().NumFull() {
			withPartial++
		} else {
			withoutPartial++
		}
	}
	if withPartial == 0 || withoutPartial == 0 {
		t.Fatalf("partial item included at %d steps and excluded at %d; want both", withPartial, withoutPartial)
	}
}

func TestRTBSAdvanceAtRealTimes(t *testing.T) {
	s := mustRTBS(t, 0.1, 1000, 123)
	s.AdvanceAt(0.5, make([]int, 10))
	s.AdvanceAt(2.75, make([]int, 10))
	want := 10*math.Exp(-0.1*2.25) + 10
	if math.Abs(s.TotalWeight()-want) > 1e-9 {
		t.Errorf("W = %v, want %v", s.TotalWeight(), want)
	}
	if s.Now() != 2.75 {
		t.Errorf("Now = %v", s.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("non-increasing time did not panic")
		}
	}()
	s.AdvanceAt(2.75, nil)
}

func TestRTBSInclusionProbabilityAccessor(t *testing.T) {
	s := mustRTBS(t, 0.2, 10, 5)
	if got := s.InclusionProbability(0); got != 0 {
		t.Errorf("empty sampler inclusion = %v", got)
	}
	s.Advance(make([]int, 5)) // t=1, W=5 < n: unsaturated, C/W = 1
	if got := s.InclusionProbability(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("fresh item inclusion = %v, want 1", got)
	}
	s.Advance(make([]int, 100)) // saturate
	cOverW := 10.0 / s.TotalWeight()
	if got := s.InclusionProbability(2); math.Abs(got-cOverW) > 1e-12 {
		t.Errorf("fresh item inclusion = %v, want %v", got, cOverW)
	}
	older := s.InclusionProbability(1)
	if math.Abs(older-cOverW*math.Exp(-0.2)) > 1e-12 {
		t.Errorf("older item inclusion = %v", older)
	}
}

func TestRTBSLambdaZeroBehavesLikeReservoir(t *testing.T) {
	// With λ = 0 weights never decay, so W counts items seen and the
	// saturated sample stays at exactly n with uniform inclusion n/W.
	s := mustRTBS(t, 0, 50, 42)
	total := 0
	for i := 0; i < 20; i++ {
		s.Advance(make([]int, 30))
		total += 30
		if math.Abs(s.TotalWeight()-float64(total)) > 1e-9 {
			t.Fatalf("W = %v, want %d", s.TotalWeight(), total)
		}
	}
	if got := len(s.Sample()); got != 50 {
		t.Errorf("|S| = %d", got)
	}
}

func TestRTBSFromInitialSample(t *testing.T) {
	init := []int{1, 2, 3}
	s, err := NewRTBSFrom(0.1, 10, init, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalWeight() != 3 || s.ExpectedSize() != 3 {
		t.Errorf("W=%v C=%v", s.TotalWeight(), s.ExpectedSize())
	}
	got := s.Sample()
	if len(got) != 3 {
		t.Errorf("|S₀| = %d", len(got))
	}
}

func TestRTBSEmptyBatches(t *testing.T) {
	s := mustRTBS(t, 0.1, 10, 11)
	for i := 0; i < 100; i++ {
		s.Advance(nil)
	}
	if s.TotalWeight() != 0 || len(s.Sample()) != 0 {
		t.Error("empty stream should keep an empty sample")
	}
}

// TestRTBSExpectedSampleSizeMaximal spot-checks Theorem 4.3 against T-TBS:
// in an unsaturated regime, E[|S|] for R-TBS equals W, which upper-bounds
// any property-(1) sampler, in particular T-TBS with the same λ.
func TestRTBSExpectedSampleSizeMaximal(t *testing.T) {
	const lambda, b, steps = 0.1, 20.0, 60
	// R-TBS: deterministic C = W in unsaturated regime.
	r := mustRTBS(t, lambda, 10000, 13)
	// T-TBS with target n chosen so q < 1 (i.e. genuinely sub-sampling).
	tt, err := NewTTBS[int](lambda, 150, b, xrand.New(14))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		batch := make([]int, int(b))
		r.Advance(batch)
		tt.Advance(batch)
	}
	if rs, ts := r.ExpectedSize(), tt.ExpectedSize(); rs < ts*0.95 {
		t.Errorf("R-TBS expected size %v should dominate T-TBS %v", rs, ts)
	}
}

// TestRTBSSampleSizeVariance spot-checks Theorem 4.4: in a saturated steady
// state the realized sample size is exactly n — zero variance.
func TestRTBSSampleSizeVariance(t *testing.T) {
	s := mustRTBS(t, 0.07, 50, 15)
	for i := 0; i < 30; i++ {
		s.Advance(make([]int, 100))
	}
	for i := 0; i < 20; i++ {
		s.Advance(make([]int, 100))
		if got := len(s.Sample()); got != 50 {
			t.Fatalf("saturated sample size %d fluctuated from 50", got)
		}
	}
}
