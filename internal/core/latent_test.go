package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func latentInvariantOK[T any](l *Latent[T]) bool {
	wantFull := int(math.Floor(l.Weight()))
	wantPartial := 0
	if frac(l.Weight()) > 0 {
		wantPartial = 1
	}
	return l.NumFull() == wantFull && len(l.partial) == wantPartial
}

func TestNewLatent(t *testing.T) {
	l := NewLatent([]int{1, 2, 3})
	if l.Weight() != 3 {
		t.Errorf("weight = %v", l.Weight())
	}
	if l.NumFull() != 3 || l.HasPartial() {
		t.Errorf("full=%d partial=%v", l.NumFull(), l.HasPartial())
	}
	if l.Footprint() != 3 {
		t.Errorf("footprint = %d", l.Footprint())
	}
	if !latentInvariantOK(l) {
		t.Error("invariant violated")
	}
}

// TestRealizeExpectedSize checks equation (3) over independently seeded
// latent states: a realization's coin is a function of the RNG state, so
// realizing one state repeatedly returns one sample by design.
func TestRealizeExpectedSize(t *testing.T) {
	const trials = 100000
	var sizes float64
	for i := 0; i < trials; i++ {
		rng := xrand.New(100 + uint64(i))
		l := NewLatent([]int{1, 2, 3, 4})
		l.Downsample(rng, 3.6)
		if !latentInvariantOK(l) {
			t.Fatal("invariant violated after downsample")
		}
		s := l.Realize(rng)
		if len(s) != 3 && len(s) != 4 {
			t.Fatalf("realized size %d, want 3 or 4", len(s))
		}
		sizes += float64(len(s))
	}
	mean := sizes / trials
	if math.Abs(mean-3.6) > 0.01 {
		t.Errorf("mean realized size = %v, want 3.6 (equation (3))", mean)
	}
}

func TestDownsampleEdges(t *testing.T) {
	rng := xrand.New(101)
	l := NewLatent([]int{1, 2, 3})

	// target == C is a no-op.
	l.Downsample(rng, 3)
	if l.Weight() != 3 || l.NumFull() != 3 {
		t.Error("no-op downsample changed state")
	}

	// target == 0 empties.
	l.Downsample(rng, 0)
	if l.Weight() != 0 || l.Footprint() != 0 {
		t.Error("downsample to 0 did not empty the sample")
	}
}

func TestDownsamplePanicsOutOfRange(t *testing.T) {
	for _, target := range []float64{-0.5, 3.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Downsample(%v) did not panic", target)
				}
			}()
			NewLatent([]int{1, 2, 3}).Downsample(xrand.New(1), target)
		}()
	}
}

// measureInclusion runs `trials` independent downsample+realize experiments
// starting from weight C over items 0..ceil(C)-1 (item ceil(C)-1 partial if
// frac(C)>0) and returns the empirical inclusion frequency of each item
// after downsampling to target.
func measureInclusion(t *testing.T, c, target float64, trials int, seed uint64) []float64 {
	t.Helper()
	rng := xrand.New(seed)
	nItems := int(math.Ceil(c))
	counts := make([]float64, nItems)
	for i := 0; i < trials; i++ {
		l := buildLatent(rng, c)
		l.Downsample(rng, target)
		if !latentInvariantOK(l) {
			t.Fatalf("invariant violated: C=%v→%v full=%d partial=%v weight=%v",
				c, target, l.NumFull(), l.HasPartial(), l.Weight())
		}
		if l.Weight() != target {
			t.Fatalf("weight after downsample = %v, want %v", l.Weight(), target)
		}
		for _, item := range l.Realize(rng) {
			counts[item]++
		}
	}
	for i := range counts {
		counts[i] /= float64(trials)
	}
	return counts
}

// buildLatent constructs a latent sample of weight c whose full items are
// 0..⌊c⌋-1 and whose partial item (if frac(c) > 0) is ⌈c⌉-1.
func buildLatent(rng *xrand.RNG, c float64) *Latent[int] {
	n := int(math.Floor(c))
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	l := NewLatent(items)
	if frac(c) > 0 {
		l.partial = append(l.partial, n)
		l.weight = c
	}
	return l
}

// TestDownsampleScaling verifies Theorem 4.1: downsampling from weight C to
// C′ scales every item's inclusion probability by exactly C′/C. The cases
// cover every branch of Algorithm 3, including the paper's Figure 4
// examples.
func TestDownsampleScaling(t *testing.T) {
	cases := []struct{ c, target float64 }{
		{3, 1.5},   // Fig. 4(a): integral C, items deleted
		{3.2, 1.6}, // Fig. 4(b): fractional C, items deleted
		{2.4, 0.4}, // Fig. 4(c): no full items retained
		{2.4, 2.1}, // Fig. 4(d): no items deleted
		{4.7, 4.2}, // no items deleted, larger sample
		{3.2, 2.0}, // integral target: partial must vanish
		{5, 4},     // integral to integral
		{1.8, 0.9}, // ⌊C′⌋ = 0 with fractional C
		{0.7, 0.3}, // all-partial corner
	}
	const trials = 200000
	for ci, tc := range cases {
		probs := measureInclusion(t, tc.c, tc.target, trials, uint64(7000+ci))
		scale := tc.target / tc.c
		nFull := int(math.Floor(tc.c))
		for item, got := range probs {
			before := 1.0
			if item >= nFull {
				before = frac(tc.c)
			}
			want := scale * before
			se := math.Sqrt(want*(1-want)/trials) + 1e-9
			if math.Abs(got-want) > 6*se {
				t.Errorf("C=%v→%v item %d: inclusion %v, want %v (±%v)",
					tc.c, tc.target, item, got, want, 6*se)
			}
		}
	}
}

// TestDownsampleChainInvariant drives random chains of downsamples and
// checks the structural invariants (quick.Check-style property test).
func TestDownsampleChainInvariant(t *testing.T) {
	rng := xrand.New(500)
	f := func(startRaw uint8, steps []uint16) bool {
		c := float64(startRaw%40) + 0.99*float64(startRaw%97)/97
		if c <= 0 {
			c = 1.5
		}
		l := buildLatent(rng, c)
		for _, s := range steps {
			target := l.Weight() * float64(s%1000) / 1000
			if target >= l.Weight() {
				continue
			}
			l.Downsample(rng, target)
			if !latentInvariantOK(l) || l.Weight() != target {
				return false
			}
			if l.Weight() == 0 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAppendFull(t *testing.T) {
	rng := xrand.New(501)
	l := buildLatent(rng, 2.5)
	l.appendFull([]int{10, 11, 12})
	if l.Weight() != 5.5 {
		t.Errorf("weight = %v, want 5.5", l.Weight())
	}
	if l.NumFull() != 5 || !l.HasPartial() {
		t.Errorf("full=%d partial=%v", l.NumFull(), l.HasPartial())
	}
	if !latentInvariantOK(l) {
		t.Error("invariant violated")
	}
}

func TestSwap1AndMove1(t *testing.T) {
	rng := xrand.New(502)
	// swap1 with empty partial moves a full item out.
	l := NewLatent([]int{1, 2, 3})
	l.swap1(rng)
	if l.NumFull() != 2 || !l.HasPartial() {
		t.Errorf("swap1 empty-π: full=%d partial=%v", l.NumFull(), l.HasPartial())
	}
	// swap1 with a partial exchanges; footprint unchanged.
	before := l.Footprint()
	l.swap1(rng)
	if l.Footprint() != before || l.NumFull() != 2 || !l.HasPartial() {
		t.Error("swap1 with partial should preserve footprint")
	}
	// move1 replaces the partial, shrinking A by one.
	l.move1(rng)
	if l.NumFull() != 1 || !l.HasPartial() {
		t.Errorf("move1: full=%d partial=%v", l.NumFull(), l.HasPartial())
	}
}

func TestFullAccessorZeroCopy(t *testing.T) {
	l := NewLatent([]int{4, 5, 6})
	got := l.Full()
	if len(got) != 3 {
		t.Fatalf("Full() len = %d", len(got))
	}
}
