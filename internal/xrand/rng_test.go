package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed generators coincided %d/1000 times", same)
	}
}

func TestSeedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("Seed did not reset stream: step %d got %d want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(2)
	const n = 1 << 20
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sum2 += u * u
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.002 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	variance := sum2/n - mean*mean
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

// TestStateFloat64 pins the state-derived uniform that R-TBS's partial
// item coin uses: repeat calls agree and advance nothing, the value is
// uniform over successive states, and it is uncorrelated with the draw
// that produced the state and with the draw that follows it.
func TestStateFloat64(t *testing.T) {
	r, twin := New(3), New(3)
	if u := r.StateFloat64(); u != r.StateFloat64() {
		t.Fatal("two calls on one state differ")
	}
	for i := 0; i < 100; i++ {
		if r.Uint64() != twin.Uint64() {
			t.Fatal("StateFloat64 advanced the stream")
		}
	}
	const n = 1 << 18
	var sum, sum2, prevDot, nextDot float64
	prev := r.Float64()
	for i := 0; i < n; i++ {
		u := r.StateFloat64()
		if u < 0 || u >= 1 {
			t.Fatalf("StateFloat64 out of range: %v", u)
		}
		next := r.Float64()
		sum += u
		sum2 += u * u
		prevDot += (u - 0.5) * (prev - 0.5)
		nextDot += (u - 0.5) * (next - 0.5)
		prev = next
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.003 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if variance := sum2/n - mean*mean; math.Abs(variance-1.0/12) > 0.003 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12)
	}
	// A correlation's standard error is 1/√n ≈ 0.002; allow 5σ.
	for name, dot := range map[string]float64{"previous": prevDot, "next": nextDot} {
		if corr := dot / n * 12; math.Abs(corr) > 0.01 {
			t.Errorf("correlation with the %s Float64 = %v, want ~0", name, corr)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(4)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", k, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestJumpProducesDisjointStreams(t *testing.T) {
	base := New(99)
	a := &RNG{s: base.s}
	b := &RNG{s: base.s}
	b.Jump()
	seen := make(map[uint64]struct{}, 10000)
	for i := 0; i < 10000; i++ {
		seen[a.Uint64()] = struct{}{}
	}
	collisions := 0
	for i := 0; i < 10000; i++ {
		if _, ok := seen[b.Uint64()]; ok {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("jumped stream collided with base stream %d times", collisions)
	}
}

func TestSplitStreamsIndependent(t *testing.T) {
	parent := New(5)
	c1 := parent.Split()
	c2 := parent.Split()
	// The two children and the parent must all differ.
	if c1.Uint64() == c2.Uint64() {
		t.Error("split children produced identical first output")
	}
	var m1, m2 float64
	const n = 1 << 16
	for i := 0; i < n; i++ {
		m1 += c1.Float64()
		m2 += c2.Float64()
	}
	if math.Abs(m1/n-0.5) > 0.01 || math.Abs(m2/n-0.5) > 0.01 {
		t.Error("split children are not uniform")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	const n = 1 << 20
	var sum, sum2, sum3 float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
		sum3 += x * x * x
	}
	mean := sum / n
	if math.Abs(mean) > 0.005 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if v := sum2/n - mean*mean; math.Abs(v-1) > 0.01 {
		t.Errorf("normal variance = %v, want ~1", v)
	}
	if skew := sum3 / n; math.Abs(skew) > 0.02 {
		t.Errorf("normal third moment = %v, want ~0", skew)
	}
}

func TestNormalShifted(t *testing.T) {
	r := New(7)
	const n = 1 << 18
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 3)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal(10,3) mean = %v", mean)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(8)
	const n = 1 << 19
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestBernoulliEdge(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(10)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.005 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestStochasticRoundMeanPreserving(t *testing.T) {
	r := New(11)
	for _, x := range []float64{0, 0.25, 1.5, 3.9, 7, 0.001} {
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			v := r.StochasticRound(x)
			if v != int(math.Floor(x)) && v != int(math.Ceil(x)) {
				t.Fatalf("StochasticRound(%v) = %d not in {floor, ceil}", x, v)
			}
			sum += float64(v)
		}
		mean := sum / n
		tol := 4 * math.Sqrt(0.25/n)
		if math.Abs(mean-x) > tol+1e-9 {
			t.Errorf("StochasticRound(%v) mean = %v", x, mean)
		}
	}
}

func TestStochasticRoundProperty(t *testing.T) {
	r := New(12)
	f := func(raw uint32) bool {
		x := float64(raw%100000) / 1000 // [0, 100)
		v := r.StochasticRound(x)
		return v == int(math.Floor(x)) || v == int(math.Ceil(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(14)
	const n, trials = 5, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Perm first-element bucket %d = %d, want ~%v", k, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(15)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}
