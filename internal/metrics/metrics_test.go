package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestExpectedShortfall(t *testing.T) {
	xs := []float64{10, 50, 20, 40, 30, 60, 5, 15, 25, 35}
	// Worst 20% of 10 values = top 2 = {60, 50} → mean 55.
	got, err := ExpectedShortfall(xs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 55, 1e-12) {
		t.Errorf("ES(0.2) = %v, want 55", got)
	}
	// Worst 10% = top 1 = 60.
	got, err = ExpectedShortfall(xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 60, 1e-12) {
		t.Errorf("ES(0.1) = %v, want 60", got)
	}
	// z so small it rounds to zero entries still averages one value.
	got, err = ExpectedShortfall(xs, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 60, 1e-12) {
		t.Errorf("tiny-z ES = %v, want 60", got)
	}
	// z = 1 is the overall mean.
	got, err = ExpectedShortfall(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, Mean(xs), 1e-12) {
		t.Errorf("ES(1) = %v, want mean %v", got, Mean(xs))
	}
	if _, err := ExpectedShortfall(nil, 0.1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ExpectedShortfall(xs, 0); err == nil {
		t.Error("z = 0 accepted")
	}
}

func TestESDominatesMean(t *testing.T) {
	rng := xrand.New(2)
	f := func(n uint8) bool {
		k := int(n)%30 + 1
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		es, err := ExpectedShortfall(xs, 0.1)
		if err != nil {
			return false
		}
		return es >= Mean(xs)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMSE(t *testing.T) {
	got, err := MSE([]float64{1, 2, 3}, []float64{1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, (0.0+1+4)/3, 1e-12) {
		t.Errorf("MSE = %v", got)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MSE(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMisclassificationRate(t *testing.T) {
	got, err := MisclassificationRate([]int{1, 2, 3, 4}, []int{1, 0, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 50, 1e-12) {
		t.Errorf("rate = %v", got)
	}
	if _, err := MisclassificationRate([]int{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMeanVarianceEdge(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}
