package tbs_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/tbs"
)

// TestAppendSampleMatchesSample: for every scheme, AppendSample on one
// sampler realizes exactly what Sample realizes on a twin driven
// identically — the append path realizes the same sample.
func TestAppendSampleMatchesSample(t *testing.T) {
	for _, info := range tbs.Schemes() {
		t.Run(info.Name, func(t *testing.T) {
			a, err := tbs.New[int](info.Name, fullOptions(info)...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tbs.New[int](info.Name, fullOptions(info)...)
			if err != nil {
				t.Fatal(err)
			}
			var buf []int
			for i := 1; i <= 12; i++ {
				ba := batch(i, 17)
				a.Advance(ba)
				b.Advance(ba)
				buf = tbs.AppendSample(a, buf[:0])
				want := b.Sample()
				if !reflect.DeepEqual(append([]int{}, buf...), want) {
					t.Fatalf("batch %d: AppendSample = %v, Sample = %v", i, buf, want)
				}
			}
		})
	}
}

// TestAppendSampleReusesBuffer: once the buffer has grown to the sample
// size, feeding it back yields the same backing array (no reallocation).
func TestAppendSampleReusesBuffer(t *testing.T) {
	s, err := tbs.New[int]("rtbs", tbs.Lambda(0.1), tbs.MaxSize(50), tbs.Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		s.Advance(batch(i, 20))
	}
	buf := make([]int, 0, 64)
	out := tbs.AppendSample(s, buf)
	if len(out) == 0 || len(out) > 64 {
		t.Fatalf("sample size %d, want within buffer capacity", len(out))
	}
	again := tbs.AppendSample(s, out[:0])
	if &again[0] != &out[0] {
		t.Fatal("AppendSample reallocated despite sufficient capacity")
	}
}

// foreignSampler implements Sampler without the append capability, to pin
// the copying fallback.
type foreignSampler struct{}

func (foreignSampler) Advance([]int)         {}
func (foreignSampler) Sample() []int         { return []int{42, 43} }
func (foreignSampler) ExpectedSize() float64 { return 2 }
func (foreignSampler) Scheme() string        { return "foreign" }
func (foreignSampler) Snapshot() (tbs.Snapshot, error) {
	return tbs.Snapshot{}, nil
}

func TestAppendSampleForeignFallback(t *testing.T) {
	got := tbs.AppendSample[int](foreignSampler{}, []int{1})
	if !reflect.DeepEqual(got, []int{1, 42, 43}) {
		t.Fatalf("fallback AppendSample = %v", got)
	}
}

// TestConcurrentAppendSample: the shared-read append path under Concurrent
// returns correct realizations from many goroutines with caller-owned
// buffers, for both an integral scheme (brs) and a fractional one (rtbs).
func TestConcurrentAppendSample(t *testing.T) {
	for _, scheme := range []string{"brs", "rtbs"} {
		t.Run(scheme, func(t *testing.T) {
			opts := []tbs.Option{tbs.MaxSize(30), tbs.Seed(11)}
			if scheme == "rtbs" {
				opts = append(opts, tbs.Lambda(0.1))
			}
			s, err := tbs.New[int](scheme, opts...)
			if err != nil {
				t.Fatal(err)
			}
			c := tbs.NewConcurrent(s)
			for i := 1; i <= 10; i++ {
				c.Advance(batch(i, 20))
			}
			want := c.ExpectedSize()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf []int
					for i := 0; i < 50; i++ {
						buf = c.AppendSample(buf[:0])
						if float64(len(buf)) < want-1 || float64(len(buf)) > want+1 {
							t.Errorf("AppendSample size %d, expected about %v", len(buf), want)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
