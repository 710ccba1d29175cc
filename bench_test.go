// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices listed under "Ablation
// benches" in EXPERIMENTS.md and microbenchmarks of the core samplers.
// Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table benches execute the corresponding experiment (quick
// replication) per iteration and report the headline numbers as custom
// metrics, so `-bench` output doubles as a compact reproduction log;
// cmd/tbsbench prints the full series.
package repro

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/manage"
	"repro/internal/ml"
	"repro/internal/xrand"
)

// lastF extracts a float from the last row's given column of a result.
func lastF(b *testing.B, res *experiments.Result, col int) float64 {
	b.Helper()
	row := res.Rows[len(res.Rows)-1]
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		b.Fatalf("parse %q: %v", row[col], err)
	}
	return v
}

func BenchmarkFig1(b *testing.B) {
	for _, variant := range []experiments.Fig1Variant{
		experiments.Fig1Growing, experiments.Fig1StableDet,
		experiments.Fig1StableUnif, experiments.Fig1Decaying,
	} {
		b.Run(string(variant), func(b *testing.B) {
			var tt, rt float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig1(variant, 1000, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				tt, rt = lastF(b, res, 1), lastF(b, res, 2)
			}
			b.ReportMetric(tt, "final-TTBS-size")
			b.ReportMetric(rt, "final-RTBS-size")
		})
	}
}

func BenchmarkFig7(b *testing.B) {
	var rows [][]string
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Rows
	}
	for _, row := range rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		b.ReportMetric(v, "s/"+sanitize(row[0]))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')':
		case ',':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkFig8(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	for _, row := range res.Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		b.ReportMetric(v, "s/batch-"+row[0]+"w")
	}
}

func BenchmarkFig9(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	for _, row := range res.Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		b.ReportMetric(v, "s/batch-"+row[0])
	}
}

// benchKNNFig wraps the kNN figure experiments; the reported metrics are
// the mean misclassification rate and expected shortfall per scheme.
func benchKNNFig(b *testing.B, run func(runs int, seed uint64) (*experiments.Result, error)) {
	b.Helper()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := run(2, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	reportNotes(b, res)
}

// reportNotes turns "name: mean miss% X, Y% ES Z" notes into metrics.
func reportNotes(b *testing.B, res *experiments.Result) {
	b.Helper()
	for _, n := range res.Notes {
		var name string
		var miss, es float64
		var lvl int
		if c, _ := sscanNote(n, &name, &miss, &lvl, &es); c == 4 {
			b.ReportMetric(miss, "miss%-"+sanitize(name))
			b.ReportMetric(es, "ES-"+sanitize(name))
		}
	}
}

func sscanNote(s string, name *string, miss *float64, lvl *int, es *float64) (int, error) {
	// Format: "NAME: mean miss% M, L% ES E" or "NAME: mean MSE M, L% ES E".
	var rest string
	for i, r := range s {
		if r == ':' {
			*name = s[:i]
			rest = s[i+1:]
			break
		}
	}
	if rest == "" {
		return 0, nil
	}
	if n, err := fscan(rest, " mean miss%% %f, %d%% ES %f", miss, lvl, es); n == 3 {
		return 4, err
	}
	if n, err := fscan(rest, " mean MSE %f, %d%% ES %f", miss, lvl, es); n == 3 {
		return 4, err
	}
	return 0, nil
}

func fscan(s, format string, args ...any) (int, error) {
	return fmt.Sscanf(s, format, args...)
}

func BenchmarkFig10(b *testing.B) {
	b.Run("a-single-event", func(b *testing.B) { benchKNNFig(b, experiments.Fig10a) })
	b.Run("b-periodic-10-10", func(b *testing.B) { benchKNNFig(b, experiments.Fig10b) })
}

func BenchmarkFig11(b *testing.B) {
	b.Run("a-uniform-batches", func(b *testing.B) { benchKNNFig(b, experiments.Fig11a) })
	b.Run("b-growing-batches", func(b *testing.B) { benchKNNFig(b, experiments.Fig11b) })
}

func BenchmarkFig12(b *testing.B) {
	b.Run("a-saturated-1000", func(b *testing.B) { benchKNNFig(b, experiments.Fig12a) })
	b.Run("b-unsaturated-1600", func(b *testing.B) { benchKNNFig(b, experiments.Fig12b) })
	b.Run("c-periodic-16-16", func(b *testing.B) { benchKNNFig(b, experiments.Fig12c) })
}

func BenchmarkFig13(b *testing.B) { benchKNNFig(b, experiments.Fig13) }

func BenchmarkFig14(b *testing.B) {
	b.Run("a-periodic-20-10", func(b *testing.B) { benchKNNFig(b, experiments.Fig14a) })
	b.Run("b-periodic-30-10", func(b *testing.B) { benchKNNFig(b, experiments.Fig14b) })
}

func BenchmarkTable1(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(2, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	// Report the P(10,10) column (columns 3 and 4) for each scheme.
	for _, row := range res.Rows {
		miss, _ := strconv.ParseFloat(row[3], 64)
		es, _ := strconv.ParseFloat(row[4], 64)
		b.ReportMetric(miss, "P10-miss%-"+sanitize(row[0]))
		b.ReportMetric(es, "P10-ES-"+sanitize(row[0]))
	}
}

func BenchmarkChaoViolation(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.ChaoViolation(2000, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	oldest := res.Rows[0]
	rt, _ := strconv.ParseFloat(oldest[2], 64)
	ch, _ := strconv.ParseFloat(oldest[4], 64)
	b.ReportMetric(rt, "oldest-Pr-RTBS")
	b.ReportMetric(ch, "oldest-Pr-Chao")
}

func BenchmarkTTBSLaw(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.TTBSLaw(500, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	emp, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][1], 64)
	b.ReportMetric(emp, "E[C40]")
}

// --- Ablation benches (EXPERIMENTS.md, "Ablation benches") ---------------

// BenchmarkAblationRounding compares stochastic rounding against
// independent per-item coin flips for the saturated-case acceptance count:
// the paper's choice minimizes sample-size variance (Theorem 4.4).
func BenchmarkAblationRounding(b *testing.B) {
	const (
		n      = 1000
		batch  = 500.0
		w      = 3000.0
		trials = 10000
	)
	p := batch * float64(n) / w / batch // per-item acceptance probability
	b.Run("stochastic-round", func(b *testing.B) {
		rng := xrand.New(1)
		var variance float64
		for i := 0; i < b.N; i++ {
			var wf metricWelford
			for j := 0; j < trials; j++ {
				wf.add(float64(rng.StochasticRound(batch * float64(n) / w)))
			}
			variance = wf.variance()
		}
		b.ReportMetric(variance, "accept-count-var")
	})
	b.Run("per-item-flips", func(b *testing.B) {
		rng := xrand.New(1)
		var variance float64
		for i := 0; i < b.N; i++ {
			var wf metricWelford
			for j := 0; j < trials; j++ {
				wf.add(float64(rng.Binomial(int(batch), p)))
			}
			variance = wf.variance()
		}
		b.ReportMetric(variance, "accept-count-var")
	})
}

// metricWelford is a tiny local accumulator to keep the bench self-contained.
type metricWelford struct {
	n    int
	mean float64
	m2   float64
}

func (w *metricWelford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *metricWelford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// BenchmarkAblationFractional compares the latent fractional sample against
// an integer-truncated reservoir in the unsaturated regime: truncation
// loses expected sample size (Theorem 4.3 optimality).
func BenchmarkAblationFractional(b *testing.B) {
	const lambda, n, batch, steps = 0.3, 10000, 40, 80
	b.Run("fractional", func(b *testing.B) {
		var size float64
		for i := 0; i < b.N; i++ {
			s, err := core.NewRTBS[int](lambda, n, xrand.New(uint64(i)+1))
			if err != nil {
				b.Fatal(err)
			}
			for t := 0; t < steps; t++ {
				s.Advance(make([]int, batch))
			}
			size = s.ExpectedSize()
		}
		b.ReportMetric(size, "E-sample-size")
	})
	b.Run("truncated", func(b *testing.B) {
		// Integer truncation: decay the sample by flooring the decayed
		// weight (losing the fractional mass each step).
		var size float64
		for i := 0; i < b.N; i++ {
			rng := xrand.New(uint64(i) + 1)
			var sample []int
			for t := 0; t < steps; t++ {
				target := int(math.Floor(math.Exp(-lambda) * float64(len(sample))))
				sample = xrand.SampleInPlace(rng, sample, target)
				sample = append(sample, make([]int, batch)...)
			}
			size = float64(len(sample))
		}
		b.ReportMetric(size, "E-sample-size")
	})
}

// BenchmarkAblationBinomial compares simulating per-item coin flips with a
// single binomial draw (the paper's T-TBS optimization, Section 3) against
// literal per-item flips.
func BenchmarkAblationBinomial(b *testing.B) {
	const size, p = 100000, 0.93
	b.Run("binomial-draw", func(b *testing.B) {
		rng := xrand.New(1)
		items := make([]int, size)
		for i := 0; i < b.N; i++ {
			m := rng.Binomial(len(items), p)
			xrand.SampleInPlace(rng, items, m)
		}
	})
	b.Run("per-item-flips", func(b *testing.B) {
		rng := xrand.New(1)
		items := make([]int, size)
		scratch := make([]int, 0, size)
		for i := 0; i < b.N; i++ {
			scratch = scratch[:0]
			for _, it := range items {
				if rng.Bernoulli(p) {
					scratch = append(scratch, it)
				}
			}
		}
	})
}

// BenchmarkAblationRetrainPolicy compares retraining policies end-to-end on
// the kNN workload: accuracy (mean miss%) and retrain counts per policy.
func BenchmarkAblationRetrainPolicy(b *testing.B) {
	policies := []struct {
		name string
		mk   func() manage.Policy
	}{
		{"always", func() manage.Policy { return manage.Always{} }},
		{"every-10", func() manage.Policy { return manage.Every{K: 10} }},
		{"on-drift", func() manage.Policy {
			return &manage.OnDrift{Window: 8, Factor: 2, MinObs: 3, MaxStale: 25}
		}},
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			var miss float64
			var retrains int
			for i := 0; i < b.N; i++ {
				gen, err := datagen.NewGMM(datagen.GMMConfig{
					Schedule: datagen.Periodic{Delta: 10, Eta: 10},
					Warmup:   30,
				}, xrand.New(uint64(i)+5))
				if err != nil {
					b.Fatal(err)
				}
				sampler, err := core.NewRTBS[datagen.Point](0.07, 500, xrand.New(uint64(i)+6))
				if err != nil {
					b.Fatal(err)
				}
				mgr, err := manage.New(sampler, trainKNN, evalKNN, pc.mk())
				if err != nil {
					b.Fatal(err)
				}
				var errs []float64
				for t := 1; t <= 110; t++ {
					e, err := mgr.Step(gen.Batch(t, 100))
					if err != nil {
						b.Fatal(err)
					}
					if t > 30 && !math.IsNaN(e) {
						errs = append(errs, e)
					}
				}
				sum := 0.0
				for _, e := range errs {
					sum += e
				}
				miss = sum / float64(len(errs))
				retrains = mgr.Retrains()
			}
			b.ReportMetric(miss, "miss%")
			b.ReportMetric(float64(retrains), "retrains")
		})
	}
}

func trainKNN(sample []datagen.Point) (*ml.KNN, error) {
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
	return m, m.Fit(xs, ys)
}

func evalKNN(m *ml.KNN, batch []datagen.Point) float64 {
	wrong := 0
	for _, p := range batch {
		if m.Predict([]float64{p.X[0], p.X[1]}) != p.Class {
			wrong++
		}
	}
	return 100 * float64(wrong) / float64(len(batch))
}

// --- Ingest pipeline microbenchmarks --------------------------------------

// BenchmarkIngestRTBSSteadyState is the acceptance gate of the sharded
// zero-allocation ingest pipeline: a saturated R-TBS reservoir driven with
// Advance + AppendSample into caller-owned buffers must report 0 allocs/op.
// The copy variant shows what the pre-append API paid per call.
func BenchmarkIngestRTBSSteadyState(b *testing.B) {
	const n, lambda, batchSize = 10000, 0.07, 1000
	setup := func(b *testing.B) (*core.RTBS[int], []int) {
		b.Helper()
		s, err := core.NewRTBS[int](lambda, n, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]int, batchSize)
		for i := 0; i < 40; i++ {
			s.Advance(batch)
		}
		if !s.Saturated() {
			b.Fatal("warmup did not saturate the reservoir")
		}
		return s, batch
	}
	b.Run("advance+append", func(b *testing.B) {
		s, batch := setup(b)
		buf := make([]int, 0, n+1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Advance(batch)
			buf = s.AppendSample(buf[:0])
		}
		b.ReportMetric(float64(batchSize), "items/op")
	})
	b.Run("advance+sample-copy", func(b *testing.B) {
		s, batch := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Advance(batch)
			_ = s.Sample()
		}
		b.ReportMetric(float64(batchSize), "items/op")
	})
}

// --- Core sampler microbenchmarks -----------------------------------------

func benchSamplerAdvance(b *testing.B, mk func() core.Sampler[int], batchSize int) {
	b.Helper()
	s := mk()
	batch := make([]int, batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance(batch)
	}
	b.ReportMetric(float64(batchSize), "items/batch")
}

func BenchmarkSamplerAdvance(b *testing.B) {
	const n, lambda = 10000, 0.07
	for _, batchSize := range []int{100, 10000} {
		bs := strconv.Itoa(batchSize)
		b.Run("RTBS/"+bs, func(b *testing.B) {
			benchSamplerAdvance(b, func() core.Sampler[int] {
				s, _ := core.NewRTBS[int](lambda, n, xrand.New(1))
				return s
			}, batchSize)
		})
		b.Run("TTBS/"+bs, func(b *testing.B) {
			benchSamplerAdvance(b, func() core.Sampler[int] {
				// b = n keeps q = (1−e^−λ) < 1 valid for any batch size.
				s, err := core.NewTTBS[int](lambda, n, float64(n), xrand.New(1))
				if err != nil {
					b.Fatal(err)
				}
				return s
			}, batchSize)
		})
		b.Run("BRS/"+bs, func(b *testing.B) {
			benchSamplerAdvance(b, func() core.Sampler[int] {
				s, _ := core.NewBRS[int](n, xrand.New(1))
				return s
			}, batchSize)
		})
		b.Run("SW/"+bs, func(b *testing.B) {
			benchSamplerAdvance(b, func() core.Sampler[int] {
				s, _ := core.NewSlidingWindow[int](n)
				return s
			}, batchSize)
		})
		b.Run("BChao/"+bs, func(b *testing.B) {
			benchSamplerAdvance(b, func() core.Sampler[int] {
				s, _ := core.NewBChao[int](lambda, n, xrand.New(1))
				return s
			}, batchSize)
		})
	}
}

func BenchmarkDistProcessBatch(b *testing.B) {
	for _, v := range []struct {
		name string
		dec  dist.Decisions
		st   dist.StoreKind
	}{
		{"Dist-CP", dist.Distributed, dist.CoPartitioned},
		{"Cent-KV", dist.Centralized, dist.KeyValue},
	} {
		b.Run(v.name, func(b *testing.B) {
			d, err := dist.NewDRTBS(dist.Config{
				Workers: 12, Lambda: 0.07, Reservoir: 20000,
				Decisions: v.dec, Store: v.st, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]dist.Item, 10000)
			parts := dist.Partition(batch, 12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.ProcessBatch(parts)
			}
		})
	}
}

// BenchmarkDatagen measures the stream generators feeding the experiments.
func BenchmarkDatagen(b *testing.B) {
	b.Run("GMM", func(b *testing.B) {
		g, err := datagen.NewGMM(datagen.GMMConfig{}, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			g.Batch(i+1, 100)
		}
	})
	b.Run("Text", func(b *testing.B) {
		g, err := datagen.NewText(datagen.TextConfig{}, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			g.Batch(i+1, 50)
		}
	})
}
