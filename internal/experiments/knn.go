package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// SchemeSpec names a sampling scheme and constructs a fresh sampler for a
// run. The standard lineup of the paper's quality experiments is R-TBS
// (one per λ), SW and Unif; see RTBSScheme, SWScheme and UnifScheme.
type SchemeSpec[T any] struct {
	Name string
	New  func(rng *xrand.RNG) (core.Sampler[T], error)
}

// RTBSScheme builds an R-TBS sampler spec with the given decay rate and
// maximum sample size.
func RTBSScheme[T any](name string, lambda float64, n int) SchemeSpec[T] {
	return SchemeSpec[T]{Name: name, New: func(rng *xrand.RNG) (core.Sampler[T], error) {
		return core.NewRTBS[T](lambda, n, rng)
	}}
}

// SWScheme builds a count-based sliding-window spec holding the last n
// items.
func SWScheme[T any](n int) SchemeSpec[T] {
	return SchemeSpec[T]{Name: "SW", New: func(*xrand.RNG) (core.Sampler[T], error) {
		return core.NewSlidingWindow[T](n)
	}}
}

// UnifScheme builds a uniform batched-reservoir spec (the paper's "Unif").
func UnifScheme[T any](n int) SchemeSpec[T] {
	return SchemeSpec[T]{Name: "Unif", New: func(rng *xrand.RNG) (core.Sampler[T], error) {
		return core.NewBRS[T](n, rng)
	}}
}

// SchemeOutcome aggregates one scheme's performance over all runs.
type SchemeOutcome struct {
	Name string
	// Series is the per-step error averaged over runs (misclassification %
	// for classifiers, MSE for regression).
	Series []float64
	// Err is the overall mean error across steps and runs.
	Err float64
	// ES is the expected shortfall of the per-step error (averaged over
	// runs), computed from step ESFrom at level ESLevel.
	ES float64
}

// BatchPattern selects the batch-size process of a quality experiment.
type BatchPattern int

// Batch-size patterns used in Section 6.2's "varying batch size" study.
const (
	// BatchConstant: deterministic batches of the configured mean size.
	BatchConstant BatchPattern = iota
	// BatchUniform: i.i.d. Uniform[0, 2·mean] sizes (Figure 11(a)).
	BatchUniform
	// BatchGrowing: deterministic sizes growing 2% per step after warm-up
	// (Figure 11(b)).
	BatchGrowing
)

// KNNConfig parameterizes the kNN quality experiments (Section 6.2:
// Figures 10, 11, 14 and Table 1).
type KNNConfig struct {
	SampleSize int // reservoir/window size (paper: 1000)
	K          int // neighbours (paper: 7)
	BatchMean  int // mean batch size (paper: 100)
	Pattern    BatchPattern
	Schedule   datagen.Schedule
	Warmup     int // normal-mode batches before evaluation (paper: 100)
	Steps      int // evaluated batches after warm-up
	Runs       int // independent runs to average (paper: 30)
	ESLevel    float64
	ESFrom     int // first step included in the ES computation (paper: 20)
	Seed       uint64
}

func (c *KNNConfig) normalize() error {
	if c.SampleSize == 0 {
		c.SampleSize = 1000
	}
	if c.K == 0 {
		c.K = 7
	}
	if c.BatchMean == 0 {
		c.BatchMean = 100
	}
	if c.Schedule == nil {
		c.Schedule = datagen.Periodic{Delta: 10, Eta: 10}
	}
	if c.Warmup == 0 {
		c.Warmup = 100
	}
	if c.Steps == 0 {
		c.Steps = 50
	}
	if c.Runs == 0 {
		c.Runs = 30
	}
	if c.ESLevel == 0 {
		c.ESLevel = 0.10
	}
	if c.ESFrom == 0 {
		c.ESFrom = 20
	}
	if c.SampleSize < 1 || c.K < 1 || c.BatchMean < 1 || c.Steps < 1 || c.Runs < 1 ||
		c.ESLevel <= 0 || c.ESLevel > 1 || c.ESFrom < 1 || c.ESFrom > c.Steps {
		return fmt.Errorf("experiments: invalid kNN config %+v", *c)
	}
	return nil
}

// sizeProcess builds the batch-size process for one run.
func sizeProcess(pattern BatchPattern, mean, warmup int, rng *xrand.RNG) stream.SizeProcess {
	switch pattern {
	case BatchUniform:
		return stream.UniformIID{Lo: 0, Hi: 2 * mean, RNG: rng}
	case BatchGrowing:
		return &stream.Geometric{B0: float64(mean), Phi: 1.02, Start: warmup + 1}
	default:
		return stream.Deterministic{B: mean}
	}
}

// RunKNN executes the kNN retraining experiment for the given schemes,
// sharing one data stream per run across all schemes so comparisons are
// paired. Each incoming batch is classified with a kNN model over the
// current sample before the sample is updated with the batch, exactly as
// described in Section 6.2.
func RunKNN(cfg KNNConfig, schemes []SchemeSpec[datagen.Point]) ([]SchemeOutcome, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("experiments: no schemes given")
	}
	sum := make([][]float64, len(schemes)) // per scheme per step: summed rates
	cnt := make([][]int, len(schemes))
	for i := range sum {
		sum[i] = make([]float64, cfg.Steps)
		cnt[i] = make([]int, cfg.Steps)
	}
	missPerRun := make([][]float64, len(schemes)) // per scheme: run-mean errors
	esPerRun := make([][]float64, len(schemes))

	for run := 0; run < cfg.Runs; run++ {
		base := cfg.Seed + uint64(run)*1000
		gen, err := datagen.NewGMM(datagen.GMMConfig{
			Schedule: cfg.Schedule,
			Warmup:   cfg.Warmup,
		}, xrand.New(base))
		if err != nil {
			return nil, err
		}
		sizes := sizeProcess(cfg.Pattern, cfg.BatchMean, cfg.Warmup, xrand.New(base+1))
		samplers := make([]core.Sampler[datagen.Point], len(schemes))
		for i, s := range schemes {
			samplers[i], err = s.New(xrand.New(base + 2 + uint64(i)))
			if err != nil {
				return nil, err
			}
		}
		series := make([][]float64, len(schemes))
		for i := range series {
			series[i] = make([]float64, 0, cfg.Steps)
		}
		for t := 1; t <= cfg.Warmup+cfg.Steps; t++ {
			size := sizes.Next(t)
			if size < 0 {
				size = 0
			}
			batch := gen.Batch(t, size)
			if t > cfg.Warmup {
				step := t - cfg.Warmup - 1
				for i, s := range samplers {
					rate := evalKNNBatch(s.Sample(), batch, cfg.K)
					if !math.IsNaN(rate) {
						sum[i][step] += rate
						cnt[i][step]++
						series[i] = append(series[i], rate)
					}
				}
			}
			for _, s := range samplers {
				s.Advance(batch)
			}
		}
		for i := range schemes {
			if len(series[i]) == 0 {
				continue
			}
			missPerRun[i] = append(missPerRun[i], metrics.Mean(series[i]))
			from := cfg.ESFrom - 1
			if from >= len(series[i]) {
				from = 0
			}
			es, err := metrics.ExpectedShortfall(series[i][from:], cfg.ESLevel)
			if err != nil {
				return nil, err
			}
			esPerRun[i] = append(esPerRun[i], es)
		}
	}

	out := make([]SchemeOutcome, len(schemes))
	for i, s := range schemes {
		o := SchemeOutcome{Name: s.Name, Series: make([]float64, cfg.Steps)}
		for step := range o.Series {
			if cnt[i][step] > 0 {
				o.Series[step] = sum[i][step] / float64(cnt[i][step])
			}
		}
		o.Err = metrics.Mean(missPerRun[i])
		o.ES = metrics.Mean(esPerRun[i])
		out[i] = o
	}
	return out, nil
}

// evalKNNBatch classifies every point of the batch with a kNN model fit on
// the sample (2-D points, so Predict answers from the model's grid index)
// and returns the misclassification percentage, or NaN if either side is
// empty.
func evalKNNBatch(sample []datagen.Point, batch []datagen.Point, k int) float64 {
	if len(sample) == 0 || len(batch) == 0 {
		return math.NaN()
	}
	flat := make([]float64, 2*len(sample))
	xs := make([][]float64, len(sample))
	ys := make([]int, len(sample))
	for i, p := range sample {
		flat[2*i], flat[2*i+1] = p.X[0], p.X[1]
		xs[i] = flat[2*i : 2*i+2 : 2*i+2]
		ys[i] = p.Class
	}
	model, err := ml.NewKNN(k)
	if err != nil {
		return math.NaN()
	}
	if err := model.Fit(xs, ys); err != nil {
		return math.NaN()
	}
	wrong := 0
	q := make([]float64, 2)
	for _, p := range batch {
		q[0], q[1] = p.X[0], p.X[1]
		if model.Predict(q) != p.Class {
			wrong++
		}
	}
	return 100 * float64(wrong) / float64(len(batch))
}

// defaultKNNSchemes is the Figure 10/11/14 lineup: R-TBS at λ = 0.07, SW,
// and Unif, all with the same sample budget n.
func defaultKNNSchemes(n int) []SchemeSpec[datagen.Point] {
	return []SchemeSpec[datagen.Point]{
		RTBSScheme[datagen.Point]("R-TBS", 0.07, n),
		SWScheme[datagen.Point](n),
		UnifScheme[datagen.Point](n),
	}
}

// knnSeriesResult renders per-step series for the standard lineup.
func knnSeriesResult(id, title string, cfg KNNConfig) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	outcomes, err := RunKNN(cfg, defaultKNNSchemes(cfg.SampleSize))
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title, Header: []string{"t"}}
	for _, o := range outcomes {
		res.Header = append(res.Header, o.Name)
	}
	for step := 0; step < cfg.Steps; step++ {
		row := []string{fmt.Sprint(step + 1)}
		for _, o := range outcomes {
			row = append(row, f1(o.Series[step]))
		}
		res.Rows = append(res.Rows, row)
	}
	for _, o := range outcomes {
		res.Notes = append(res.Notes,
			fmt.Sprintf("%s: mean miss%% %.1f, %d%% ES %.1f", o.Name, o.Err, int(cfg.ESLevel*100), o.ES))
	}
	return res, nil
}

// Fig10a reproduces Figure 10(a): kNN misclassification under a single
// event (abnormal for 10 < t ≤ 20).
func Fig10a(runs int, seed uint64) (*Result, error) {
	return knnSeriesResult("fig10a", "kNN misclassification %, single event",
		KNNConfig{SampleSize: 1000, Schedule: datagen.SingleEvent{Start: 10, End: 20}, Steps: 30, Runs: runs, Seed: seed})
}

// Fig10b reproduces Figure 10(b): kNN misclassification under
// Periodic(10, 10).
func Fig10b(runs int, seed uint64) (*Result, error) {
	return knnSeriesResult("fig10b", "kNN misclassification %, Periodic(10,10)",
		KNNConfig{SampleSize: 1000, Schedule: datagen.Periodic{Delta: 10, Eta: 10}, Steps: 50, Runs: runs, Seed: seed})
}

// Fig11a reproduces Figure 11(a): Periodic(10,10) with Uniform(0, 200)
// batch sizes.
func Fig11a(runs int, seed uint64) (*Result, error) {
	return knnSeriesResult("fig11a", "kNN misclassification %, uniform batch sizes, Periodic(10,10)",
		KNNConfig{SampleSize: 1000, Pattern: BatchUniform, Schedule: datagen.Periodic{Delta: 10, Eta: 10}, Steps: 50, Runs: runs, Seed: seed})
}

// Fig11b reproduces Figure 11(b): Periodic(10,10) with batch sizes growing
// 2% per step after warm-up.
func Fig11b(runs int, seed uint64) (*Result, error) {
	return knnSeriesResult("fig11b", "kNN misclassification %, growing batch sizes, Periodic(10,10)",
		KNNConfig{SampleSize: 1000, Pattern: BatchGrowing, Schedule: datagen.Periodic{Delta: 10, Eta: 10}, Steps: 50, Runs: runs, Seed: seed})
}

// Fig14a reproduces Figure 14(a): Periodic(20, 10).
func Fig14a(runs int, seed uint64) (*Result, error) {
	return knnSeriesResult("fig14a", "kNN misclassification %, Periodic(20,10)",
		KNNConfig{SampleSize: 1000, Schedule: datagen.Periodic{Delta: 20, Eta: 10}, Steps: 60, Runs: runs, Seed: seed})
}

// Fig14b reproduces Figure 14(b): Periodic(30, 10).
func Fig14b(runs int, seed uint64) (*Result, error) {
	return knnSeriesResult("fig14b", "kNN misclassification %, Periodic(30,10)",
		KNNConfig{SampleSize: 1000, Schedule: datagen.Periodic{Delta: 30, Eta: 10}, Steps: 70, Runs: runs, Seed: seed})
}

// Table1 reproduces Table 1: accuracy (mean misclassification %) and
// robustness (10% ES from t = 20) of the kNN classifier for R-TBS at
// λ ∈ {0.05, 0.07, 0.10}, SW, and Unif across four temporal patterns,
// averaged over `runs` runs (the paper uses 30).
func Table1(runs int, seed uint64) (*Result, error) {
	patterns := []struct {
		name     string
		schedule datagen.Schedule
		steps    int
	}{
		{"Single", datagen.SingleEvent{Start: 10, End: 20}, 30},
		{"P(10,10)", datagen.Periodic{Delta: 10, Eta: 10}, 50},
		{"P(20,10)", datagen.Periodic{Delta: 20, Eta: 10}, 60},
		{"P(30,10)", datagen.Periodic{Delta: 30, Eta: 10}, 70},
	}
	schemes := []SchemeSpec[datagen.Point]{
		RTBSScheme[datagen.Point]("λ=0.05", 0.05, 1000),
		RTBSScheme[datagen.Point]("λ=0.07", 0.07, 1000),
		RTBSScheme[datagen.Point]("λ=0.10", 0.10, 1000),
		SWScheme[datagen.Point](1000),
		UnifScheme[datagen.Point](1000),
	}
	res := &Result{
		ID:    "table1",
		Title: fmt.Sprintf("kNN accuracy and robustness (%d runs)", runs),
		Header: []string{"scheme",
			"Single Miss%", "Single ES",
			"P(10,10) Miss%", "P(10,10) ES",
			"P(20,10) Miss%", "P(20,10) ES",
			"P(30,10) Miss%", "P(30,10) ES"},
	}
	rows := make([][]string, len(schemes))
	for i, s := range schemes {
		rows[i] = []string{s.Name}
	}
	for pi, p := range patterns {
		outcomes, err := RunKNN(KNNConfig{
			SampleSize: 1000, Schedule: p.schedule, Steps: p.steps,
			Runs: runs, Seed: seed + uint64(pi)*1_000_000,
		}, schemes)
		if err != nil {
			return nil, err
		}
		for i, o := range outcomes {
			rows[i] = append(rows[i], f1(o.Err), f1(o.ES))
		}
	}
	res.Rows = rows
	res.Notes = append(res.Notes,
		"paper (Table 1): Unif worst accuracy by a large margin; SW worst robustness (ES 1.4–2.7× R-TBS)")
	return res, nil
}
