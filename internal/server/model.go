package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/manage"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/tbs"
)

// This file is the online model-management loop of the paper (Section 6)
// wired into the multi-tenant server: a stream can carry a managed model
// that is scored on every closed batch at the engine's batch boundary,
// and retrained from the current temporally-biased sample when the
// retraining policy fires. The split of work is what keeps ingest
// throughput unaffected:
//
//	ingest request  → append to the open batch (no model work at all)
//	batch boundary  → score + policy decision + sample snapshot, on the
//	                  engine shard worker (the apply path, already
//	                  asynchronous to ingest)
//	retrain         → parse + fit on the engine's background lane, then
//	                  an atomic swap of the deployed model
//
// Determinism: the boundary waits for the previous retrain to have
// swapped before scoring (waitIdle), so the model scoring batch t is
// always the outcome of every retrain decision ≤ t−1 — the error series,
// the policy decisions, and the retrain count are pure functions of the
// batch sequence, never of scheduler timing. That is what lets model
// state ride the checkpoint envelope and survive kill+restart with
// byte-identical predictions.

// labeledRow is the wire form of a labeled item inside the ordinary item
// stream: {"x":[...],"y":<number>}. For knn and nb the label is an integer
// class (nb additionally reads x as integer word ids); for linreg it is
// the regression target. Items missing x or y are sampled as usual but
// ignored by scoring and training, so labeled and unlabeled traffic share
// a stream.
type labeledRow struct {
	X []float64 `json:"x"`
	Y *float64  `json:"y"`
}

// parseRow extracts a labeled row from an opaque item; ok is false for
// unlabeled or malformed items. Canonical rows decode on the byte-level
// fast path; anything else (non-canonical key order, extra members,
// out-of-range numbers) takes the reflective reference path, so the
// accepted language and decoded values are unchanged. x may alias buf.
func parseRow(it Item, buf []float64) (x []float64, y float64, ok bool) {
	if wire.IsBinItem(it) {
		// Binary rows skip text entirely: the floats are right there. A
		// one-float row is an unlabeled value, like {"v":N}.
		vals, err := wire.BinItemFloats(it, buf[:0])
		if err != nil || len(vals) < 2 {
			return nil, 0, false
		}
		return vals[:len(vals)-1], vals[len(vals)-1], true
	}
	if fx, fy, fok := wire.ParseLabeledRow(it, buf); fok {
		return fx, fy, len(fx) > 0
	}
	var row labeledRow
	if err := json.Unmarshal(it, &row); err != nil || len(row.X) == 0 || row.Y == nil {
		return nil, 0, false
	}
	return row.X, *row.Y, true
}

// rowCache memoizes parseRow for one managed model, so each sampled row
// is parsed once — when its batch is scored — instead of once per
// retrain for as long as it stays in the sample. Entries are keyed by
// the item's bytes, not by the item's memory, so correctness never
// depends on item buffers not being reused; lookups with m[string(it)]
// do not allocate.
//
// Bound: score first drops the rows of the previous batch that no
// retrain has confirmed into a sample, and each retrain drops every row
// outside its snapshot, so the cache holds at most one sample plus one
// batch.
//
// Locking: none of its own. The boundary uses it only after waitIdle
// and before it sets inFlight; the retrain uses it only while inFlight
// is set. inFlight changes under managedModel.mu, so the two never run
// at once and each sees the other's writes.
type rowCache struct {
	rows    map[string]*cachedRow
	retrain uint64       // stamp of the latest retrain
	pending []*cachedRow // rows the last score added, unconfirmed so far
	buf     []float64
}

// cachedRow is one decoded item under its map key; seen is the stamp of
// the latest retrain whose snapshot held it (0: only scored so far).
type cachedRow struct {
	key  string
	x    []float64
	y    float64
	ok   bool
	seen uint64
}

func newRowCache() *rowCache { return &rowCache{rows: make(map[string]*cachedRow)} }

// get returns the decoded item, parsing and caching it on a miss. added
// reports a miss.
func (c *rowCache) get(it Item) (r *cachedRow, added bool) {
	if r := c.rows[string(it)]; r != nil {
		return r, false
	}
	x, y, ok := parseRow(it, c.buf)
	if ok {
		c.buf = x[:0]
		x = append(make([]float64, 0, len(x)), x...)
	}
	r = &cachedRow{key: string(it), x: x, y: y, ok: ok}
	c.rows[r.key] = r
	return r, true
}

// scoreRows decodes a batch for scoring, after dropping the previous
// batch's rows that did not enter a sample a retrain has since seen.
func (c *rowCache) scoreRows(batch []Item) []*cachedRow {
	for _, r := range c.pending {
		if r.seen == 0 {
			delete(c.rows, r.key)
		}
	}
	c.pending = c.pending[:0]
	rows := make([]*cachedRow, len(batch))
	for i, it := range batch {
		r, added := c.get(it)
		if added {
			c.pending = append(c.pending, r)
		}
		rows[i] = r
	}
	return rows
}

// snapshotRows decodes a retrain snapshot and then drops every row
// outside it.
func (c *rowCache) snapshotRows(snap []Item) []*cachedRow {
	c.retrain++
	rows := make([]*cachedRow, len(snap))
	for i, it := range snap {
		r, _ := c.get(it)
		r.seen = c.retrain
		rows[i] = r
	}
	for k, r := range c.rows {
		if r.seen != c.retrain {
			delete(c.rows, k)
		}
	}
	c.pending = c.pending[:0]
	return rows
}

// DriftParams are the OnDrift detector knobs exposed through the API;
// zero values select the manage package defaults.
type DriftParams struct {
	Window   int     `json:"window,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	MinObs   int     `json:"minObs,omitempty"`
	MaxStale int     `json:"maxStale,omitempty"`
}

// ModelSpec is the body of PUT /v1/streams/{key}/model: which learner to
// manage and under which retraining policy.
type ModelSpec struct {
	// Learner selects the model family: "knn", "linreg" or "nb".
	Learner string `json:"learner"`

	// K is the kNN neighbour count (default 7, the paper's Section 6.2
	// setting).
	K int `json:"k,omitempty"`

	// Intercept selects whether linreg fits a constant term (default
	// true).
	Intercept *bool `json:"intercept,omitempty"`

	// Classes and Vocab are lower bounds on the Naive Bayes label and
	// word-id spaces; the trainer widens both to cover the sample, so zero
	// means "infer from data".
	Classes int `json:"classes,omitempty"`
	Vocab   int `json:"vocab,omitempty"`

	// Alpha is the Naive Bayes Laplace smoothing constant (default 1).
	Alpha float64 `json:"alpha,omitempty"`

	// Policy selects the retraining policy: "always", "every:K", or
	// "drift" (tuned via Drift).
	Policy string `json:"policy"`

	// Drift carries the OnDrift parameters when Policy is "drift".
	Drift *DriftParams `json:"drift,omitempty"`
}

// normalize validates the spec and fills defaults in place.
func (sp *ModelSpec) normalize() error {
	switch sp.Learner {
	case "knn":
		if sp.K == 0 {
			sp.K = 7
		}
		if sp.K < 1 {
			return fmt.Errorf("model: k must be positive, got %d", sp.K)
		}
	case "linreg":
		if sp.Intercept == nil {
			t := true
			sp.Intercept = &t
		}
	case "nb":
		if sp.Alpha == 0 {
			sp.Alpha = 1
		}
		if sp.Alpha < 0 {
			return fmt.Errorf("model: alpha must be positive, got %v", sp.Alpha)
		}
		if sp.Classes < 0 || sp.Classes > maxModelClasses {
			return fmt.Errorf("model: classes must be in [0,%d], got %d", maxModelClasses, sp.Classes)
		}
		if sp.Vocab < 0 || sp.Vocab > maxModelVocab {
			return fmt.Errorf("model: vocab must be in [0,%d], got %d", maxModelVocab, sp.Vocab)
		}
		if sp.Classes*sp.Vocab > maxModelCells {
			return fmt.Errorf("model: classes×vocab = %d exceeds the %d-cell limit", sp.Classes*sp.Vocab, maxModelCells)
		}
	case "":
		return errors.New("model: missing learner (knn, linreg or nb)")
	default:
		return fmt.Errorf("model: unknown learner %q (want knn, linreg or nb)", sp.Learner)
	}
	if sp.Policy == "" {
		sp.Policy = "always"
	}
	_, err := sp.buildPolicy()
	return err
}

// buildPolicy constructs a fresh policy instance from the spec.
func (sp ModelSpec) buildPolicy() (manage.Policy, error) {
	switch {
	case sp.Policy == "always":
		return manage.Always{}, nil
	case strings.HasPrefix(sp.Policy, "every:"):
		k, err := strconv.Atoi(strings.TrimPrefix(sp.Policy, "every:"))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("model: policy %q needs a positive batch count, e.g. every:5", sp.Policy)
		}
		return manage.Every{K: k}, nil
	case sp.Policy == "drift":
		d := &manage.OnDrift{}
		if sp.Drift != nil {
			d.Window, d.Factor = sp.Drift.Window, sp.Drift.Factor
			d.MinObs, d.MaxStale = sp.Drift.MinObs, sp.Drift.MaxStale
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		return d, nil
	default:
		return nil, fmt.Errorf("model: unknown policy %q (want always, every:K or drift)", sp.Policy)
	}
}

// classifier reports whether the learner's batch error is a
// misclassification percentage (true) or MSE (false).
func (sp ModelSpec) classifier() bool { return sp.Learner != "linreg" }

// deployedModel is one immutable trained model; predict never mutates it,
// so a pointer to it can be swapped atomically and read lock-free while a
// replacement trains.
type deployedModel struct {
	kind      string
	trainSize int
	knn       *ml.KNN
	lr        *ml.LinearRegression
	nb        *ml.NaiveBayes
}

// predict returns the model's output for a feature vector: the class (as
// a float) for classifiers, the regression value for linreg.
func (d *deployedModel) predict(x []float64) float64 {
	switch d.kind {
	case "knn":
		return float64(d.knn.Predict(x))
	case "linreg":
		return d.lr.Predict(x)
	default:
		return float64(d.nb.Predict(wordIDs(x)))
	}
}

// gobBytes serializes the underlying learner for the checkpoint envelope.
func (d *deployedModel) gobBytes() ([]byte, error) {
	switch d.kind {
	case "knn":
		return d.knn.GobEncode()
	case "linreg":
		return d.lr.GobEncode()
	default:
		return d.nb.GobEncode()
	}
}

// decodeDeployed inverts gobBytes.
func decodeDeployed(kind string, data []byte, trainSize int) (*deployedModel, error) {
	d := &deployedModel{kind: kind, trainSize: trainSize}
	switch kind {
	case "knn":
		d.knn = new(ml.KNN)
		return d, d.knn.GobDecode(data)
	case "linreg":
		d.lr = new(ml.LinearRegression)
		return d, d.lr.GobDecode(data)
	case "nb":
		d.nb = new(ml.NaiveBayes)
		return d, d.nb.GobDecode(data)
	}
	return nil, fmt.Errorf("model: unknown learner %q in checkpoint", kind)
}

// wordIDs converts a feature vector to Naive Bayes word identifiers.
func wordIDs(x []float64) []int {
	w := make([]int, len(x))
	for i, v := range x {
		w[i] = int(v)
	}
	return w
}

// errNoLabeledData marks a retrain attempt over a sample without a single
// labeled row.
var errNoLabeledData = errors.New("model: sample holds no labeled rows ({\"x\":[...],\"y\":N})")

// Model-shape caps. Labels, word ids and feature dimensions come from
// client-supplied rows, and the fitters allocate proportionally to them
// (Naive Bayes builds classes×vocab tables, OLS a (d+1)² normal matrix) —
// one hostile row like {"x":[0],"y":1e15} must produce a surfaced train
// failure, not an out-of-memory crash on the background worker.
const (
	maxModelClasses  = 1 << 12 // Naive Bayes / kNN label space
	maxModelVocab    = 1 << 20 // Naive Bayes word-id space
	maxModelFeatures = 512     // feature dimensions per row (linreg fits (d+1)²)
	// maxModelCells caps classes×vocab jointly: Naive Bayes allocates two
	// tables of that many float64s, and the per-axis caps alone still
	// admit a ~4096×2²⁰ = 2³²-cell product.
	maxModelCells = 1 << 22
)

// trainModel fits a fresh model of the spec's family on the labeled rows
// of a realized sample, decoding them through rows. It is a pure
// function of (spec, snap) — the cache only saves parsing, and a cold
// and a warm cache yield the same model — the property that makes
// asynchronous retraining deterministic.
func trainModel(spec ModelSpec, snap []Item, rows *rowCache) (*deployedModel, error) {
	xs := make([][]float64, 0, len(snap))
	ys := make([]float64, 0, len(snap))
	for _, r := range rows.snapshotRows(snap) {
		if r.ok {
			if len(r.x) > maxModelFeatures {
				return nil, fmt.Errorf("model: labeled row has %d features, limit %d", len(r.x), maxModelFeatures)
			}
			xs = append(xs, r.x)
			ys = append(ys, r.y)
		}
	}
	if len(xs) == 0 {
		return nil, errNoLabeledData
	}
	if spec.classifier() {
		for _, y := range ys {
			if y < 0 || y >= maxModelClasses || y != float64(int(y)) {
				return nil, fmt.Errorf("model: label %v out of range [0,%d)", y, maxModelClasses)
			}
		}
	}
	d := &deployedModel{kind: spec.Learner, trainSize: len(xs)}
	switch spec.Learner {
	case "knn":
		m, err := ml.NewKNN(spec.K)
		if err != nil {
			return nil, err
		}
		labels := make([]int, len(ys))
		for i, y := range ys {
			labels[i] = int(y)
		}
		if err := m.Fit(xs, labels); err != nil {
			return nil, err
		}
		d.knn = m
	case "linreg":
		m, err := ml.FitOLS(xs, ys, *spec.Intercept)
		if err != nil {
			return nil, err
		}
		d.lr = m
	case "nb":
		docs := make([][]int, len(xs))
		labels := make([]int, len(ys))
		classes, vocab := spec.Classes, spec.Vocab
		for i, x := range xs {
			docs[i] = wordIDs(x)
			labels[i] = int(ys[i])
			if labels[i]+1 > classes {
				classes = labels[i] + 1
			}
			for _, w := range docs[i] {
				if w < 0 || w >= maxModelVocab {
					return nil, fmt.Errorf("model: word id %d out of range [0,%d)", w, maxModelVocab)
				}
				if w+1 > vocab {
					vocab = w + 1
				}
			}
		}
		if classes < 2 {
			classes = 2
		}
		if classes*vocab > maxModelCells {
			return nil, fmt.Errorf("model: inferred classes×vocab = %d×%d exceeds the %d-cell limit",
				classes, vocab, maxModelCells)
		}
		m, err := ml.FitNaiveBayes(docs, labels, classes, vocab, spec.Alpha)
		if err != nil {
			return nil, err
		}
		d.nb = m
	}
	return d, nil
}

// managedModel is the per-stream model-management state. The deployed
// model is an atomic pointer so /predict never takes a lock that a
// retrain holds; everything else (policy state, counters) lives under mu.
// cond signals inFlight clearing.
type managedModel struct {
	spec     ModelSpec
	policy   manage.Policy
	deployed atomic.Pointer[deployedModel]

	// runBg dispatches a retrain job off the apply path; it returns an
	// error when no background lane exists and the caller must run the job
	// inline. metrics receives retrain/score observations.
	runBg   func(func()) error
	metrics *Metrics

	// onSwap, when set, journals each completed retrain deployment to the
	// WAL (entry.journalSwapRecord). Assigned before the model is
	// published to its entry, never after.
	onSwap func(retrains uint64)

	mu       sync.Mutex
	cond     *sync.Cond
	inFlight bool // a retrain is training on the background lane

	// rows is the decoded-row cache score and trainModel share; see
	// rowCache for why it needs no lock.
	rows *rowCache

	t             int     // batch boundaries scored since attach/restore
	retrains      uint64  // completed successful (re)trainings
	staleness     int     // boundaries since the last successful training
	lastErr       float64 // model error on the latest batch (NaN: unscorable)
	errSum        float64 // cumulative error over scorable batches
	errN          uint64
	trainFailures uint64
	lastTrainErr  string

	// encCache memoizes the deployed model's gob encoding for checkpoint
	// passes: any ingest dirties the entry, but the model (potentially a
	// whole realized training sample, for kNN) only changes when retrains
	// advances — re-encoding it every pass would be O(sample) per stream
	// per checkpoint interval for nothing.
	encCache    []byte
	encRetrains uint64
	encValid    bool
}

// newManagedModel builds the runtime state for a validated spec.
func newManagedModel(spec ModelSpec, runBg func(func()) error, metrics *Metrics) (*managedModel, error) {
	policy, err := spec.buildPolicy()
	if err != nil {
		return nil, err
	}
	mm := &managedModel{spec: spec, policy: policy, runBg: runBg, metrics: metrics, lastErr: math.NaN(), rows: newRowCache()}
	mm.cond = sync.NewCond(&mm.mu)
	return mm, nil
}

// waitIdle blocks until no retrain is in flight. Callers rely on it for
// determinism (scoring, checkpointing) and read-your-retrains semantics
// (model stats).
func (mm *managedModel) waitIdle() {
	mm.mu.Lock()
	for mm.inFlight {
		mm.cond.Wait()
	}
	mm.mu.Unlock()
}

// score evaluates the deployed model on the labeled rows of a batch:
// misclassification percentage for classifiers, MSE for linreg, NaN when
// there is no model or no labeled row.
func (mm *managedModel) score(batch []Item) float64 {
	d := mm.deployed.Load()
	if d == nil {
		return math.NaN()
	}
	wrong, n := 0, 0
	sqSum := 0.0
	for _, r := range mm.rows.scoreRows(batch) {
		if !r.ok {
			continue
		}
		n++
		p := d.predict(r.x)
		if mm.spec.classifier() {
			if int(p) != int(r.y) {
				wrong++
			}
		} else {
			sqSum += (p - r.y) * (p - r.y)
		}
	}
	if n == 0 {
		return math.NaN()
	}
	if mm.spec.classifier() {
		return 100 * float64(wrong) / float64(n)
	}
	return sqSum / float64(n)
}

// onBoundary runs the paper's Step at one batch boundary: wait for the
// previous retrain to deploy, score the incoming batch with the deployed
// model, fold the batch into the sample, and dispatch a retrain from the
// current sample if the policy fires (or no model exists yet). It is
// called on the engine shard worker with the entry lock held, so the
// whole step is atomic with respect to checkpoints — a checkpoint can
// never observe the sampler advanced past a boundary whose policy
// decision it has not yet captured.
// onBoundary owns btr, the boundary trace (nil when tracing is off): it
// records the score and policy stages and finishes the trace — unless a
// retrain fires, in which case trainAndSwap finishes it after recording
// the retrain and swap stages.
func (mm *managedModel) onBoundary(sampler *tbs.Concurrent[Item], batch []Item, btr *obs.Trace) {
	mm.waitIdle()
	scoreStart := time.Now()
	errScore := mm.score(batch)
	btr.StageSince(obs.StageScore, scoreStart)
	sampler.Advance(batch)

	policyStart := time.Now()
	mm.mu.Lock()
	mm.t++
	mm.staleness++
	mm.lastErr = errScore
	if !math.IsNaN(errScore) {
		mm.errSum += errScore
		mm.errN++
		mm.metrics.ObserveModelScore()
	}
	fire := mm.policy.ShouldRetrain(mm.t, errScore) || mm.deployed.Load() == nil
	var snap []Item
	if fire {
		// Realize the sample through the zero-alloc append machinery into
		// a buffer owned by the retrain job. For R-TBS this consumes RNG
		// draws, which is why the snapshot happens here, inside the
		// entry-locked boundary: the sampler's stochastic process stays a
		// deterministic function of the batch sequence.
		snap = sampler.AppendSample(make([]Item, 0, int(sampler.ExpectedSize())+8))
		if len(snap) == 0 {
			fire = false // nothing to train on yet; mirror manage.Manager
		}
	}
	if fire {
		mm.inFlight = true
	}
	mm.mu.Unlock()
	btr.StageSince(obs.StagePolicy, policyStart)

	if fire {
		job := func() { mm.trainAndSwap(snap, btr) }
		if mm.runBg == nil || mm.runBg(job) != nil {
			job()
		}
	} else {
		btr.Finish(0)
	}
}

// trainAndSwap fits a replacement model from a sample snapshot and
// atomically deploys it; a failed training keeps the previous model
// (manage.Manager semantics). Runs on the background lane — or inline
// when the lane is absent or draining.
func (mm *managedModel) trainAndSwap(snap []Item, btr *obs.Trace) {
	trainStart := time.Now()
	model, err := trainModel(mm.spec, snap, mm.rows)
	btr.StageSince(obs.StageRetrain, trainStart)
	swapStart := time.Now()
	mm.mu.Lock()
	if err != nil {
		mm.trainFailures++
		mm.lastTrainErr = err.Error()
		mm.metrics.ObserveRetrain(false)
	} else {
		mm.deployed.Store(model)
		mm.retrains++
		mm.staleness = 0
		mm.lastTrainErr = ""
		mm.metrics.ObserveRetrain(true)
		if mm.onSwap != nil {
			// Journal the deployment. Replay recomputes retrains from the
			// boundary sequence, so this record is bookkeeping — but it
			// makes every acknowledged model swap visible in the log.
			mm.onSwap(mm.retrains)
		}
	}
	mm.inFlight = false
	mm.cond.Broadcast()
	mm.mu.Unlock()
	btr.StageSince(obs.StageSwap, swapStart)
	status := 0
	if err != nil {
		status = 1
	}
	btr.Finish(status)
}

// modelStats is the JSON shape of GET …/model/stats and of the stats
// section in GET …/model.
type modelStats struct {
	Learner       string              `json:"learner"`
	Policy        string              `json:"policy"`
	HasModel      bool                `json:"hasModel"`
	TrainSize     int                 `json:"trainSize,omitempty"`
	Batches       int                 `json:"batches"`
	ScoredBatches uint64              `json:"scoredBatches"`
	Retrains      uint64              `json:"retrains"`
	Staleness     int                 `json:"staleness"`
	LastBatchErr  *float64            `json:"lastBatchErr,omitempty"`
	MeanBatchErr  *float64            `json:"meanBatchErr,omitempty"`
	TrainFailures uint64              `json:"trainFailures,omitempty"`
	LastTrainErr  string              `json:"lastTrainError,omitempty"`
	PolicyState   *manage.PolicyState `json:"policyState,omitempty"`
}

// stats snapshots the observable model state. It waits for any in-flight
// retrain first, so the numbers are the deterministic post-boundary state
// (read-your-retrains — the property the kill+restart e2e asserts on).
func (mm *managedModel) stats() modelStats {
	mm.waitIdle()
	mm.mu.Lock()
	defer mm.mu.Unlock()
	st := modelStats{
		Learner:       mm.spec.Learner,
		Policy:        mm.spec.Policy,
		Batches:       mm.t,
		ScoredBatches: mm.errN,
		Retrains:      mm.retrains,
		Staleness:     mm.staleness,
		TrainFailures: mm.trainFailures,
		LastTrainErr:  mm.lastTrainErr,
	}
	if d := mm.deployed.Load(); d != nil {
		st.HasModel = true
		st.TrainSize = d.trainSize
	}
	if !math.IsNaN(mm.lastErr) {
		v := mm.lastErr
		st.LastBatchErr = &v
	}
	if mm.errN > 0 {
		v := mm.errSum / float64(mm.errN)
		st.MeanBatchErr = &v
	}
	if sp, ok := mm.policy.(manage.StatefulPolicy); ok {
		ps := sp.State()
		st.PolicyState = &ps
	}
	return st
}

// modelCheckpoint is the model section of a stream's checkpoint record:
// spec, policy state, counters, and the deployed model itself
// (gob-encoded), so a restored stream serves the same predictions it
// served before the kill.
type modelCheckpoint struct {
	Spec          ModelSpec           `json:"spec"`
	PolicyState   *manage.PolicyState `json:"policyState,omitempty"`
	T             int                 `json:"t"`
	Retrains      uint64              `json:"retrains"`
	Staleness     int                 `json:"staleness"`
	LastErr       *float64            `json:"lastErr,omitempty"`
	ErrSum        float64             `json:"errSum"`
	ErrN          uint64              `json:"errN"`
	TrainFailures uint64              `json:"trainFailures,omitempty"`
	LastTrainErr  string              `json:"lastTrainError,omitempty"`
	Model         []byte              `json:"model,omitempty"`
	TrainSize     int                 `json:"trainSize,omitempty"`
}

// capture serializes the model state for a checkpoint. The caller holds
// the entry lock, so no new boundary can start; capture only has to wait
// out a retrain already on the background lane.
func (mm *managedModel) capture() (*modelCheckpoint, error) {
	mm.waitIdle()
	mm.mu.Lock()
	defer mm.mu.Unlock()
	st := &modelCheckpoint{
		Spec:          mm.spec,
		T:             mm.t,
		Retrains:      mm.retrains,
		Staleness:     mm.staleness,
		ErrSum:        mm.errSum,
		ErrN:          mm.errN,
		TrainFailures: mm.trainFailures,
		LastTrainErr:  mm.lastTrainErr,
	}
	if !math.IsNaN(mm.lastErr) {
		v := mm.lastErr
		st.LastErr = &v
	}
	if sp, ok := mm.policy.(manage.StatefulPolicy); ok {
		ps := sp.State()
		st.PolicyState = &ps
	}
	if d := mm.deployed.Load(); d != nil {
		if !mm.encValid || mm.encRetrains != mm.retrains {
			data, err := d.gobBytes()
			if err != nil {
				return nil, fmt.Errorf("model: encode deployed %s: %w", d.kind, err)
			}
			mm.encCache, mm.encRetrains, mm.encValid = data, mm.retrains, true
		}
		st.Model = mm.encCache
		st.TrainSize = d.trainSize
	}
	return st, nil
}

// restoreManagedModel rebuilds the runtime state from a checkpoint
// record.
func restoreManagedModel(st *modelCheckpoint, runBg func(func()) error, metrics *Metrics) (*managedModel, error) {
	spec := st.Spec
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	mm, err := newManagedModel(spec, runBg, metrics)
	if err != nil {
		return nil, err
	}
	mm.t = st.T
	mm.retrains = st.Retrains
	mm.staleness = st.Staleness
	mm.errSum, mm.errN = st.ErrSum, st.ErrN
	mm.trainFailures, mm.lastTrainErr = st.TrainFailures, st.LastTrainErr
	if st.LastErr != nil {
		mm.lastErr = *st.LastErr
	}
	if st.PolicyState != nil {
		if sp, ok := mm.policy.(manage.StatefulPolicy); ok {
			sp.SetState(*st.PolicyState)
		}
	}
	if len(st.Model) > 0 {
		d, err := decodeDeployed(spec.Learner, st.Model, st.TrainSize)
		if err != nil {
			return nil, err
		}
		mm.deployed.Store(d)
		// The checkpoint bytes are the current encoding; prime the cache
		// so the first post-restore checkpoint pass skips the re-encode.
		mm.encCache, mm.encRetrains, mm.encValid = st.Model, mm.retrains, true
	}
	return mm, nil
}
