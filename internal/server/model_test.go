package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// labeledBatch builds a deterministic, linearly separable 2-class batch:
// class 0 clusters near (0,0), class 1 near (10,10), with jitter derived
// arithmetically from (t, i) so two runs see byte-identical items.
func labeledBatch(t, size int) []map[string]any {
	rows := make([]map[string]any, size)
	for i := range rows {
		class := i % 2
		cx := float64(class * 10)
		dx := float64((t*31+i*17)%100) / 100
		dy := float64((t*13+i*7)%100) / 100
		rows[i] = map[string]any{"x": []float64{cx + dx, cx + dy}, "y": class}
	}
	return rows
}

type predictResp struct {
	Key         string    `json:"key"`
	Learner     string    `json:"learner"`
	TrainSize   int       `json:"trainSize"`
	Predictions []float64 `json:"predictions"`
}

type modelStatsResp struct {
	Key   string     `json:"key"`
	Stats modelStats `json:"stats"`
}

func (h *harness) attachModel(key string, spec map[string]any) {
	h.t.Helper()
	h.do("PUT", "/v1/streams/"+key+"/model", spec, http.StatusOK, nil)
}

func (h *harness) predict(key string, queries any, wantStatus int) predictResp {
	h.t.Helper()
	var resp predictResp
	out := any(&resp)
	if wantStatus != http.StatusOK {
		out = nil
	}
	h.do("POST", "/v1/streams/"+key+"/model/predict", queries, wantStatus, out)
	return resp
}

func (h *harness) modelStats(key string) modelStatsResp {
	h.t.Helper()
	var resp modelStatsResp
	h.do("GET", "/v1/streams/"+key+"/model/stats", nil, http.StatusOK, &resp)
	return resp
}

// TestModelLifecycleKNN walks the happy path: attach → labeled ingest →
// advance (trains the first model) → predict → stats.
func TestModelLifecycleKNN(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(7)})
	h.attachModel("k", map[string]any{"learner": "knn", "policy": "always"})

	// Predict before any boundary: attached but not yet trained.
	h.predict("k", map[string]any{"x": []float64{1, 1}}, http.StatusConflict)

	for tt := 1; tt <= 3; tt++ {
		h.do("POST", "/v1/streams/k/items", labeledBatch(tt, 30), http.StatusOK, nil)
		h.do("POST", "/v1/streams/k/advance", nil, http.StatusOK, nil)
	}
	resp := h.predict("k", []map[string]any{{"x": []float64{0.2, 0.3}}, {"x": []float64{10.4, 10.1}}}, http.StatusOK)
	if len(resp.Predictions) != 2 || resp.Predictions[0] != 0 || resp.Predictions[1] != 1 {
		t.Fatalf("predictions = %v, want [0 1]", resp.Predictions)
	}
	if resp.Learner != "knn" || resp.TrainSize == 0 {
		t.Fatalf("predict response = %+v", resp)
	}

	st := h.modelStats("k").Stats
	if !st.HasModel || st.Retrains != 3 || st.Batches != 3 {
		t.Fatalf("stats = %+v, want hasModel retrains=3 batches=3", st)
	}
	// Batch 1 was scored without a model (NaN); batches 2 and 3 scored.
	if st.ScoredBatches != 2 {
		t.Fatalf("scoredBatches = %d, want 2", st.ScoredBatches)
	}
	if st.LastBatchErr == nil || *st.LastBatchErr != 0 {
		t.Fatalf("lastBatchErr = %v, want 0 on separable data", st.LastBatchErr)
	}

	// Unlabeled traffic coexists: opaque items are sampled, not scored.
	h.do("POST", "/v1/streams/k/items", []map[string]any{{"note": "unlabeled"}}, http.StatusOK, nil)

	// Detach and confirm the model endpoints go away.
	h.do("DELETE", "/v1/streams/k/model", nil, http.StatusOK, nil)
	h.do("GET", "/v1/streams/k/model/stats", nil, http.StatusNotFound, nil)
}

// TestModelLinreg: the regression learner reports MSE and predicts real
// values.
func TestModelLinreg(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(9)})
	h.attachModel("r", map[string]any{"learner": "linreg", "policy": "always"})
	// y = 2*x0 + 3*x1 + 1, exactly.
	for tt := 1; tt <= 2; tt++ {
		rows := make([]map[string]any, 20)
		for i := range rows {
			x0, x1 := float64((tt*7+i)%10), float64((tt*3+i*2)%10)
			rows[i] = map[string]any{"x": []float64{x0, x1}, "y": 2*x0 + 3*x1 + 1}
		}
		h.do("POST", "/v1/streams/r/items", rows, http.StatusOK, nil)
		h.do("POST", "/v1/streams/r/advance", nil, http.StatusOK, nil)
	}
	resp := h.predict("r", map[string]any{"x": []float64{4, 5}}, http.StatusOK)
	if got := resp.Predictions[0]; got < 23.9 || got > 24.1 {
		t.Fatalf("linreg predict(4,5) = %v, want ≈24", got)
	}
	st := h.modelStats("r").Stats
	if st.LastBatchErr == nil || *st.LastBatchErr > 1e-9 {
		t.Fatalf("linreg lastBatchErr = %v, want ≈0 (MSE on exact data)", st.LastBatchErr)
	}
}

// TestModelNaiveBayes: the text learner reads word-id features.
func TestModelNaiveBayes(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(11)})
	h.attachModel("nb", map[string]any{"learner": "nb", "policy": "always"})
	for tt := 1; tt <= 2; tt++ {
		rows := make([]map[string]any, 24)
		for i := range rows {
			class := i % 2
			base := class * 4 // class 0 uses words 0–3, class 1 words 4–7
			rows[i] = map[string]any{
				"x": []float64{float64(base + (i+tt)%4), float64(base + (i+2*tt)%4)},
				"y": class,
			}
		}
		h.do("POST", "/v1/streams/nb/items", rows, http.StatusOK, nil)
		h.do("POST", "/v1/streams/nb/advance", nil, http.StatusOK, nil)
	}
	resp := h.predict("nb", []map[string]any{{"x": []float64{0, 1}}, {"x": []float64{5, 6}}}, http.StatusOK)
	if resp.Predictions[0] != 0 || resp.Predictions[1] != 1 {
		t.Fatalf("nb predictions = %v, want [0 1]", resp.Predictions)
	}
}

// TestModelSpecValidation: malformed specs are rejected with 400 and a
// structured code.
func TestModelSpecValidation(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	for _, spec := range []map[string]any{
		{"learner": "forest"},
		{"learner": ""},
		{"learner": "knn", "k": -1},
		{"learner": "knn", "policy": "every:0"},
		{"learner": "knn", "policy": "sometimes"},
		{"learner": "knn", "policy": "drift", "drift": map[string]any{"factor": -2}},
		{"learner": "knn", "bogus": true},
	} {
		h.do("PUT", "/v1/streams/v/model", spec, http.StatusBadRequest, nil)
	}
	// Model routes on a stream that was never created 404.
	h.do("GET", "/v1/streams/ghost/model", nil, http.StatusNotFound, nil)
	h.do("POST", "/v1/streams/ghost/model/predict", map[string]any{"x": []float64{1}}, http.StatusNotFound, nil)
}

// TestModelTrainFailureKeepsDeployed: a retrain that cannot fit (here: a
// sample with no labeled rows after attach on unlabeled-only traffic)
// surfaces as trainFailures while serving continues (no model — 409, not
// 500). Then labeled data arrives and training succeeds.
func TestModelTrainFailureRecovers(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(13)})
	h.attachModel("f", map[string]any{"learner": "knn", "policy": "always"})
	h.do("POST", "/v1/streams/f/items", []map[string]any{{"opaque": 1}, {"opaque": 2}}, http.StatusOK, nil)
	h.do("POST", "/v1/streams/f/advance", nil, http.StatusOK, nil)
	st := h.modelStats("f").Stats
	if st.HasModel || st.TrainFailures == 0 || st.LastTrainErr == "" {
		t.Fatalf("stats after unlabeled-only training = %+v, want a surfaced train failure", st)
	}
	h.predict("f", map[string]any{"x": []float64{1, 1}}, http.StatusConflict)

	h.do("POST", "/v1/streams/f/items", labeledBatch(1, 20), http.StatusOK, nil)
	h.do("POST", "/v1/streams/f/advance", nil, http.StatusOK, nil)
	st = h.modelStats("f").Stats
	if !st.HasModel || st.Retrains != 1 {
		t.Fatalf("stats after labeled training = %+v, want a deployed model", st)
	}
}

// TestModelHostileRowsSurfaceAsTrainFailures: labels, word ids and
// feature widths come from client rows and size the fitters' allocations
// — a hostile row must produce a surfaced train failure, never an OOM on
// the background worker.
func TestModelHostileRowsSurfaceAsTrainFailures(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(19)})
	cases := []struct {
		key  string
		spec map[string]any
		row  map[string]any
	}{
		{"huge-label", map[string]any{"learner": "nb", "policy": "always"},
			map[string]any{"x": []float64{0}, "y": 1e15}},
		{"huge-word", map[string]any{"learner": "nb", "policy": "always"},
			map[string]any{"x": []float64{1e15}, "y": 0}},
		// Each axis individually under its cap, but the product would be
		// 2³² table cells: the joint cap must catch it.
		{"huge-product", map[string]any{"learner": "nb", "policy": "always"},
			map[string]any{"x": []float64{float64(maxModelVocab - 1)}, "y": maxModelClasses - 1}},
		{"negative-label", map[string]any{"learner": "knn", "policy": "always"},
			map[string]any{"x": []float64{1}, "y": -3}},
		{"wide-row", map[string]any{"learner": "linreg", "policy": "always"},
			map[string]any{"x": make([]float64, maxModelFeatures+1), "y": 1.0}},
	}
	for _, tc := range cases {
		h.attachModel(tc.key, tc.spec)
		h.do("POST", "/v1/streams/"+tc.key+"/items", []map[string]any{tc.row}, http.StatusOK, nil)
		h.do("POST", "/v1/streams/"+tc.key+"/advance", nil, http.StatusOK, nil)
		st := h.modelStats(tc.key).Stats
		if st.HasModel || st.TrainFailures == 0 || st.LastTrainErr == "" {
			t.Errorf("%s: stats = %+v, want a surfaced train failure", tc.key, st)
		}
	}
	// Spec-level caps are rejected up front.
	h.do("PUT", "/v1/streams/x/model",
		map[string]any{"learner": "nb", "classes": maxModelClasses + 1}, http.StatusBadRequest, nil)
	h.do("PUT", "/v1/streams/x/model",
		map[string]any{"learner": "nb", "vocab": 1 << 30}, http.StatusBadRequest, nil)
	h.do("PUT", "/v1/streams/x/model",
		map[string]any{"learner": "nb", "classes": maxModelClasses, "vocab": maxModelVocab},
		http.StatusBadRequest, nil)
}

// TestModelKillRestartDeterminism is the PR's acceptance test: with a
// model under a drift policy attached, kill + restart must restore the
// model, the policy state and the counters exactly — post-restore stats
// and predictions match the pre-kill reads, and continuing the stream
// matches an uninterrupted reference run.
func TestModelKillRestartDeterminism(t *testing.T) {
	driftSpec := map[string]any{
		"learner": "knn", "policy": "drift",
		"drift": map[string]any{"window": 5, "factor": 1, "minObs": 2, "maxStale": 4},
	}
	queries := []map[string]any{
		{"x": []float64{0.4, 0.4}}, {"x": []float64{10.2, 10.3}}, {"x": []float64{5, 5}},
	}
	drive := func(h *harness, from, to int) {
		for tt := from; tt <= to; tt++ {
			batch := labeledBatch(tt, 24)
			if tt > 6 {
				// Concept drift: classes swap, so the drift policy has
				// something real to detect.
				for _, row := range batch {
					row["y"] = 1 - row["y"].(int)
				}
			}
			h.do("POST", "/v1/streams/m/items", batch, http.StatusOK, nil)
			h.do("POST", "/v1/streams/m/advance", nil, http.StatusOK, nil)
		}
	}
	opts := func(dir string) Options {
		return Options{Sampler: rtbsConfig(21), Shards: 4, CheckpointDir: dir}
	}

	// Interrupted run: batches 1–5, read stats+predictions, kill.
	dir := t.TempDir()
	h1 := newHarness(t, opts(dir))
	h1.attachModel("m", driftSpec)
	drive(h1, 1, 5)
	preStats := h1.modelStats("m")
	prePred := h1.predict("m", queries, http.StatusOK)
	h1.close()

	// Restart: the restored model must answer identically before any new
	// traffic, and stats (retrain count, policy state) must round-trip.
	h2 := newHarness(t, opts(dir))
	postPred := h2.predict("m", queries, http.StatusOK)
	if !reflect.DeepEqual(postPred, prePred) {
		t.Fatalf("post-restore predictions diverge:\n got %+v\nwant %+v", postPred, prePred)
	}
	postStats := h2.modelStats("m")
	if !reflect.DeepEqual(postStats, preStats) {
		t.Fatalf("post-restore model stats diverge:\n got %+v\nwant %+v", postStats, preStats)
	}
	if postStats.Stats.Retrains == 0 {
		t.Fatal("no retrains recorded before the kill — the test is vacuous")
	}
	drive(h2, 6, 10)
	resumedStats := h2.modelStats("m")
	resumedPred := h2.predict("m", queries, http.StatusOK)
	resumedSample := h2.sample("m")

	// Uninterrupted reference run with the same request sequence.
	ref := newHarness(t, Options{Sampler: rtbsConfig(21), Shards: 4})
	ref.attachModel("m", driftSpec)
	drive(ref, 1, 5)
	ref.modelStats("m")
	ref.predict("m", queries, http.StatusOK)
	drive(ref, 6, 10)

	if want := ref.modelStats("m"); !reflect.DeepEqual(resumedStats, want) {
		t.Errorf("resumed model stats diverge from uninterrupted run:\n got %+v\nwant %+v", resumedStats, want)
	}
	if want := ref.predict("m", queries, http.StatusOK); !reflect.DeepEqual(resumedPred, want) {
		t.Errorf("resumed predictions diverge from uninterrupted run:\n got %+v\nwant %+v", resumedPred, want)
	}
	if want := ref.sample("m"); !reflect.DeepEqual(resumedSample, want) {
		t.Errorf("resumed sample diverges from uninterrupted run")
	}
	if resumedStats.Stats.Retrains <= postStats.Stats.Retrains {
		t.Errorf("drift policy never fired after the restart: %d retrains", resumedStats.Stats.Retrains)
	}
}

// TestPredictDuringRetrainRace is the -race workout for the atomic model
// swap: readers hammer predict and stats while boundaries retrain the
// model under policy "always", concurrently with checkpoint passes.
func TestPredictDuringRetrainRace(t *testing.T) {
	h := newHarness(t, Options{
		Sampler:            rtbsConfig(17),
		Shards:             2,
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: 2 * time.Millisecond,
	})
	h.attachModel("hot", map[string]any{"learner": "knn", "policy": "always"})
	// Deploy the first model so readers see 200s. The first retrain runs
	// on the background lane; the stats read waits it out.
	h.do("POST", "/v1/streams/hot/items", labeledBatch(0, 20), http.StatusOK, nil)
	h.do("POST", "/v1/streams/hot/advance", nil, http.StatusOK, nil)
	h.modelStats("hot")

	stop := make(chan struct{})
	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, _ := json.Marshal(map[string]any{"x": []float64{float64(g), float64(g)}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(h.ts.URL+"/v1/streams/hot/model/predict", "application/json", bytes.NewReader(q))
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict status %d mid-retrain", resp.StatusCode)
					return
				}
				served.Add(1)
			}
		}()
	}
	// Writer: 30 boundaries, each retraining (policy always) on the
	// background lane while the readers run.
	for tt := 1; tt <= 30; tt++ {
		h.do("POST", "/v1/streams/hot/items", labeledBatch(tt, 15), http.StatusOK, nil)
		h.do("POST", "/v1/streams/hot/advance", nil, http.StatusOK, nil)
	}
	st := h.modelStats("hot").Stats
	close(stop)
	wg.Wait()
	if st.Retrains != 31 {
		t.Errorf("retrains = %d, want 31 (one per boundary)", st.Retrains)
	}
	if served.Load() == 0 {
		t.Error("no predictions served during the retrain storm")
	}
}
