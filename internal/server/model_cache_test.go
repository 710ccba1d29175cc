package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/wire"
)

// cacheTestItems builds n labeled rows with full-precision features in
// [0,50) and labels in {0,1,2} — valid for all three learners — plus,
// every few rows, a duplicate, an unlabeled value row, a row in
// non-canonical key order (the encoding/json fallback) and a binary row.
func cacheTestItems(seed, n int) []Item {
	var items []Item
	for i := 0; i < n; i++ {
		f := float64(seed*977+i*131) / 7
		x0, x1 := math.Mod(f*0.1234567, 50), math.Mod(f/3, 50)
		y := float64((seed + i) % 3)
		items = append(items, Item(wire.AppendRowJSON(nil, []float64{x0, x1, y})))
		switch i % 5 {
		case 1:
			items = append(items, items[len(items)-1])
		case 2:
			items = append(items, Item(fmt.Sprintf(`{"v":%d}`, i)))
		case 3:
			items = append(items, Item(fmt.Sprintf(`{"y":%v,"x":[%v,%v]}`, y, x1, x0)))
		case 4:
			bin := []byte{0x80 | 3, 0}
			for _, v := range []float64{x1, x0, y} {
				bin = binary.LittleEndian.AppendUint64(bin, math.Float64bits(v))
			}
			items = append(items, Item(bin))
		}
	}
	return items
}

func distinctItems(items []Item) int {
	seen := make(map[string]bool)
	for _, it := range items {
		seen[string(it)] = true
	}
	return len(seen)
}

// TestTrainModelColdWarmCache: the row cache only saves parsing. A model
// trained through a warm cache — one that scored batches and trained on
// earlier snapshots — encodes to the same bytes as one trained through
// a cold cache, for every learner. Along the way the cache never holds
// more than one snapshot plus one batch.
func TestTrainModelColdWarmCache(t *testing.T) {
	for _, learner := range []string{"knn", "linreg", "nb"} {
		spec := ModelSpec{Learner: learner}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		warm := newRowCache()
		sample := cacheTestItems(1, 40)
		if _, err := trainModel(spec, sample, warm); err != nil {
			t.Fatal(err)
		}
		for step := 2; step <= 6; step++ {
			batch := cacheTestItems(step, 12)
			warm.scoreRows(batch)
			if got, limit := len(warm.rows), distinctItems(sample)+len(batch); got > limit {
				t.Fatalf("%s step %d: cache holds %d rows after scoring, bound %d", learner, step, got, limit)
			}
			if step%2 == 1 {
				continue // the policy did not fire: no retrain this boundary
			}
			// The new sample keeps most of the old one and some batch rows.
			sample = append(append([]Item(nil), sample[len(batch)/2:]...), batch[:len(batch)/2]...)
			want, err := trainModel(spec, sample, newRowCache())
			if err != nil {
				t.Fatal(err)
			}
			got, err := trainModel(spec, sample, warm)
			if err != nil {
				t.Fatal(err)
			}
			wantGob, err := want.gobBytes()
			if err != nil {
				t.Fatal(err)
			}
			gotGob, err := got.gobBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotGob, wantGob) || got.trainSize != want.trainSize {
				t.Fatalf("%s step %d: warm-cache model differs from cold-cache model", learner, step)
			}
			if got, want := len(warm.rows), distinctItems(sample); got != want {
				t.Fatalf("%s step %d: cache holds %d rows after the retrain, want the snapshot's %d", learner, step, got, want)
			}
		}
	}
}

// knnTrainingSet reads a stream's deployed kNN model through its gob,
// whose wire form is {K, Xs, Ys}.
func (h *harness) knnTrainingSet(key string) (k int, xs [][]float64, ys []int) {
	h.t.Helper()
	d, _ := h.srv.reg.lookup(key).model.Load().mgr.Model()
	data, err := d.knn.GobEncode()
	if err != nil {
		h.t.Fatal(err)
	}
	var g struct {
		K  int
		Xs [][]float64
		Ys []int
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		h.t.Fatal(err)
	}
	return g.K, g.Xs, g.Ys
}

// bruteKNN is an independent exhaustive kNN over 2-D points: rank every
// training point by (squared distance, index), then a majority vote
// over the first k, ties to the label met first.
func bruteKNN(k int, xs [][]float64, ys []int, q []float64) int {
	idx := make([]int, len(xs))
	d := make([]float64, len(xs))
	for i, p := range xs {
		idx[i] = i
		s := 0.0
		for j := range q {
			dj := q[j] - p[j]
			s += dj * dj
		}
		d[i] = s
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
	votes := make(map[int]int)
	best, bestVotes := -1, 0
	for _, i := range idx[:min(k, len(idx))] {
		votes[ys[i]]++
		if votes[ys[i]] > bestVotes {
			best, bestVotes = ys[i], votes[ys[i]]
		}
	}
	return best
}

// postTimeout posts a JSON body with a client deadline, so a request
// the server never answers fails the test instead of hanging it.
func (h *harness) postTimeout(path string, body any, out any) {
	h.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Post(h.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		h.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		h.t.Fatalf("POST %s: status %d, %s (err %v)", path, resp.StatusCode, b, err)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			h.t.Fatalf("POST %s: decode %q: %v", path, b, err)
		}
	}
}

// TestModelFarQueriesAnswer: queries and batch rows far outside the
// training set's box — where a grid ring walk would run for ~1e18 rings
// — are answered within the client deadline, with the exhaustive scan's
// class.
func TestModelFarQueriesAnswer(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(7)})
	h.attachModel("far", map[string]any{"learner": "knn", "policy": "always"})
	for tt := 1; tt <= 3; tt++ {
		h.postTimeout("/v1/streams/far/items", labeledBatch(tt, 40), nil)
		h.postTimeout("/v1/streams/far/advance", nil, nil)
	}
	h.modelStats("far") // waits for the last retrain to deploy
	k, xs, ys := h.knnTrainingSet("far")
	if len(xs) <= 4*k {
		t.Fatalf("training set of %d rows is too small to be indexed (k=%d)", len(xs), k)
	}
	queries := [][]float64{{1e19, 1e19}, {-1e19, 5}, {1e300, -1e300}, {5, 5}, {10.2, 10.3}}
	for _, q := range queries {
		var resp predictResp
		h.postTimeout("/v1/streams/far/model/predict", map[string]any{"x": q}, &resp)
		if want := bruteKNN(k, xs, ys, q); len(resp.Predictions) != 1 || resp.Predictions[0] != float64(want) {
			t.Errorf("predict %v = %v, exhaustive scan %d", q, resp.Predictions, want)
		}
	}

	// Far batch rows are scored at the boundary, on the shard worker.
	batch := []map[string]any{
		{"x": []float64{1e19, 0}, "y": 0},
		{"x": []float64{0, -1e19}, "y": 1},
		{"x": []float64{1e19, 1e19}, "y": 1},
		{"x": []float64{0.3, 0.2}, "y": 0},
	}
	wrong := 0
	for _, row := range batch {
		if bruteKNN(k, xs, ys, row["x"].([]float64)) != row["y"].(int) {
			wrong++
		}
	}
	h.postTimeout("/v1/streams/far/items", batch, nil)
	h.postTimeout("/v1/streams/far/advance", nil, nil)
	st := h.modelStats("far").Stats
	if want := 100 * float64(wrong) / float64(len(batch)); st.LastBatchErr == nil || *st.LastBatchErr != want {
		t.Fatalf("lastBatchErr = %v, want %v from the exhaustive scan", st.LastBatchErr, want)
	}
}
