package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xrand"
	"repro/tbs"
)

// The model workload's shape: the paper's §6.2 setting on 8 streams. The
// tick and predict rates are absolute numbers (also in BENCHMARK.json).
const (
	modelStreams   = 8
	modelBatch     = 100  // labeled rows per tick batch
	modelWarm      = 1000 // rows of the warm-up batch, which fills the reservoir
	modelTickRate  = 4    // ticks per second; each tick sends every stream one batch
	modelPredRate  = 100  // open-loop predict requests per second
	modelPredRows  = 8    // query rows per predict request
	modelProbes    = 32   // fixed probe rows per stream for the final check
	modelOpenFrac  = 0.7  // share of the measured seconds spent in the open loop
	modelLambda    = 0.07
	modelN         = 1000
	modelSpecJSON  = `{"learner":"knn","k":7,"policy":"always"}`
	modelNDJSONCT  = "application/x-ndjson"
	modelStatsPath = "/model/stats"

	modelLayoutSeed = 62 // seeds the GMM class centroids, the same for every run
)

// modelFlags: WAL with the default group fsync; checkpoints at the default
// interval.
var modelFlags = []string{"-scheme", "rtbs", "-lambda", fmt.Sprint(modelLambda), "-n", strconv.Itoa(modelN), "-wal"}

// modelData is the workload's generated traffic. Batches are generated on
// demand from each stream's GMM, so the sequence per stream is a pure
// function of the seed and the stream's batch count.
type modelData struct {
	keys    []string
	gens    []*datagen.GMM
	t       []int      // batches generated per stream (GMM time)
	sent    [][][]byte // every acknowledged batch body per stream, in order
	queries [][][]byte // predict bodies per stream, in rotation
	probes  [][]byte   // the final check's predict body per stream
	event   datagen.SingleEvent
	bad     atomic.Bool // a request failed; set from either lane
}

func newModelData(seed uint64, ticks int) (*modelData, error) {
	d := &modelData{
		keys:    make([]string, modelStreams),
		gens:    make([]*datagen.GMM, modelStreams),
		t:       make([]int, modelStreams),
		sent:    make([][][]byte, modelStreams),
		queries: make([][][]byte, modelStreams),
		probes:  make([][]byte, modelStreams),
		// The regime change covers the middle third of the open loop (the
		// warm-up batch is GMM time 1).
		event: datagen.SingleEvent{Start: 1 + ticks/3, End: 1 + 2*ticks/3},
	}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("m%d", i)
		// The class centroids are a constant of the workload, so every seed
		// poses the same learning problem (kNN cost depends on the layout);
		// the seed draws the points and the queries around them.
		layout, err := datagen.NewGMM(datagen.GMMConfig{}, xrand.New(tbs.DeriveSeed(modelLayoutSeed, d.keys[i])))
		if err != nil {
			return nil, err
		}
		g, err := datagen.NewGMM(datagen.GMMConfig{Schedule: d.event}, xrand.New(tbs.DeriveSeed(seed, "model/"+d.keys[i])))
		if err != nil {
			return nil, err
		}
		g.Centroids = layout.Centroids
		d.gens[i] = g
		qg, err := datagen.NewGMM(datagen.GMMConfig{}, xrand.New(tbs.DeriveSeed(seed, "model/queries/"+d.keys[i])))
		if err != nil {
			return nil, err
		}
		qg.Centroids = layout.Centroids
		for q := 0; q < 16; q++ {
			d.queries[i] = append(d.queries[i], predictBody(qg.Batch(1, modelPredRows)))
		}
		d.probes[i] = predictBody(qg.Batch(1, modelProbes))
	}
	return d, nil
}

func predictBody(pts []datagen.Point) []byte {
	b := []byte{'['}
	for j, p := range pts {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":[`...)
		b = wire.AppendFloat(b, p.X[0])
		b = append(b, ',')
		b = wire.AppendFloat(b, p.X[1])
		b = append(b, "]}"...)
	}
	return append(b, ']')
}

// nextBatch generates stream i's next labeled NDJSON batch.
func (d *modelData) nextBatch(i, rows int) []byte {
	d.t[i]++
	var body []byte
	row := make([]float64, 3)
	for _, p := range d.gens[i].Batch(d.t[i], rows) {
		row[0], row[1], row[2] = p.X[0], p.X[1], float64(p.Class)
		body = append(wire.AppendRowJSON(body, row), '\n')
	}
	return body
}

// postBatch sends a batch with ?advance=true and records it once
// acknowledged.
func (d *modelData) postBatch(b *bench, l *lane, i int, body []byte) error {
	st, resp, err := l.do(http.MethodPost, b.url("/v1/streams/"+d.keys[i]+"/items?advance=true"), modelNDJSONCT, body)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("status %d: %s", st, resp)
	}
	if err != nil {
		d.bad.Store(true)
		return err
	}
	d.sent[i] = append(d.sent[i], body)
	return nil
}

// modelStatsResp is the part of model/stats the workload reads.
type modelStatsResp struct {
	Stats struct {
		Batches  int    `json:"batches"`
		Retrains uint64 `json:"retrains"`
	} `json:"stats"`
}

// refreshed reads model/stats and reports whether the stream's latest
// batch has been retrained on (policy always: one retrain per boundary).
func (d *modelData) refreshed(b *bench, l *lane, i int) error {
	st, resp, err := l.do(http.MethodGet, b.url("/v1/streams/"+d.keys[i]+modelStatsPath), "", nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("model/stats status %d: %s", st, resp)
	}
	var ms modelStatsResp
	if err := json.Unmarshal(resp, &ms); err != nil {
		return err
	}
	if want := len(d.sent[i]); ms.Stats.Batches != want || ms.Stats.Retrains != uint64(want) {
		return fmt.Errorf("%s model/stats shows %d batches and %d retrains after %d batches", d.keys[i], ms.Stats.Batches, ms.Stats.Retrains, want)
	}
	return nil
}

func runModel(b *bench, p *pass) error {
	tickRate, predRate := float64(modelTickRate), float64(modelPredRate)
	if b.cfg.tiny {
		tickRate, predRate = 4, 20
	}
	openSecs := p.seconds * modelOpenFrac
	ticks := int(openSecs * tickRate)
	var data *modelData
	warm := func() error {
		var err error
		if data, err = newModelData(b.cfg.seed, ticks); err != nil {
			return err
		}
		l := b.lanes[0]
		for i, k := range data.keys {
			if _, err := l.doOK(http.MethodPut, b.url("/v1/streams/"+k+"/model"), "application/json", []byte(modelSpecJSON)); err != nil {
				return err
			}
			if err := data.postBatch(b, l, i, data.nextBatch(i, modelWarm)); err != nil {
				return err
			}
			if err := data.refreshed(b, l, i); err != nil {
				return err
			}
		}
		return nil
	}
	d, dir, err := b.setup(p, "model", modelFlags, nil, warm)
	if err != nil {
		return err
	}

	// Open loop. Lane A: every stream's batch, staggered across the tick,
	// each followed by model/stats until the retrain shows. Lane B:
	// predicts, never behind a batch on the client side.
	var sched [maxConns][]time.Duration
	sched[0] = spread(ticks*modelStreams, tickRate*modelStreams)
	sched[1] = spread(int(openSecs*predRate), predRate)
	batches := make([][]byte, len(sched[0]))
	for i := range batches {
		batches[i] = data.nextBatch(i%modelStreams, modelBatch)
	}
	before, err := b.scrapeIf(p)
	if err != nil {
		return err
	}
	if err := b.openLoop(p, "model/open", sched, func(ln, i int, l *lane) (bool, error) {
		if ln == 0 {
			s := i % modelStreams
			if err := data.postBatch(b, l, s, batches[i]); err != nil {
				return true, err
			}
			return true, data.refreshed(b, l, s)
		}
		s := i % modelStreams
		st, resp, err := l.do(http.MethodPost, b.url("/v1/streams/"+data.keys[s]+"/model/predict"), "application/json", data.queries[s][(i/modelStreams)%len(data.queries[s])])
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("predict status %d: %s", st, resp)
		}
		return false, err
	}); err != nil {
		return err
	}

	if err := b.scrapeDelta(p, before); err != nil {
		return err
	}

	// kill -9, then timed restarts that each replay the WAL of the warm-up
	// and the open loop: every boundary is scored and retrained again.
	if d, err = b.restarts(p, d, "model", dir, modelFlags, (*daemon).kill); err != nil {
		return err
	}

	// Closed loop: both lanes post batches to their own half of the
	// streams, so each stream's batches stay in order.
	if before, err = b.scrapeIf(p); err != nil {
		return err
	}
	b.closedLoop(p, "model/closed", time.Duration(p.seconds*(1-modelOpenFrac)*float64(time.Second)), func(ln, i int, l *lane) (int, error) {
		s := ln*modelStreams/maxConns + i%(modelStreams/maxConns)
		return modelBatch, data.postBatch(b, l, s, data.nextBatch(s, modelBatch))
	})
	if err := b.scrapeDelta(p, before); err != nil {
		return err
	}

	if err := checkModels(b, data); err != nil {
		return err
	}
	return b.finish(p, d, dir)
}

// checkModels compares each stream's model/stats and its predictions on
// the fixed probe set with an in-process server fed the same batches.
func checkModels(b *bench, data *modelData) error {
	if data.bad.Load() {
		b.checkf("model: batches failed; no reference")
		return nil
	}
	lambda, n, seed := modelLambda, modelN, b.cfg.seed
	ref, err := server.New(server.Options{
		Sampler: tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n, Seed: &seed},
	})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ref.Stop(ctx)
	}()
	h := ref.Handler()
	call := func(method, path, ctype string, body []byte) ([]byte, error) {
		out, err := handlerCall(h, method, path, ctype, body)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		return out, nil
	}
	for i, k := range data.keys {
		if _, err := call(http.MethodPut, "/v1/streams/"+k+"/model", "application/json", []byte(modelSpecJSON)); err != nil {
			return err
		}
		for _, body := range data.sent[i] {
			if _, err := call(http.MethodPost, "/v1/streams/"+k+"/items?advance=true", modelNDJSONCT, body); err != nil {
				return err
			}
		}
		statsPath := "/v1/streams/" + k + modelStatsPath
		for _, c := range []struct {
			method, path string
			body         []byte
		}{
			{http.MethodGet, statsPath, nil},
			{http.MethodPost, "/v1/streams/" + k + "/model/predict", data.probes[i]},
		} {
			want, err := call(c.method, c.path, "application/json", c.body)
			if err != nil {
				return err
			}
			got, err := b.lanes[0].doOK(c.method, b.url(c.path), "application/json", c.body)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				b.checkf("model: %s %s differs from the in-process reference:\ngot  %s\nwant %s", k, c.path, got, want)
			}
			if c.path != statsPath {
				continue
			}
			var ms modelStatsResp
			if err := json.Unmarshal(got, &ms); err != nil {
				return err
			}
			if ms.Stats.Retrains != uint64(ms.Stats.Batches) || ms.Stats.Batches != len(data.sent[i]) {
				b.checkf("model: %s has %d retrains over %d boundaries (%d batches sent); policy always retrains every boundary",
					k, ms.Stats.Retrains, ms.Stats.Batches, len(data.sent[i]))
			}
		}
	}
	return nil
}

// modelLayers times each layer on the model workload's inputs.
func modelLayers(b *bench) error {
	data, err := newModelData(b.cfg.seed, 16)
	if err != nil {
		return err
	}
	lambda, n, seed := modelLambda, modelN, b.cfg.seed
	in := layerInputs{
		name: "model", rows: modelBatch, labeled: true, chunk: modelBatch, n: modelN,
		streams: modelStreams, resident: 1, keys: data.keys, stats: "/v1/streams/m0" + modelStatsPath,
		opts: server.Options{
			Sampler: tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n, Seed: &seed},
			WALDir:  "wal",
		},
	}
	for t := 0; t < 2; t++ {
		for i, k := range data.keys {
			body := data.nextBatch(i, modelBatch)
			in.ndjson = append(in.ndjson, body)
			var rows [][]float64
			for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
				var r struct {
					X []float64 `json:"x"`
					Y float64   `json:"y"`
				}
				if err := json.Unmarshal(line, &r); err != nil {
					return err
				}
				rows = append(rows, append(r.X, r.Y))
			}
			in.bin = append(in.bin, wire.AppendFrame(nil, rows))
			in.requests = append(in.requests, layerReq{
				path: "/v1/streams/" + k + "/items?advance=true", ctype: modelNDJSONCT, body: body, items: modelBatch,
			})
		}
	}
	in.boundary = in.requests[0]
	warm := data.nextBatch(0, modelWarm)
	in.setup = func(h http.Handler) error {
		for _, k := range data.keys {
			if _, err := handlerCall(h, http.MethodPut, "/v1/streams/"+k+"/model", "application/json", []byte(modelSpecJSON)); err != nil {
				return err
			}
			if _, err := handlerCall(h, http.MethodPost, "/v1/streams/"+k+"/items?advance=true", modelNDJSONCT, warm); err != nil {
				return err
			}
		}
		return nil
	}
	b.addCrossCheck("obs.stage.ingest.parse_us", "wire.ndjson_ns_per_item", modelBatch/1e3)
	b.addCrossCheck("obs.stage.ingest.wal_append_us", "wal.append_ns_per_item", modelBatch/1e3)
	b.addCrossCheck("obs.stage.ingest.fsync_wait_us", "wal.sync_p50_us", 1)
	b.addCrossCheck("obs.stage.boundary.score_us", "ml.knn_predict_us", modelBatch)
	b.addCrossCheck("obs.stage.boundary.retrain_us", "wire.labeled_ns_per_row", modelN/1e3)
	if err := b.measureLayers(in); err != nil {
		return err
	}
	// Socket predict cost beyond the in-process handler: the traced pass's
	// open-loop read median minus server.predict_us.
	if p := b.tracedPass; p != nil && len(p.reads) > 0 {
		sock := p.reads.quantile(0.5) * 1e3
		b.setLayer("http.predict_us", "us", sock-b.layers["server.predict_us"].value,
			fmt.Sprintf("socket predict p50 %.1f us (n=%d, traced open loop) minus in-process %.1f", sock, len(p.reads), b.layers["server.predict_us"].value))
	}
	return nil
}
