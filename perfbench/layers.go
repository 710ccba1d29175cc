package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/manage"
	"repro/internal/ml"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xrand"
	"repro/tbs"
)

// This file times calls into each layer's public functions from the
// benchmark's own code, on the workload's own generated inputs. Each
// number is the median over repetitions, and each repetition is one span.

// layerInputs is one workload's traffic, reshaped for the layer calls.
type layerInputs struct {
	name     string
	ndjson   [][]byte   // request bodies as NDJSON lines of the workload's rows
	bin      [][]byte   // the same rows as x-tbs-bin frames
	rows     int        // rows per body
	labeled  bool       // rows are {"x":[…],"y":N}
	chunk    int        // items per WAL append and per sampler batch
	n        int        // sampler bound
	requests []layerReq // the workload's ingest requests, for the in-process server
	boundary layerReq   // one batch boundary request, followed by a stats read
	stats    string     // stats path read after the boundary
	streams  int        // streams the in-process server holds
	keys     []string   // stream keys of the checkpoint directory booted for cold hits
	tiered   string     // checkpoint directory to boot for cold hits ("" = the checkpoint pass's)
	resident int        // MaxResident for the cold-hit server
	opts     server.Options
	setup    func(h http.Handler) error // per-stream set-up before requests (model attach)
}

// layerReq is one in-process ingest request.
type layerReq struct {
	path, ctype string
	body        []byte
	items       int
}

// timeReps runs fn reps times and returns the median nanoseconds per
// unit, recording one span per repetition.
func (b *bench) timeReps(name string, reps, units int, fn func() error) (float64, error) {
	per := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		b.spans.add(0, 0, "layer/"+name, t0, t1)
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(units))
	}
	return median(per), nil
}

// reps scales repetition counts down in tiny mode.
func (b *bench) reps(n int) int {
	if b.cfg.tiny {
		return 2
	}
	return n
}

// handlerCall sends one request through a handler in-process.
func handlerCall(h http.Handler, method, path, ctype string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// chunksOf splits NDJSON bodies into chunk-line groups, the workload's
// WAL record and sampler batch shape.
func chunksOf(bodies [][]byte, chunk int) [][][]byte {
	var out [][][]byte
	for _, body := range bodies {
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		for i := 0; i+chunk <= len(lines); i += chunk {
			out = append(out, lines[i:i+chunk])
		}
	}
	return out
}

// measureLayers runs every isolated layer call on one workload's inputs.
func (b *bench) measureLayers(in layerInputs) error {
	reps := b.reps(9)
	base := fmt.Sprintf("%s inputs, median of %d reps", in.name, reps)

	// wire: the NDJSON decode the server runs per line, plus the row parse.
	lr := wire.NewLineReader(0)
	var x []float64
	d, err := b.timeReps("wire.ndjson", reps, len(in.ndjson)*in.rows, func() error {
		for _, body := range in.ndjson {
			lr.Reset(bytes.NewReader(body))
			for {
				line, _, err := lr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				line = wire.TrimSpace(line)
				if wire.Validate(line) != wire.Valid {
					return fmt.Errorf("line %q not valid on the fast path", line)
				}
				if in.labeled {
					x = parseLabeled(line, x)
				} else if _, ok := wire.ParseValueRow(line); !ok {
					return fmt.Errorf("row %q not canonical", line)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("wire.ndjson_ns_per_item", "ns/item", d, fmt.Sprintf("%d items; %s", len(in.ndjson)*in.rows, base))

	br := wire.NewBinReader()
	items := make([][]byte, 0, in.rows)
	d, err = b.timeReps("wire.bin", reps, len(in.bin)*in.rows, func() error {
		for _, body := range in.bin {
			br.Reset(bytes.NewReader(body))
			for {
				var err error
				items, _, err = wire.NextFrameItems(br, items[:0])
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("wire.bin_ns_per_item", "ns/item", d, fmt.Sprintf("%d items; %s", len(in.bin)*in.rows, base))

	if err := b.mlLayers(reps); err != nil {
		return err
	}
	if err := b.walLayers(in, reps); err != nil {
		return err
	}
	if err := b.coreLayers(in, reps); err != nil {
		return err
	}
	return b.serverLayers(in, reps)
}

// parseLabeled decodes a labeled row as the server's model path does: the
// canonical fast path, else encoding/json (full-precision floats beyond
// 2⁵³ mantissas take the fallback).
func parseLabeled(row []byte, x []float64) []float64 {
	if fx, _, ok := wire.ParseLabeledRow(row, x); ok {
		return fx
	}
	var lr struct {
		X []float64 `json:"x"`
		Y *float64  `json:"y"`
	}
	_ = json.Unmarshal(row, &lr)
	return append(x[:0], lr.X...)
}

// mlLayers times the model path on a labeled n-row sample of the paper's
// §6.2 GMM: the row parse a retrain starts with, kNN fit and predict, and
// one manage.Manager step.
func (b *bench) mlLayers(reps int) error {
	const n, k, batch = modelN, 7, modelBatch
	gen, err := datagen.NewGMM(datagen.GMMConfig{}, xrand.New(tbs.DeriveSeed(b.cfg.seed, "layers/gmm")))
	if err != nil {
		return err
	}
	pts := gen.Batch(1, n)
	rows := make([][]byte, n)
	row := make([]float64, 3)
	for i, p := range pts {
		row[0], row[1], row[2] = p.X[0], p.X[1], float64(p.Class)
		rows[i] = wire.AppendRowJSON(nil, row)
	}
	var x []float64
	fast := 0
	for _, r := range rows {
		if _, _, ok := wire.ParseLabeledRow(r, x); ok {
			fast++
		}
	}
	d, err := b.timeReps("wire.labeled", reps, n, func() error {
		for _, r := range rows {
			x = parseLabeled(r, x)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("wire.labeled_ns_per_row", "ns/row", d, fmt.Sprintf("%d-row sample, %d on the fast path, the rest via encoding/json; median of %d reps", n, fast, reps))

	xs := make([][]float64, n)
	ys := make([]int, n)
	for i, p := range pts {
		xs[i], ys[i] = []float64{p.X[0], p.X[1]}, p.Class
	}
	var model *ml.KNN
	d, err = b.timeReps("ml.knn_fit", reps, 1, func() error {
		var err error
		if model, err = ml.NewKNN(k); err != nil {
			return err
		}
		return model.Fit(xs, ys)
	})
	if err != nil {
		return err
	}
	b.setLayer("ml.knn_fit_us", "us", d/1e3, fmt.Sprintf("NewKNN(%d)+Fit on %d rows; median of %d reps", k, n, reps))
	queries := gen.Batch(2, batch)
	d, err = b.timeReps("ml.knn_predict", reps, len(queries), func() error {
		for _, q := range queries {
			if model.Predict(q.X[:]) < 0 {
				return fmt.Errorf("untrained model")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("ml.knn_predict_us", "us", d/1e3, fmt.Sprintf("%d query rows against %d; median of %d reps", len(queries), n, reps))

	sampler, err := core.NewRTBS[datagen.Point](modelLambda, n, xrand.New(b.cfg.seed))
	if err != nil {
		return err
	}
	train := func(sample []datagen.Point) (*ml.KNN, error) {
		m, err := ml.NewKNN(k)
		if err != nil {
			return nil, err
		}
		txs, tys := make([][]float64, len(sample)), make([]int, len(sample))
		for i, p := range sample {
			txs[i], tys[i] = []float64{p.X[0], p.X[1]}, p.Class
		}
		return m, m.Fit(txs, tys)
	}
	eval := func(m *ml.KNN, batch []datagen.Point) float64 {
		wrong := 0
		for _, p := range batch {
			if m.Predict(p.X[:]) != p.Class {
				wrong++
			}
		}
		return 100 * float64(wrong) / float64(len(batch))
	}
	mgr, err := manage.New[datagen.Point, *ml.KNN](sampler, train, eval, manage.Always{})
	if err != nil {
		return err
	}
	if _, err := mgr.Step(pts); err != nil { // fill the reservoir first
		return err
	}
	steps := make([][]datagen.Point, reps)
	for i := range steps {
		steps[i] = gen.Batch(3+i, batch)
	}
	i := 0
	d, err = b.timeReps("manage.step", reps, 1, func() error {
		_, err := mgr.Step(steps[i])
		i++
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("manage.step_us", "us", d/1e3, fmt.Sprintf("Step on a %d-row batch, n=%d, policy always; median of %d reps", batch, n, reps))
	return nil
}

// walLayers times WAL append (fsync off) in the workload's chunk shape,
// replay and TailForKey on a copy of the traced pass's own WAL, and
// group-commit Sync after an append of tenant-request size.
func (b *bench) walLayers(in layerInputs, reps int) error {
	dir, err := os.MkdirTemp(b.runDir, "layer-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	chunks := chunksOf(in.ndjson, in.chunk)
	if len(chunks) == 0 {
		return fmt.Errorf("no %d-item chunks in the workload's bodies", in.chunk)
	}
	perRep := len(chunks) * in.chunk
	rep := 0
	d, err := b.timeReps("wal.append", reps, perRep, func() error {
		rep++
		l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "append-"+strconv.Itoa(rep)), Fsync: wal.SyncOff})
		if err != nil {
			return err
		}
		for i, c := range chunks {
			if _, err := wal.AppendItems(l, in.keys[i%len(in.keys)], c); err != nil {
				l.Close()
				return err
			}
		}
		return l.Close()
	})
	if err != nil {
		return err
	}
	b.setLayer("wal.append_ns_per_item", "ns/item", d, fmt.Sprintf("%d items in %d-item records, fsync off; median of %d reps", perRep, in.chunk, reps))

	// Replay and TailForKey read a copy of the WAL the traced pass left
	// before its restart, so they see the run's record count and mix.
	replays := b.reps(3)
	for r := 1; r <= replays; r++ {
		if err := copyDir(b.runWAL, filepath.Join(dir, "replay-"+strconv.Itoa(r))); err != nil {
			return err
		}
	}
	var records, items int
	rep = 0
	d, err = b.timeReps("wal.replay", replays, 1, func() error {
		rep++
		l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "replay-"+strconv.Itoa(rep)), Fsync: wal.SyncOff})
		if err != nil {
			return err
		}
		records, items = 0, 0
		err = l.Replay(func(r wal.Record) error {
			records++
			items += len(r.Items)
			return nil
		})
		return errors.Join(err, l.Close())
	})
	if err != nil {
		return err
	}
	b.setLayer("wal.replay_ns_per_item", "ns/item", d/float64(max(items, 1)),
		fmt.Sprintf("Open+Replay of the traced run's WAL: %d records, %d items; median of %d reps", records, items, replays))

	tl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "replay-1"), Fsync: wal.SyncOff})
	if err != nil {
		return err
	}
	tk := 0
	d, err = b.timeReps("wal.tail_for_key", replays, 1, func() error {
		_, err := tl.TailForKey(in.keys[tk%len(in.keys)], 0)
		tk++
		return err
	})
	if cerr := tl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.setLayer("wal.tail_for_key_us", "us", d/1e3, fmt.Sprintf("the traced run's WAL, %d records; median of %d reps", records, replays))

	sl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "sync"), Fsync: wal.SyncGroup})
	if err != nil {
		return err
	}
	defer sl.Close()
	req := chunks[0]
	if len(req) > tenantItems {
		req = req[:tenantItems]
	}
	nsync := 200
	if b.cfg.tiny {
		nsync = 12
	}
	var syncs samples
	for i := 0; i < nsync; i++ {
		lsn, err := wal.AppendItems(sl, in.keys[0], req)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := sl.Sync(lsn); err != nil {
			return err
		}
		t1 := time.Now()
		b.spans.add(0, 0, "layer/wal.sync", t0, t1)
		syncs = append(syncs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	b.setLayer("wal.sync_p50_us", "us", syncs.quantile(0.5), fmt.Sprintf("n=%d syncs after %d-item appends", len(syncs), len(req)))
	b.setLayer("wal.sync_p99_us", "us", syncs.quantile(0.99), fmt.Sprintf("n=%d beyond=%d", len(syncs), syncs.beyond(0.99)))
	return nil
}

// coreLayers times the R-TBS sampler alone at the workload's batch size —
// the single-threaded baseline — and restoring it from a snapshot.
func (b *bench) coreLayers(in layerInputs, reps int) error {
	lambda, n := *in.opts.Sampler.Lambda, in.n
	cfg := tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n}.WithSeed(b.cfg.seed)
	s, err := tbs.NewFromConfig[[]byte](cfg)
	if err != nil {
		return err
	}
	batches := chunksOf(in.ndjson, in.chunk)
	// Enough batches per repetition that the sample is full and the timing
	// is well above the clock's resolution.
	for len(batches)*in.chunk < 20_000 {
		batches = append(batches, batches...)
	}
	for _, bt := range batches {
		s.Advance(bt)
	}
	d, err := b.timeReps("core.advance", reps, len(batches)*in.chunk, func() error {
		for _, bt := range batches {
			s.Advance(bt)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("core.advance_ns_per_item", "ns/item", d, fmt.Sprintf("%d items in %d-item batches, n=%d; median of %d reps", len(batches)*in.chunk, in.chunk, n, reps))

	snap, err := s.Snapshot()
	if err != nil {
		return err
	}
	d, err = b.timeReps("core.restore", reps, 1, func() error {
		_, err := tbs.Restore[[]byte](snap)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("core.restore_us", "us", d/1e3, fmt.Sprintf("snapshot of %d bytes, n=%d; median of %d reps", len(snap.State), n, reps))
	return nil
}

// serverLayers drives an in-process server with the workload's requests
// and flags: per-item ingest cost, a boundary with its stats read, a
// checkpoint pass, a boot over a copy of the checkpoint directory, cold
// hits after HibernatePass, checkpoint-sized atomic writes, and predicts.
func (b *bench) serverLayers(in layerInputs, reps int) error {
	dir, err := os.MkdirTemp(b.runDir, "layer-server-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := in.opts
	opts.CheckpointDir = filepath.Join(dir, "ckpt")
	if opts.WALDir != "" {
		opts.WALDir = filepath.Join(opts.CheckpointDir, "wal")
	}
	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		return srv.Stop(ctx)
	}
	defer stop()
	h := srv.Handler()
	if in.setup != nil {
		if err := in.setup(h); err != nil {
			return err
		}
	}
	items := 0
	for _, r := range in.requests {
		items += r.items
	}
	d, err := b.timeReps("server.ingest", reps, items, func() error {
		for _, r := range in.requests {
			if _, err := handlerCall(h, http.MethodPost, r.path, r.ctype, r.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("server.ingest_ns_per_item", "ns/item", d, fmt.Sprintf("%d requests, %d items via Handler().ServeHTTP; median of %d reps", len(in.requests), items, reps))

	d, err = b.timeReps("server.boundary", reps, 1, func() error {
		if _, err := handlerCall(h, http.MethodPost, in.boundary.path, in.boundary.ctype, in.boundary.body); err != nil {
			return err
		}
		_, err := handlerCall(h, http.MethodGet, in.stats, "", nil)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("server.boundary_ms", "ms", d/1e6, fmt.Sprintf("batch with ?advance=true + %s; median of %d reps", in.stats, reps))

	// Checkpoint passes: each repetition re-dirties every stream first.
	var passes []float64
	for r := 0; r < b.reps(5); r++ {
		for _, q := range in.requests[:min(len(in.requests), in.streams)] {
			if _, err := handlerCall(h, http.MethodPost, q.path, q.ctype, q.body); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := srv.CheckpointNow(); err != nil {
			return err
		}
		t1 := time.Now()
		b.spans.add(0, 0, "layer/server.checkpoint_pass", t0, t1)
		passes = append(passes, ms(t1.Sub(t0)))
	}
	b.setLayer("server.checkpoint_pass_ms", "ms", median(passes), fmt.Sprintf("CheckpointNow over %d dirty streams; median of %d passes", in.streams, len(passes)))
	if err := stop(); err != nil {
		return err
	}

	// Checkpoint-sized atomic writes, sized from the files just written.
	ents, err := os.ReadDir(opts.CheckpointDir)
	if err != nil {
		return err
	}
	size, nfiles := 0, 0
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			size += int(fi.Size())
			nfiles++
		}
	}
	if nfiles == 0 {
		return fmt.Errorf("checkpoint pass wrote no files")
	}
	payload := bytes.Repeat([]byte{'x'}, size/nfiles)
	d, err = b.timeReps("atomicfile.write", b.reps(30), 1, func() error {
		return atomicfile.WriteFile(filepath.Join(dir, "atomic.json"), payload, 0o644)
	})
	if err != nil {
		return err
	}
	b.setLayer("atomicfile.write_us", "us", d/1e3, fmt.Sprintf("%d-byte file (mean checkpoint size); median of %d writes", len(payload), b.reps(30)))

	// Boot over a copy of a checkpoint directory, then cold hits.
	src := in.tiered
	if src == "" {
		src = opts.CheckpointDir
	}
	var boots []float64
	var booted *server.Server
	for r := 0; r < b.reps(3); r++ {
		cp := filepath.Join(dir, "boot-"+strconv.Itoa(r))
		if err := copyDir(src, cp); err != nil {
			return err
		}
		bo := in.opts
		bo.CheckpointDir, bo.WALDir, bo.MaxResident = cp, "", in.resident
		t0 := time.Now()
		s2, err := server.New(bo)
		if err != nil {
			return err
		}
		t1 := time.Now()
		b.spans.add(0, 0, "layer/server.boot_restore", t0, t1)
		boots = append(boots, t1.Sub(t0).Seconds())
		if booted != nil {
			_ = booted.Stop(context.Background())
		}
		booted = s2
	}
	b.setLayer("server.boot_restore_s", "s", median(boots), fmt.Sprintf("server.New over a copy of %d checkpoint files; median of %d boots", len(in.keys), len(boots)))
	defer booted.Stop(context.Background())
	var cold samples
	bh := booted.Handler()
	want := 200
	if b.cfg.tiny {
		want = 20
	}
	for round := 0; len(cold) < want && round < 100; round++ {
		if _, err := booted.HibernatePass(); err != nil {
			return err
		}
		for _, key := range in.keys {
			if len(cold) >= want {
				break
			}
			resident := booted.ResidentStreams()
			t0 := time.Now()
			if _, err := handlerCall(bh, http.MethodGet, "/v1/streams/"+key+"/stats", "", nil); err != nil {
				return err
			}
			t1 := time.Now()
			if booted.ResidentStreams() == resident {
				continue // the stream was still resident: not a cold hit
			}
			b.spans.add(0, 0, "layer/server.cold_hit", t0, t1)
			cold = append(cold, float64(t1.Sub(t0).Nanoseconds())/1e3)
			if booted.ResidentStreams() > in.resident {
				if _, err := booted.HibernatePass(); err != nil {
					return err
				}
			}
		}
	}
	b.setLayer("server.cold_hit_p50_us", "us", cold.quantile(0.5), fmt.Sprintf("n=%d /stats hits on hibernated streams after HibernatePass", len(cold)))
	b.setLayer("server.cold_hit_p99_us", "us", cold.quantile(0.99), fmt.Sprintf("n=%d beyond=%d", len(cold), cold.beyond(0.99)))
	return b.predictLayer(reps)
}

// predictLayer times in-process predicts against a kNN stream trained on
// one full reservoir of the model workload's data.
func (b *bench) predictLayer(reps int) error {
	lambda, n, seed := modelLambda, modelN, b.cfg.seed
	srv, err := server.New(server.Options{Sampler: tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n, Seed: &seed}})
	if err != nil {
		return err
	}
	defer srv.Stop(context.Background())
	h := srv.Handler()
	data, err := newModelData(b.cfg.seed, 3)
	if err != nil {
		return err
	}
	if _, err := handlerCall(h, http.MethodPut, "/v1/streams/m0/model", "application/json", []byte(modelSpecJSON)); err != nil {
		return err
	}
	if _, err := handlerCall(h, http.MethodPost, "/v1/streams/m0/items?advance=true", modelNDJSONCT, data.nextBatch(0, modelWarm)); err != nil {
		return err
	}
	// model/stats returns once the retrain has deployed.
	if _, err := handlerCall(h, http.MethodGet, "/v1/streams/m0"+modelStatsPath, "", nil); err != nil {
		return err
	}
	const calls = 50
	d, err := b.timeReps("server.predict", reps, calls, func() error {
		for i := 0; i < calls; i++ {
			if _, err := handlerCall(h, http.MethodPost, "/v1/streams/m0/model/predict", "application/json", data.queries[0][i%len(data.queries[0])]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("server.predict_us", "us", d/1e3, fmt.Sprintf("%d-row predicts, %d per rep; median of %d reps", modelPredRows, calls, reps))
	return nil
}
