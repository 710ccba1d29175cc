package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/manage"
	"repro/internal/wire"
	"repro/tbs"
)

// The library twin. One seeded operation sequence runs through tbsd's
// HTTP API and, in process, through tbs samplers and manage.Manager built
// the way the registry builds them: tbs.NewFromConfig over the server's
// config with tbs.DeriveSeed(base, key). Every /sample and /stats body,
// every boundary's score and retrain count (the full /model/stats body),
// and the deployed model's gob bytes must match. The served path — the three
// item decoders, ?batch=N boundaries, the engine, the background retrain
// lane, checkpoints, WAL replay after a kill, hibernation and handoff —
// then realizes exactly the library's stochastic process, so whatever the
// library tests prove about it (Eq. 4, the sample-size bounds, the §6
// error curves) holds on the served path by equality.
//
// The wall-clock ticker stays off, so only the sequence makes boundaries.

// twinModelSpecs is every learner under every policy.
func twinModelSpecs() []map[string]any {
	var out []map[string]any
	for _, learner := range []string{"knn", "linreg", "nb"} {
		for _, policy := range []string{"always", "every:3", "drift"} {
			spec := map[string]any{"learner": learner, "policy": policy}
			if learner == "knn" {
				spec["k"] = 5
			}
			if policy == "drift" {
				spec["drift"] = map[string]any{"window": 5, "factor": 1, "minObs": 2, "maxStale": 6}
			}
			out = append(out, spec)
		}
	}
	return out
}

// twinStream is one stream's library twin, plus the model bookkeeping
// that /model/stats reports beside the manager's counters.
type twinStream struct {
	key      string
	specJSON map[string]any // nil for a stream without a model
	attachAt int            // operation at which the model attaches
	flipAt   int            // operation after which labels drift

	sampler tbs.Sampler[Item]
	spec    ModelSpec
	policy  manage.Policy
	mgr     *manage.Manager[Item, *deployedModel]
	open    []Item
	home    int  // index of the node that owns the stream
	exists  bool // some request has created it

	ingested, batches uint64

	lastErr, errSum float64
	errN, failures  uint64
	staleness       int
	lastTrainErr    string
}

// row draws one row for the stream's learner; the last float of a
// labeled row is the label. Model streams also get unlabeled value rows,
// which sampling keeps and learning skips, and rarely a row that no fit
// accepts, so fits fail while it stays in the sample. Streams without a
// model mix value rows and labeled rows.
func (ts *twinStream) row(r *rand.Rand, op int) []float64 {
	drift := op > ts.flipAt
	learner, _ := ts.specJSON["learner"].(string)
	switch {
	case learner != "" && r.Intn(10) == 0:
		return []float64{r.Float64()}
	case learner == "linreg" && r.Intn(80) == 0:
		return make([]float64, maxModelFeatures+2)
	case learner != "" && r.Intn(80) == 0:
		return []float64{1, 2, maxModelClasses}
	}
	switch learner {
	case "knn":
		c := r.Intn(3)
		y := c
		if drift {
			y = (c + 1) % 3
		}
		return []float64{float64(c%2)*6 + r.NormFloat64(), float64(c/2)*6 + r.NormFloat64(), float64(y)}
	case "linreg":
		x0, x1 := r.Float64()*10, r.Float64()*10
		y := 2*x0 - x1 + 3
		if drift {
			y = -x0 + 2*x1
		}
		return []float64{x0, x1, y + r.NormFloat64()/2}
	case "nb":
		c := r.Intn(2)
		base := c
		if drift {
			base = 1 - c
		}
		row := make([]float64, 0, 5)
		for range 4 {
			row = append(row, float64(base*5+r.Intn(5)))
		}
		return append(row, float64(c))
	}
	if r.Intn(2) == 0 {
		return []float64{r.Float64() * 100}
	}
	return []float64{r.NormFloat64(), r.NormFloat64(), float64(r.Intn(2))}
}

// boundary closes the twin's open batch: a sampler advance, or a full
// manager step when a model is attached.
func (ts *twinStream) boundary() {
	batch := ts.open
	ts.open = nil
	ts.batches++
	if ts.mgr == nil {
		ts.sampler.Advance(batch)
		return
	}
	before := ts.mgr.Retrains()
	score, err := ts.mgr.Step(batch)
	ts.staleness++
	ts.lastErr = score
	if !math.IsNaN(score) {
		ts.errSum += score
		ts.errN++
	}
	switch {
	case err != nil:
		ts.failures++
		ts.lastTrainErr = errors.Unwrap(err).Error()
	case ts.mgr.Retrains() > before:
		ts.staleness = 0
		ts.lastTrainErr = ""
	}
}

// wantStats is the /model/stats body the twin predicts.
func (ts *twinStream) wantStats() modelStats {
	st := modelStats{
		Learner:       ts.spec.Learner,
		Policy:        ts.spec.Policy,
		Batches:       ts.mgr.T(),
		ScoredBatches: ts.errN,
		Retrains:      uint64(ts.mgr.Retrains()),
		Staleness:     ts.staleness,
		TrainFailures: ts.failures,
		LastTrainErr:  ts.lastTrainErr,
	}
	if d, ok := ts.mgr.Model(); ok {
		st.HasModel, st.TrainSize = true, d.trainSize
	}
	if !math.IsNaN(ts.lastErr) {
		v := ts.lastErr
		st.LastBatchErr = &v
	}
	if ts.errN > 0 {
		v := ts.errSum / float64(ts.errN)
		st.MeanBatchErr = &v
	}
	if sp, ok := ts.policy.(manage.StatefulPolicy); ok {
		ps := sp.State()
		st.PolicyState = &ps
	}
	return st
}

// binItem is a row in the item form x-tbs-bin ingest stores.
func binItem(row []float64) Item {
	it := Item{0x80 | byte(len(row)&0x7f), byte(len(row) >> 7)}
	for _, v := range row {
		it = binary.LittleEndian.AppendUint64(it, math.Float64bits(v))
	}
	return it
}

// twinCase is one server configuration and the streams it carries.
type twinCase struct {
	name  string
	cfg   tbs.Config
	wal   bool
	specs []map[string]any // one model stream per spec, beside one plain stream
	ops   int
	seed  int64
}

// twinCases covers every scheme tbsd serves (each with one learner ×
// policy pair, round robin) with the WAL on, and R-TBS with the whole
// learner × policy grid with the WAL on and off. scale multiplies the
// operation counts.
func twinCases(seed int64, scale int) []twinCase {
	specs := twinModelSpecs()
	full := tbs.Config{Lambda: ptr(0.15), MaxSize: ptr(30), MeanBatch: ptr(10.0), Horizon: ptr(6.0)}
	var cases []twinCase
	for i, sc := range tbs.Schemes() {
		cfg, err := full.RestrictedTo(sc.Name)
		if err != nil {
			panic(err)
		}
		cases = append(cases, twinCase{name: sc.Name, cfg: cfg, wal: true,
			specs: specs[i%len(specs) : i%len(specs)+1], ops: 80 * scale, seed: seed + int64(i)})
	}
	rtbs, _ := full.RestrictedTo("rtbs")
	for i, wal := range []bool{true, false} {
		cases = append(cases, twinCase{name: fmt.Sprintf("rtbs-grid-wal=%v", wal), cfg: rtbs, wal: wal,
			specs: specs, ops: 400 * scale, seed: seed + 100 + int64(i)})
	}
	return cases
}

// twin drives one case: two nodes, so handoffs have somewhere to go.
type twin struct {
	t       *testing.T
	r       *rand.Rand
	c       twinCase
	scheme  string
	opts    [2]Options
	hs      [2]*harness
	streams []*twinStream
	op      int
}

func newTwin(t *testing.T, c twinCase) *twin {
	c.cfg = c.cfg.WithSeed(uint64(c.seed))
	tw := &twin{t: t, r: rand.New(rand.NewSource(c.seed)), c: c}
	for i := range tw.hs {
		dir := t.TempDir()
		tw.opts[i] = Options{
			Sampler:            c.cfg,
			Shards:             4,
			CheckpointDir:      dir,
			CheckpointInterval: time.Hour,
			IdleAfter:          time.Nanosecond, // HibernatePass evicts every idle stream
			HibernateInterval:  time.Hour,
			Advertise:          "http://" + dir,
		}
		if c.wal {
			tw.opts[i].WALDir = filepath.Join(dir, "wal")
		}
		tw.hs[i] = newHarness(t, tw.opts[i])
	}
	info, err := tbs.Lookup(c.cfg.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	tw.scheme = info.Name
	specs := append([]map[string]any{nil}, c.specs...)
	for i, spec := range specs {
		key := fmt.Sprintf("s%d", i)
		s, err := tbs.NewFromConfig[Item](c.cfg.WithSeed(tbs.DeriveSeed(*c.cfg.Seed, key)))
		if err != nil {
			t.Fatal(err)
		}
		tw.streams = append(tw.streams, &twinStream{key: key, specJSON: spec, sampler: s,
			attachAt: tw.r.Intn(8), flipAt: c.ops/2 + tw.r.Intn(c.ops/4+1), home: tw.r.Intn(2)})
	}
	return tw
}

func (tw *twin) fatalf(ts *twinStream, format string, args ...any) {
	tw.t.Helper()
	tw.t.Fatalf("%s, op %d, stream %s: %s", tw.c.name, tw.op, ts.key, fmt.Sprintf(format, args...))
}

func (tw *twin) run() {
	for tw.op = 0; tw.op < tw.c.ops; tw.op++ {
		for _, ts := range tw.streams {
			if ts.specJSON != nil && ts.mgr == nil && tw.op >= ts.attachAt {
				tw.attach(ts)
			}
		}
		ts := tw.streams[tw.r.Intn(len(tw.streams))]
		switch p := tw.r.Intn(100); {
		case p < 42:
			tw.ingest(ts)
		case p < 55:
			tw.advance(ts)
		case p < 64:
			tw.sample(ts)
		case p < 68:
			tw.stats(ts)
		case p < 74:
			if err := tw.hs[tw.r.Intn(2)].srv.CheckpointNow(); err != nil {
				tw.t.Fatalf("%s, op %d: checkpoint pass: %v", tw.c.name, tw.op, err)
			}
		case p < 80:
			tw.restart(tw.r.Intn(2))
		case p < 86:
			if _, err := tw.hs[tw.r.Intn(2)].srv.HibernatePass(); err != nil {
				tw.t.Fatalf("%s, op %d: hibernate pass: %v", tw.c.name, tw.op, err)
			}
		case p < 92:
			tw.handoff(ts)
		default:
			tw.checkModel(ts)
		}
	}
	for _, ts := range tw.streams {
		tw.sample(ts)
		tw.stats(ts)
		tw.checkModel(ts)
	}
}

// request sends one request to the stream's home node and requires want.
func (tw *twin) request(ts *twinStream, method, path, ctype string, body []byte, want int) []byte {
	tw.t.Helper()
	req, err := http.NewRequest(method, tw.hs[ts.home].ts.URL+"/v1/streams/"+ts.key+path, bytes.NewReader(body))
	if err != nil {
		tw.t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tw.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tw.t.Fatal(err)
	}
	if resp.StatusCode != want {
		tw.fatalf(ts, "%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, data)
	}
	return data
}

func (tw *twin) attach(ts *twinStream) {
	body, err := json.Marshal(ts.specJSON)
	if err != nil {
		tw.t.Fatal(err)
	}
	tw.request(ts, "PUT", "/model", "application/json", body, http.StatusOK)
	ts.exists = true
	if err := json.Unmarshal(body, &ts.spec); err != nil {
		tw.t.Fatal(err)
	}
	if err := ts.spec.normalize(); err != nil {
		tw.t.Fatal(err)
	}
	if ts.policy, err = ts.spec.buildPolicy(); err != nil {
		tw.t.Fatal(err)
	}
	// The library side fits and scores through a fresh row cache every
	// time, so the server's long-lived cache must be invisible.
	spec := ts.spec
	fit := func(sample []Item) (*deployedModel, error) { return trainModel(spec, sample, newRowCache()) }
	eval := func(d *deployedModel, batch []Item) float64 {
		return (&managedModel{spec: spec, rows: newRowCache()}).score(d, batch)
	}
	if ts.mgr, err = manage.New(ts.sampler, fit, eval, ts.policy); err != nil {
		tw.t.Fatal(err)
	}
	ts.lastErr = math.NaN()
}

// ingest sends up to 23 rows in one of the three formats, with a ?batch=N
// boundary and a closing ?advance=true each drawn at random.
func (tw *twin) ingest(ts *twinStream) {
	n := tw.r.Intn(24)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ts.row(tw.r, tw.op)
	}
	every, advance := 0, tw.r.Intn(5) < 2
	if tw.r.Intn(3) == 0 {
		every = 2 + tw.r.Intn(8)
	}
	query := "?advance=" + strconv.FormatBool(advance)
	if every > 0 {
		query += "&batch=" + strconv.Itoa(every)
	}
	items := make([]Item, n)
	var body []byte
	var ctype string
	switch tw.r.Intn(3) {
	case 0:
		ctype = "application/json"
		body = append(body, '[')
		for i, row := range rows {
			items[i] = wire.AppendRowJSON(nil, row)
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, items[i]...)
		}
		body = append(body, ']')
	case 1:
		ctype = "application/x-ndjson"
		for i, row := range rows {
			items[i] = wire.AppendRowJSON(nil, row)
			body = append(append(body, items[i]...), '\n')
		}
	default:
		ctype = wire.BinContentType
		for i, row := range rows {
			items[i] = binItem(row)
		}
		// Up to two frames (a frame holds at least one row), so a frame
		// can span a ?batch=N boundary.
		for _, part := range [][][]float64{rows[:n/2], rows[n/2:]} {
			if len(part) > 0 {
				body = wire.AppendFrame(body, part)
			}
		}
	}
	tw.request(ts, "POST", "/items"+query, ctype, body, http.StatusOK)
	ts.exists = true
	ts.ingested += uint64(n)
	boundaries := 0
	for i, it := range items {
		ts.open = append(ts.open, it)
		if every > 0 && (i+1)%every == 0 {
			ts.boundary()
			boundaries++
		}
	}
	if advance {
		ts.boundary()
		boundaries++
	}
	if boundaries > 0 {
		tw.checkStats(ts)
	}
}

func (tw *twin) advance(ts *twinStream) {
	tw.request(ts, "POST", "/advance", "", nil, http.StatusOK)
	ts.exists = true
	ts.boundary()
	tw.checkStats(ts)
}

// sample requires the /sample body to equal the twin's realization,
// rendered as the handler renders it.
func (tw *twin) sample(ts *twinStream) {
	if !ts.exists {
		return
	}
	got := tw.request(ts, "GET", "/sample", "", nil, http.StatusOK)
	items := ts.sampler.Sample()
	if items == nil {
		items = []Item{}
	}
	tw.equalJSON(ts, "/sample", got, map[string]any{"key": ts.key, "scheme": tw.scheme, "size": len(items), "items": items})
}

// equalJSON requires a response body to equal v as the handlers encode it.
func (tw *twin) equalJSON(ts *twinStream, what string, got []byte, v any) {
	tw.t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		tw.t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		tw.fatalf(ts, "%s diverged from the library:\n got %s\nwant %s", what, got, want.Bytes())
	}
}

// stats requires the /stats body to equal the twin's counters and its
// sampler's expected size, total weight and clock.
func (tw *twin) stats(ts *twinStream) {
	if !ts.exists {
		return
	}
	want := map[string]any{
		"key": ts.key, "scheme": tw.scheme, "expectedSize": ts.sampler.ExpectedSize(),
		"pending": len(ts.open), "ingested": ts.ingested, "batches": ts.batches,
	}
	if total, lambda, ok := tbs.Weight[Item](ts.sampler); ok {
		want["totalWeight"], want["lambda"] = total, lambda
	}
	if now, ok := tbs.Now[Item](ts.sampler); ok {
		want["now"] = now
	}
	tw.equalJSON(ts, "/stats", tw.request(ts, "GET", "/stats", "", nil, http.StatusOK), want)
}

// checkStats requires /model/stats to equal the twin's prediction: batch
// count, the latest and mean batch error, retrains, staleness, fit
// failures and the policy state.
func (tw *twin) checkStats(ts *twinStream) {
	if ts.mgr == nil {
		return
	}
	var got modelStatsResp
	if err := json.Unmarshal(tw.request(ts, "GET", "/model/stats", "", nil, http.StatusOK), &got); err != nil {
		tw.t.Fatal(err)
	}
	if want := ts.wantStats(); !reflect.DeepEqual(got.Stats, want) {
		tw.fatalf(ts, "model stats diverged from the library:\n got %+v\nwant %+v", got.Stats, want)
	}
}

// checkModel compares the deployed model's gob bytes. The stats request
// first makes the stream resident and waits out any retrain.
func (tw *twin) checkModel(ts *twinStream) {
	if ts.mgr == nil {
		return
	}
	tw.checkStats(ts)
	d, ok := tw.hs[ts.home].srv.reg.lookup(ts.key).model.Load().mgr.Model()
	want, wantOK := ts.mgr.Model()
	if ok != wantOK {
		tw.fatalf(ts, "deployed model present = %v, library %v", ok, wantOK)
	}
	if !ok {
		return
	}
	gb, err := d.gobBytes()
	if err != nil {
		tw.t.Fatal(err)
	}
	wb, err := want.gobBytes()
	if err != nil {
		tw.t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		tw.fatalf(ts, "deployed model gob differs from the library's (%d vs %d bytes)", len(gb), len(wb))
	}
}

// restart kills node i — a SIGKILL at the storage layer, recovered by WAL
// replay — or, without a WAL, stops it cleanly, and boots it again.
func (tw *twin) restart(i int) {
	if tw.c.wal {
		tw.hs[i].kill()
	} else {
		tw.hs[i].close()
	}
	tw.hs[i] = newHarness(tw.t, tw.opts[i])
}

func (tw *twin) handoff(ts *twinStream) {
	if !ts.exists {
		return
	}
	to := 1 - ts.home
	tw.request(ts, "POST", "/handoff?target="+tw.hs[to].ts.URL, "", nil, http.StatusOK)
	ts.home = to
}

// TestLibraryTwin runs the short twin in tier-1. TBSD_TWIN runs a longer
// randomized version instead: an integer value is the base seed, any
// other value draws one (logged for a rerun).
func TestLibraryTwin(t *testing.T) {
	seed, scale := int64(1), 1
	if v := os.Getenv("TBSD_TWIN"); v != "" {
		var err error
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			seed = time.Now().UnixNano()
		}
		scale = 25
		t.Logf("TBSD_TWIN base seed %d", seed)
	}
	for _, c := range twinCases(seed, scale) {
		t.Run(c.name, func(t *testing.T) { newTwin(t, c).run() })
	}
}
