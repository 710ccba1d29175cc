package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/tbs"
)

func ptr[T any](v T) *T { return &v }

func rtbsConfig(seed uint64) tbs.Config {
	return tbs.Config{Scheme: "rtbs", Lambda: ptr(0.1), MaxSize: ptr(40), Seed: ptr(seed)}
}

// harness wires a Server to an httptest.Server and a tiny JSON client.
type harness struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	h := &harness{t: t, srv: srv, ts: ts}
	t.Cleanup(func() { h.close() })
	return h
}

func (h *harness) close() {
	if h.ts != nil {
		h.ts.Close()
		h.ts = nil
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := h.srv.Stop(ctx); err != nil {
			h.t.Errorf("Stop: %v", err)
		}
	}
}

// do issues a request and decodes the JSON response into out (when
// non-nil), failing the test on transport errors.
func (h *harness) do(method, path string, body any, wantStatus int, out any) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		h.t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			h.t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
}

func itemBatch(key string, t, size int) []int {
	b := make([]int, size)
	for i := range b {
		b[i] = len(key)*1_000_000 + t*1000 + i
	}
	return b
}

type sampleResp struct {
	Key    string            `json:"key"`
	Scheme string            `json:"scheme"`
	Size   int               `json:"size"`
	Items  []json.RawMessage `json:"items"`
}

// driveStream feeds batches [from, to] with explicit boundaries.
func (h *harness) driveStream(key string, from, to int) {
	for t := from; t <= to; t++ {
		h.do("POST", "/v1/streams/"+key+"/items", itemBatch(key, t, 20), http.StatusOK, nil)
		h.do("POST", "/v1/streams/"+key+"/advance", nil, http.StatusOK, nil)
	}
}

func (h *harness) sample(key string) sampleResp {
	var s sampleResp
	h.do("GET", "/v1/streams/"+key+"/sample", nil, http.StatusOK, &s)
	return s
}

// TestEndToEndCheckpointRestart is the PR's acceptance test: concurrent
// keyed ingest across 8 goroutines, explicit batch boundaries, a sample
// fetch, then kill + restart from checkpoint — the resumed server must
// produce byte-identical samples to an uninterrupted reference run with
// the same seed and batch boundaries. Both runs fetch at the same
// points, though a fetch changes no state.
func TestEndToEndCheckpointRestart(t *testing.T) {
	const goroutines = 8
	keys := make([]string, goroutines)
	for i := range keys {
		keys[i] = fmt.Sprintf("stream-%02d", i)
	}
	opts := func(dir string) Options {
		return Options{Sampler: rtbsConfig(5), Shards: 4, CheckpointDir: dir}
	}
	runPhase := func(h *harness, from, to int) {
		var wg sync.WaitGroup
		for _, key := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.driveStream(key, from, to)
			}()
		}
		wg.Wait()
	}

	// Interrupted run: batches 1–5, a mid-run sample fetch per key, kill
	// (final checkpoint), restart, batches 6–10.
	dir := t.TempDir()
	h1 := newHarness(t, opts(dir))
	runPhase(h1, 1, 5)
	for _, key := range keys {
		h1.sample(key)
	}
	h1.close()

	h2 := newHarness(t, opts(dir))
	var metricsText string
	{
		resp, err := http.Get(h2.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metricsText = string(data)
	}
	if !bytes.Contains([]byte(metricsText), []byte(fmt.Sprintf("tbsd_restored_streams %d", goroutines))) {
		t.Fatalf("restart did not restore %d streams:\n%s", goroutines, metricsText)
	}
	runPhase(h2, 6, 10)
	resumed := make(map[string]sampleResp)
	for _, key := range keys {
		resumed[key] = h2.sample(key)
	}

	// Uninterrupted reference run, same seed and batch boundaries, with
	// the sample fetches at the same point after batch 5.
	ref := newHarness(t, Options{Sampler: rtbsConfig(5), Shards: 4})
	runPhase(ref, 1, 5)
	for _, key := range keys {
		ref.sample(key)
	}
	runPhase(ref, 6, 10)

	for _, key := range keys {
		want := ref.sample(key)
		got := resumed[key]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream %s: resumed sample diverges from uninterrupted run\n got: size=%d %v\nwant: size=%d %v",
				key, got.Size, got.Items, want.Size, want.Items)
		}
		if got.Size == 0 {
			t.Errorf("stream %s: empty sample after 10 batches", key)
		}
	}
}

// TestPendingItemsSurviveRestart: items ingested but not yet advanced are
// part of the checkpoint and are folded in by the first post-restart
// advance.
func TestPendingItemsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, Options{Sampler: rtbsConfig(3), CheckpointDir: dir})
	h1.do("POST", "/v1/streams/k/items", itemBatch("k", 1, 30), http.StatusOK, nil)
	h1.close()

	h2 := newHarness(t, Options{Sampler: rtbsConfig(3), CheckpointDir: dir})
	var stats struct {
		Pending  int    `json:"pending"`
		Ingested uint64 `json:"ingested"`
	}
	h2.do("GET", "/v1/streams/k/stats", nil, http.StatusOK, &stats)
	if stats.Pending != 30 || stats.Ingested != 30 {
		t.Fatalf("restored counters = %+v, want pending=30 ingested=30", stats)
	}
	h2.do("POST", "/v1/streams/k/advance", nil, http.StatusOK, nil)
	if s := h2.sample("k"); s.Size == 0 {
		t.Fatal("sample empty after advancing the restored pending batch")
	}
}

// TestTickerAdvancesAllStreams: with a batch interval configured, batch
// boundaries arrive from the wall clock alone.
func TestTickerAdvancesAllStreams(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1), BatchInterval: 5 * time.Millisecond})
	h.do("POST", "/v1/streams/tick/items", itemBatch("tick", 1, 25), http.StatusOK, nil)

	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			Batches uint64  `json:"batches"`
			Now     float64 `json:"now"`
		}
		h.do("GET", "/v1/streams/tick/stats", nil, http.StatusOK, &stats)
		if stats.Batches >= 3 {
			if stats.Now < 3 {
				t.Fatalf("batches=%d but sampler clock now=%v", stats.Batches, stats.Now)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticker closed only %d batches in 5s", stats.Batches)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := h.sample("tick"); s.Size == 0 {
		t.Fatal("sample empty after ticker advances")
	}
}

// TestConcurrentChaos hammers one hot key and several cold keys from many
// goroutines while the ticker and checkpointer run — a -race workout with
// liveness assertions only.
func TestConcurrentChaos(t *testing.T) {
	h := newHarness(t, Options{
		Sampler:            rtbsConfig(2),
		Shards:             4,
		BatchInterval:      2 * time.Millisecond,
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: 3 * time.Millisecond,
	})
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := "hot"
			if g%3 == 0 {
				key = fmt.Sprintf("cold-%d", g)
			}
			for i := 0; i < 20; i++ {
				h.do("POST", "/v1/streams/"+key+"/items?advance="+fmt.Sprint(i%2), itemBatch(key, i, 5), http.StatusOK, nil)
				h.do("GET", "/v1/streams/"+key+"/stats", nil, http.StatusOK, nil)
				h.sample(key)
			}
		}()
	}
	wg.Wait()
	var list struct {
		Count   int      `json:"count"`
		Streams []string `json:"streams"`
	}
	h.do("GET", "/v1/streams", nil, http.StatusOK, &list)
	if list.Count < 2 {
		t.Fatalf("expected hot + cold streams, got %v", list.Streams)
	}
}

// TestHandlerErrors covers the API's failure surface.
func TestHandlerErrors(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})

	h.do("GET", "/v1/streams/ghost/sample", nil, http.StatusNotFound, nil)
	h.do("GET", "/v1/streams/ghost/stats", nil, http.StatusNotFound, nil)

	req, _ := http.NewRequest("POST", h.ts.URL+"/v1/streams/k/items", bytes.NewReader([]byte("{not json")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON ingest: status %d, want 400", resp.StatusCode)
	}

	longKey := ""
	for len(longKey) <= maxKeyBytes {
		longKey += "x"
	}
	h.do("POST", "/v1/streams/"+longKey+"/items", 1, http.StatusBadRequest, nil)

	// Wrong method on a registered pattern.
	resp2, err := http.Get(h.ts.URL + "/v1/streams/k/items")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on items: status %d, want 405", resp2.StatusCode)
	}
}

// TestSingleVsBulkIngest: a non-array body is one item; an array body is
// one item per element.
func TestSingleVsBulkIngest(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	var resp struct {
		Added   int `json:"added"`
		Pending int `json:"pending"`
	}
	h.do("POST", "/v1/streams/k/items", map[string]any{"user": "u1", "v": 1}, http.StatusOK, &resp)
	if resp.Added != 1 || resp.Pending != 1 {
		t.Fatalf("single ingest: %+v", resp)
	}
	h.do("POST", "/v1/streams/k/items", []int{1, 2, 3}, http.StatusOK, &resp)
	if resp.Added != 3 || resp.Pending != 4 {
		t.Fatalf("bulk ingest: %+v", resp)
	}
	// A literal JSON null is one item, not an empty bulk request.
	h.do("POST", "/v1/streams/k/items", json.RawMessage("null"), http.StatusOK, &resp)
	if resp.Added != 1 || resp.Pending != 5 {
		t.Fatalf("null ingest: %+v", resp)
	}
}

// TestPendingCap: ingest beyond MaxPendingItems is rejected with 429
// until a batch boundary drains the open batch.
func TestPendingCap(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1), MaxPendingItems: 10})
	h.do("POST", "/v1/streams/k/items", itemBatch("k", 1, 10), http.StatusOK, nil)
	h.do("POST", "/v1/streams/k/items", 99, http.StatusTooManyRequests, nil)
	h.do("POST", "/v1/streams/k/advance", nil, http.StatusOK, nil)
	h.do("POST", "/v1/streams/k/items", 99, http.StatusOK, nil)
}

// TestStreamCap: creating streams beyond MaxStreams is rejected with 429;
// existing streams keep working.
func TestStreamCap(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1), MaxStreams: 2})
	h.do("POST", "/v1/streams/a/items", 1, http.StatusOK, nil)
	h.do("POST", "/v1/streams/b/advance", nil, http.StatusOK, nil)
	h.do("POST", "/v1/streams/c/items", 1, http.StatusTooManyRequests, nil)
	h.do("POST", "/v1/streams/c/advance", nil, http.StatusTooManyRequests, nil)
	h.do("POST", "/v1/streams/a/items", 2, http.StatusOK, nil)
}

// TestRestoreSchemeMismatch: a checkpoint directory written under one
// scheme must fail boot under another, not silently mix semantics.
func TestRestoreSchemeMismatch(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, Options{Sampler: rtbsConfig(1), CheckpointDir: dir})
	h.driveStream("k", 1, 2)
	h.close()

	_, err := New(Options{
		Sampler:       tbs.Config{Scheme: "brs", MaxSize: ptr(40), Seed: ptr(uint64(1))},
		CheckpointDir: dir,
	})
	if err == nil {
		t.Fatal("boot with a mismatched scheme succeeded")
	}
}

// TestMetricsEndpoint checks the text exposition after traffic that
// reaches every latency family: batch advances, a checkpoint pass, WAL
// group fsyncs and a cold-hit hydration. Each latency is a Prometheus
// histogram whose count is its _total counter, and no series carries a
// per-process quantile label.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, Options{
		Sampler: rtbsConfig(1), Shards: 2, CheckpointDir: dir,
		WALDir: filepath.Join(dir, "wal"), WALFsync: "group",
		IdleAfter: time.Nanosecond, HibernateInterval: time.Hour,
	})
	h.driveStream("m1", 1, 3)
	h.driveStream("m2", 1, 2)
	if err := h.srv.checkpointAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	h.do("GET", "/v1/streams/m1/stats", nil, http.StatusOK, nil)
	text := h.get("/metrics")
	for _, want := range []string{
		"tbsd_streams 2",
		"tbsd_shards 2",
		`tbsd_shard_streams{shard="0"}`,
		"tbsd_ingested_items_total 100",
		"tbsd_advances_total 5",
		`tbsd_advance_latency_seconds_bucket{le="+Inf"} 5`,
		"tbsd_checkpoints_total 1",
		"tbsd_checkpointed_streams_total 2",
		"tbsd_hydrations_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	for family, total := range map[string]string{
		"tbsd_advance_latency_seconds":     "tbsd_advances_total",
		"tbsd_checkpoint_duration_seconds": "tbsd_checkpoints_total",
		"tbsd_hydration_latency_seconds":   "tbsd_hydrations_total",
		"tbsd_wal_fsync_seconds":           "tbsd_wal_fsyncs_total",
	} {
		checkLatencyFamily(t, text, family, total)
	}
	if strings.Contains(text, `stat="`) {
		t.Errorf("metrics output carries a stat label:\n%s", text)
	}
}

// checkLatencyFamily requires family to render as a histogram: one
// cumulative _bucket line per obs bucket, ending at le="+Inf", whose
// count equals _count and the total counter, and is nonzero.
func checkLatencyFamily(t *testing.T, exposition, family, total string) {
	t.Helper()
	var buckets []uint64
	var lastBucket, count, tot string
	for _, line := range strings.Split(exposition, "\n") {
		name, val, _ := strings.Cut(line, " ")
		switch {
		case strings.HasPrefix(name, family+"_bucket{"):
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || (len(buckets) > 0 && n < buckets[len(buckets)-1]) {
				t.Errorf("%s: bucket line %q is not a cumulative count", family, line)
			}
			buckets = append(buckets, n)
			lastBucket = name
		case name == family+"_count":
			count = val
		case name == total:
			tot = val
		}
	}
	if len(buckets) != obs.HistFiniteBuckets+1 || lastBucket != family+`_bucket{le="+Inf"}` {
		t.Fatalf("%s: %d bucket lines ending in %q, want %d ending in le=\"+Inf\"",
			family, len(buckets), lastBucket, obs.HistFiniteBuckets+1)
	}
	if inf := strconv.FormatUint(buckets[len(buckets)-1], 10); inf != count || count != tot || count == "0" {
		t.Errorf("%s: +Inf bucket %s, _count %q, %s %q: want equal and nonzero", family, inf, count, total, tot)
	}
}
