package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/tbs"
)

// kill simulates a SIGKILL at the storage layer: the HTTP listener and
// background loops stop and the engine drains ITS IN-MEMORY work, but no
// final checkpoint is taken — the disk is left exactly as an abrupt
// process death would leave it (the WAL file descriptor is closed, which
// loses nothing: records hit the OS on every append, and acknowledged
// ones were fsynced).
func (h *harness) kill() {
	h.t.Helper()
	if h.ts != nil {
		h.ts.Close()
		h.ts = nil
	}
	s := h.srv
	s.stopOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if s.eng != nil {
			s.eng.Close()
		}
	})
	if s.wal != nil {
		s.wal.Close()
	}
}

// walOpts is the crash-test configuration: checkpoints enabled but on an
// hour-long interval, so between explicit checkpointAll calls the WAL is
// the only thing standing between acknowledged traffic and the crash.
func walOpts(dir string, seed uint64) Options {
	return Options{
		Sampler:            rtbsConfig(seed),
		Shards:             4,
		CheckpointDir:      dir,
		CheckpointInterval: time.Hour,
		WALDir:             filepath.Join(dir, "wal"),
		WALFsync:           "group",
	}
}

// mustNDJSON streams an NDJSON body at the ingest route and requires a
// 200.
func (h *harness) mustNDJSON(key, query, body string) {
	h.t.Helper()
	resp, data := h.postNDJSON("/v1/streams/"+key+"/items"+query, body)
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("NDJSON ingest: status %d: %s", resp.StatusCode, data)
	}
}

type statsResp struct {
	Pending  int     `json:"pending"`
	Ingested uint64  `json:"ingested"`
	Batches  uint64  `json:"batches"`
	Now      float64 `json:"now"`
	Weight   float64 `json:"totalWeight"`
}

func (h *harness) stats(key string) statsResp {
	var st statsResp
	h.do("GET", "/v1/streams/"+key+"/stats", nil, http.StatusOK, &st)
	return st
}

// driveWALPhase pushes one deterministic round of mixed traffic: JSON
// ingest + advance on "json-k", NDJSON with pipelined boundaries on
// "nd-k", labeled batches on the model stream "model-k".
func driveWALPhase(h *harness, from, to int) {
	for t := from; t <= to; t++ {
		h.do("POST", "/v1/streams/json-k/items", itemBatch("json-k", t, 15), http.StatusOK, nil)
		h.do("POST", "/v1/streams/json-k/advance", nil, http.StatusOK, nil)
		h.mustNDJSON("nd-k", "?batch=10&advance=true",
			func() string {
				var b strings.Builder
				for i := 0; i < 25; i++ {
					fmt.Fprintf(&b, `{"t":%d,"i":%d}`+"\n", t, i)
				}
				return b.String()
			}())
		h.do("POST", "/v1/streams/model-k/items", labeledBatch(t, 20), http.StatusOK, nil)
		h.do("POST", "/v1/streams/model-k/advance", nil, http.StatusOK, nil)
	}
}

// TestWALCrashRecoveryDeterminism is the tentpole's acceptance test: with
// the checkpointer effectively off, every acknowledged operation must
// survive a kill via WAL replay alone — counters, sampler state, RNG
// trajectory, deployed model bytes and policy clock — and the resumed
// server must be byte-identical to an
// uninterrupted run fed the same request sequence.
func TestWALCrashRecoveryDeterminism(t *testing.T) {
	queries := []map[string]any{{"x": []float64{0.3, 0.1}}, {"x": []float64{10.2, 10.4}}}
	run := func(h *harness) {
		h.attachModel("model-k", map[string]any{"learner": "knn", "policy": "always"})
		driveWALPhase(h, 1, 4)
		h.sample("json-k") // a read mid-run, which journals nothing
	}

	dir := t.TempDir()
	h1 := newHarness(t, walOpts(dir, 11))
	run(h1)
	// Everything below was acknowledged before the kill.
	preJSON := h1.stats("json-k")
	preND := h1.stats("nd-k")
	preModel := h1.modelStats("model-k")
	prePred := h1.predict("model-k", queries, http.StatusOK)
	h1.kill()

	// No checkpoint file may exist for these streams: recovery runs on
	// the WAL alone (the checkpointer never fired).
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+checkpointSuffix)); len(files) != 0 {
		t.Fatalf("unexpected checkpoint files %v — the test would not exercise WAL recovery", files)
	}

	h2 := newHarness(t, walOpts(dir, 11))
	if got := h2.stats("json-k"); got != preJSON {
		t.Errorf("json-k stats after crash = %+v, want %+v", got, preJSON)
	}
	if got := h2.stats("nd-k"); got != preND {
		t.Errorf("nd-k stats after crash = %+v, want %+v", got, preND)
	}
	if got := h2.modelStats("model-k"); !reflect.DeepEqual(got, preModel) {
		t.Errorf("model stats after crash = %+v, want %+v", got, preModel)
	}
	if got := h2.predict("model-k", queries, http.StatusOK); !reflect.DeepEqual(got, prePred) {
		t.Errorf("predictions after crash = %+v, want %+v", got, prePred)
	}
	if preModel.Stats.Retrains == 0 {
		t.Fatal("no retrains before the kill — the model leg is vacuous")
	}
	// Continue the stream and compare against an uninterrupted run.
	driveWALPhase(h2, 5, 8)
	resumedJSON := h2.sample("json-k")
	resumedND := h2.sample("nd-k")
	resumedPred := h2.predict("model-k", queries, http.StatusOK)
	resumedModel := h2.modelStats("model-k")

	ref := newHarness(t, Options{Sampler: rtbsConfig(11), Shards: 4})
	run(ref)
	ref.modelStats("model-k")
	ref.predict("model-k", queries, http.StatusOK)
	driveWALPhase(ref, 5, 8)
	if want := ref.sample("json-k"); !reflect.DeepEqual(resumedJSON, want) {
		t.Errorf("json-k sample diverges from uninterrupted run")
	}
	if want := ref.sample("nd-k"); !reflect.DeepEqual(resumedND, want) {
		t.Errorf("nd-k sample diverges from uninterrupted run")
	}
	if want := ref.predict("model-k", queries, http.StatusOK); !reflect.DeepEqual(resumedPred, want) {
		t.Errorf("predictions diverge from uninterrupted run:\n got %+v\nwant %+v", resumedPred, want)
	}
	if want := ref.modelStats("model-k"); !reflect.DeepEqual(resumedModel, want) {
		t.Errorf("model stats diverge from uninterrupted run:\n got %+v\nwant %+v", resumedModel, want)
	}
}

// TestWALReplayOnTopOfSnapshot: a checkpoint mid-history must become the
// replay's starting point (records at or below its WalLSN are skipped),
// with the tail replayed on top — the snapshot-plus-log contract.
func TestWALReplayOnTopOfSnapshot(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, walOpts(dir, 23))
	h1.attachModel("model-k", map[string]any{"learner": "knn", "policy": "always"})
	driveWALPhase(h1, 1, 3)
	if err := h1.srv.checkpointAll(); err != nil {
		t.Fatal(err)
	}
	driveWALPhase(h1, 4, 6) // the tail only the WAL holds
	preModel := h1.modelStats("model-k")
	preJSON := h1.stats("json-k")
	h1.kill()

	h2 := newHarness(t, walOpts(dir, 23))
	if got := h2.stats("json-k"); got != preJSON {
		t.Errorf("stats after snapshot+replay = %+v, want %+v", got, preJSON)
	}
	if got := h2.modelStats("model-k"); !reflect.DeepEqual(got, preModel) {
		t.Errorf("model stats after snapshot+replay = %+v, want %+v", got, preModel)
	}
	// Double-restore must be idempotent: kill again without traffic.
	h2.kill()
	h3 := newHarness(t, walOpts(dir, 23))
	if got := h3.stats("json-k"); got != preJSON {
		t.Errorf("stats after second replay = %+v, want %+v", got, preJSON)
	}
}

// TestWALTornTailBootsToPrefix: cutting bytes off the newest segment (a
// crash mid-write) must never fail boot or corrupt state — the server
// comes back at the longest valid prefix.
func TestWALTornTailBootsToPrefix(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, walOpts(dir, 31))
	for i := 1; i <= 5; i++ {
		h1.do("POST", "/v1/streams/k/items", itemBatch("k", i, 10), http.StatusOK, nil)
		h1.do("POST", "/v1/streams/k/advance", nil, http.StatusOK, nil)
	}
	acked := h1.stats("k")
	h1.kill()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, walOpts(dir, 31))
	got := h2.stats("k")
	if got.Ingested > acked.Ingested || got.Batches > acked.Batches {
		t.Fatalf("torn-tail boot has MORE state than was acked: %+v vs %+v", got, acked)
	}
	if got.Ingested == 0 {
		t.Fatal("torn tail wiped the whole stream; only the last record should go")
	}
	// The stream stays fully usable at the prefix.
	h2.do("POST", "/v1/streams/k/items", itemBatch("k", 6, 10), http.StatusOK, nil)
	h2.do("POST", "/v1/streams/k/advance", nil, http.StatusOK, nil)
	if s := h2.sample("k"); s.Size == 0 {
		t.Fatal("empty sample after torn-tail recovery")
	}
}

// TestWALCompaction: a checkpoint pass truncates sealed segments the
// snapshots made redundant, and recovery still works afterwards.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := walOpts(dir, 41)
	opts.WALSegmentBytes = 512 // force frequent rotation
	h := newHarness(t, opts)
	for i := 1; i <= 30; i++ {
		h.do("POST", "/v1/streams/c/items", itemBatch("c", i, 10), http.StatusOK, nil)
		h.do("POST", "/v1/streams/c/advance", nil, http.StatusOK, nil)
	}
	before := h.srv.wal.Stats()
	if before.Segments < 3 {
		t.Fatalf("expected several segments before compaction, got %d", before.Segments)
	}
	if err := h.srv.checkpointAll(); err != nil {
		t.Fatal(err)
	}
	after := h.srv.wal.Stats()
	if after.Segments >= before.Segments || after.TruncatedSegments == 0 {
		t.Fatalf("checkpoint did not compact the WAL: %d -> %d segments (%d truncated)",
			before.Segments, after.Segments, after.TruncatedSegments)
	}
	acked := h.stats("c")
	h.kill()
	h2 := newHarness(t, walOpts(dir, 41))
	if got := h2.stats("c"); got != acked {
		t.Fatalf("post-compaction recovery diverged: %+v vs %+v", got, acked)
	}
}

// TestDeleteStream: DELETE drops the registry entry, the checkpoint file
// and — across a crash — the WAL history; reads 404 afterwards and a
// re-ingest starts a brand-new stream.
func TestDeleteStream(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, walOpts(dir, 51))
	h1.driveStream("doomed", 1, 3)
	h1.driveStream("kept", 1, 3)
	if err := h1.srv.checkpointAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFileName("doomed"))); err != nil {
		t.Fatalf("checkpoint file missing before delete: %v", err)
	}

	h1.do("DELETE", "/v1/streams/doomed", nil, http.StatusOK, nil)
	h1.do("DELETE", "/v1/streams/doomed", nil, http.StatusNotFound, nil)
	h1.do("GET", "/v1/streams/doomed/stats", nil, http.StatusNotFound, nil)
	h1.do("GET", "/v1/streams/doomed/sample", nil, http.StatusNotFound, nil)
	if _, err := os.Stat(filepath.Join(dir, checkpointFileName("doomed"))); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file survives the delete: %v", err)
	}
	var list struct {
		Streams []string `json:"streams"`
	}
	h1.do("GET", "/v1/streams", nil, http.StatusOK, &list)
	for _, k := range list.Streams {
		if k == "doomed" {
			t.Fatal("deleted stream still listed")
		}
	}

	// Crash without a checkpoint: the journaled tombstone must keep the
	// stream dead through WAL replay, while the survivor is intact.
	keptAcked := h1.stats("kept")
	h1.kill()
	h2 := newHarness(t, walOpts(dir, 51))
	h2.do("GET", "/v1/streams/doomed/stats", nil, http.StatusNotFound, nil)
	if got := h2.stats("kept"); got != keptAcked {
		t.Fatalf("survivor diverged after delete+crash: %+v vs %+v", got, keptAcked)
	}
	// Re-ingest recreates a fresh stream (ingested restarts from zero).
	h2.do("POST", "/v1/streams/doomed/items", itemBatch("doomed", 9, 5), http.StatusOK, nil)
	if got := h2.stats("doomed"); got.Ingested != 5 {
		t.Fatalf("recreated stream inherited state: %+v", got)
	}
}

// TestReplaySkipsSwapAfterTombstone: an older log can hold a retrain-swap
// record that the background lane wrote outside the entry lock, after the
// stream's tombstone. Replay must not recreate the deleted stream for it.
func TestReplaySkipsSwapAfterTombstone(t *testing.T) {
	dir := t.TempDir()
	opts := walOpts(dir, 3)
	l, err := wal.Open(wal.Options{Dir: opts.WALDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.AppendItems(l, "gone", [][]byte{[]byte(`{"v":1}`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(wal.TypeStreamDelete, "gone", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(wal.TypeRetrainSwap, "gone", []byte{0, 0, 0, 0, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, opts)
	h.do("GET", "/v1/streams/gone/stats", nil, http.StatusNotFound, nil)
}

// TestDeleteStreamWithoutWAL: deletion works in checkpoint-only mode too
// (entry + file gone, restart does not resurrect).
func TestDeleteStreamWithoutWAL(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, Options{Sampler: rtbsConfig(7), CheckpointDir: dir})
	h1.driveStream("gone", 1, 2)
	if err := h1.srv.checkpointAll(); err != nil {
		t.Fatal(err)
	}
	h1.do("DELETE", "/v1/streams/gone", nil, http.StatusOK, nil)
	h1.close() // graceful stop: final checkpoint must not resurrect it

	h2 := newHarness(t, Options{Sampler: rtbsConfig(7), CheckpointDir: dir})
	h2.do("GET", "/v1/streams/gone/stats", nil, http.StatusNotFound, nil)
}

// TestRestoreQuarantine: a corrupt checkpoint file fails boot by default
// but is renamed aside (and counted) with RestoreQuarantine, booting the
// remaining tenants.
func TestRestoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, Options{Sampler: rtbsConfig(61), CheckpointDir: dir})
	h1.driveStream("good", 1, 3)
	h1.driveStream("bad", 1, 3)
	h1.close()

	badFile := filepath.Join(dir, checkpointFileName("bad"))
	if err := os.WriteFile(badFile, []byte(`{"key":"bad","snapshot":{"scheme":`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict default: boot fails loudly.
	if _, err := New(Options{Sampler: rtbsConfig(61), CheckpointDir: dir}); err == nil {
		t.Fatal("boot over a corrupt checkpoint succeeded without quarantine")
	}

	// Quarantine mode: boot continues, the bad file is renamed, the good
	// tenant is intact.
	h2 := newHarness(t, Options{Sampler: rtbsConfig(61), CheckpointDir: dir, RestoreQuarantine: true})
	if _, err := os.Stat(badFile + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(badFile); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	h2.do("GET", "/v1/streams/good/stats", nil, http.StatusOK, nil)
	h2.do("GET", "/v1/streams/bad/stats", nil, http.StatusNotFound, nil)
	resp, err := http.Get(h2.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "tbsd_restore_quarantined_total 1") {
		t.Fatalf("quarantine metric missing:\n%s", buf.String())
	}
}

// TestQuarantineKeepsSchemeMismatchStrict: a scheme mismatch is a server
// misconfiguration, not file corruption — quarantine must NOT paper over
// it (it would silently drop every tenant).
func TestQuarantineKeepsSchemeMismatchStrict(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, Options{Sampler: rtbsConfig(71), CheckpointDir: dir})
	h.driveStream("k", 1, 2)
	h.close()
	if _, err := New(Options{
		Sampler:           tbs.Config{Scheme: "brs", MaxSize: ptr(40), Seed: ptr(uint64(71))},
		CheckpointDir:     dir,
		RestoreQuarantine: true,
	}); err == nil {
		t.Fatal("quarantine mode papered over a scheme mismatch")
	}
}

// TestWALConcurrentChaos hammers journaled streams from many goroutines
// (ingest, advances, samples, deletes) while the ticker and checkpointer
// run — the -race workout for the group-commit path and the
// delete-vs-checkpoint serialization. Liveness assertions only.
func TestWALConcurrentChaos(t *testing.T) {
	dir := t.TempDir()
	opts := walOpts(dir, 81)
	opts.BatchInterval = 2 * time.Millisecond
	opts.CheckpointInterval = 3 * time.Millisecond
	opts.WALSegmentBytes = 4 << 10
	h := newHarness(t, opts)
	const goroutines = 10
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			key := "hot"
			if g%3 == 0 {
				key = fmt.Sprintf("churn-%d", g)
			}
			for i := 0; i < 15; i++ {
				h.do("POST", "/v1/streams/"+key+"/items?advance="+fmt.Sprint(i%2), itemBatch(key, i, 5), http.StatusOK, nil)
				h.sample(key)
				if key != "hot" && i%7 == 6 {
					// Churn: delete and let the next ingest recreate.
					req, _ := http.NewRequest("DELETE", h.ts.URL+"/v1/streams/"+key, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	if st := h.srv.wal.Stats(); st.Records == 0 || st.AppendErrors != 0 {
		t.Fatalf("wal stats after chaos: %+v", st)
	}
	// Graceful stop must still work (final checkpoint + wal close).
	h.close()
}

// TestTickerSkips: the lag detector's pure arithmetic.
func TestTickerSkips(t *testing.T) {
	base := time.Unix(1000, 0)
	iv := time.Second
	cases := []struct {
		gap  time.Duration
		want int
	}{
		{time.Second, 0},
		{1400 * time.Millisecond, 0},
		{1600 * time.Millisecond, 1},
		{2 * time.Second, 1},
		{3500 * time.Millisecond, 3},
		{10 * time.Second, 9},
	}
	for _, tc := range cases {
		if got := tickerSkips(base, base.Add(tc.gap), iv); got != tc.want {
			t.Errorf("tickerSkips(gap=%v) = %d, want %d", tc.gap, got, tc.want)
		}
	}
	if got := tickerSkips(time.Time{}, base, iv); got != 0 {
		t.Errorf("first tick reported %d skips", got)
	}
}
