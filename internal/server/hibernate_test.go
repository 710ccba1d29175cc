package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/tbs"
)

// tieredOptions is the standard memory-tiering test config: WAL on (so
// hydration exercises the tail-replay path too) and an IdleAfter so small
// that every stream is evictable the moment HibernatePass runs.
func tieredOptions(t *testing.T, seed uint64) Options {
	t.Helper()
	dir := t.TempDir()
	return Options{
		Sampler:       rtbsConfig(seed),
		CheckpointDir: dir,
		WALDir:        filepath.Join(dir, "wal"),
		IdleAfter:     time.Nanosecond,
	}
}

func TestTieringRequiresCheckpointDir(t *testing.T) {
	if _, err := New(Options{Sampler: rtbsConfig(1), MaxResident: 10}); err == nil {
		t.Fatal("New accepted MaxResident without CheckpointDir")
	}
	if _, err := New(Options{Sampler: rtbsConfig(1), IdleAfter: time.Minute}); err == nil {
		t.Fatal("New accepted IdleAfter without CheckpointDir")
	}
}

// TestHibernateRehydrateDeterminism drives the identical traffic against a
// tiered server (hibernating every stream between phases) and a plain one,
// and requires byte-identical samples: eviction and rehydration must be
// invisible to the stream's stochastic process.
func TestHibernateRehydrateDeterminism(t *testing.T) {
	tiered := newHarness(t, tieredOptions(t, 7))
	plainDir := t.TempDir()
	plain := newHarness(t, Options{
		Sampler:       rtbsConfig(7),
		CheckpointDir: plainDir,
		WALDir:        filepath.Join(plainDir, "wal"),
	})

	keys := []string{"alpha", "beta", "gamma"}
	for phase := 0; phase < 3; phase++ {
		for _, key := range keys {
			from, to := phase*4+1, phase*4+4
			tiered.driveStream(key, from, to)
			plain.driveStream(key, from, to)
		}
		if _, err := tiered.srv.HibernatePass(); err != nil {
			t.Fatalf("HibernatePass: %v", err)
		}
		for _, key := range keys {
			if e := tiered.srv.reg.lookup(key); e == nil || !e.hibernated.Load() {
				t.Fatalf("phase %d: stream %q not hibernated after pass", phase, key)
			}
		}
		if got := tiered.srv.ResidentStreams(); got != 0 {
			t.Fatalf("phase %d: ResidentStreams = %d, want 0", phase, got)
		}
	}
	for _, key := range keys {
		a, b := tiered.sample(key), plain.sample(key)
		if !sampleEqual(a, b) {
			t.Fatalf("stream %q: tiered sample diverged from plain sample\ntiered: %v\nplain:  %v", key, a.Items, b.Items)
		}
	}
	if got := tiered.srv.metrics.hydrationErrors.Load(); got != 0 {
		t.Fatalf("hydration errors: %d", got)
	}
}

func sampleEqual(a, b sampleResp) bool {
	if a.Size != b.Size || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if string(a.Items[i]) != string(b.Items[i]) {
			return false
		}
	}
	return true
}

// TestHydrateRunsBootChecks: hydration runs boot's restore checks. With a
// hibernated R-TBS stream's checkpoint file swapped for a T-TBS one, the
// cold hit answers 500 hydrate_failed, counts one hydration error and
// leaves the stub hibernated; once the right file is back, the next
// request hydrates.
func TestHydrateRunsBootChecks(t *testing.T) {
	h := newHarness(t, tieredOptions(t, 21))
	h.driveStream("swap", 1, 3)
	want := h.stats("swap")
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	otherDir := t.TempDir()
	other := newHarness(t, Options{
		Sampler: tbs.Config{Scheme: "ttbs", Lambda: ptr(0.1), MaxSize: ptr(40),
			MeanBatch: ptr(20.0), Seed: ptr(uint64(21))},
		CheckpointDir: otherDir,
	})
	other.driveStream("swap", 1, 3)
	other.close()
	file := filepath.Join(h.srv.opts.CheckpointDir, checkpointFileName("swap"))
	good, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	ttbs, err := os.ReadFile(filepath.Join(otherDir, checkpointFileName("swap")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, ttbs, 0o644); err != nil {
		t.Fatal(err)
	}

	var out map[string]any
	h.do("GET", "/v1/streams/swap/stats", nil, http.StatusInternalServerError, &out)
	if out["code"] != "hydrate_failed" {
		t.Errorf("cold hit on a T-TBS checkpoint: code %v, want hydrate_failed", out["code"])
	}
	if !strings.Contains(h.get("/metrics"), "\ntbsd_hydration_errors_total 1\n") {
		t.Error("tbsd_hydration_errors_total did not rise to 1")
	}
	if e := h.srv.reg.lookup("swap"); e == nil || !e.hibernated.Load() {
		t.Fatal("the failed hydration did not leave the stub hibernated")
	}

	if err := os.WriteFile(file, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := h.stats("swap"); got != want {
		t.Fatalf("stats after the right file is back: %+v, want %+v", got, want)
	}
}

// TestHydrateReplaysTail: a stub whose walLSN lies past its checkpoint
// file's WalLSN hydrates through its WAL tail. Such a stub is rare
// (hibernation checkpoints every dirty entry), so the test makes one: it
// journals one more item record for a hibernated stream straight into
// the log and moves the stub's walLSN to it. The cold hit must count
// that item.
func TestHydrateReplaysTail(t *testing.T) {
	h := newHarness(t, tieredOptions(t, 23))
	h.driveStream("tail", 1, 3)
	before := h.stats("tail")
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	e := h.srv.reg.lookup("tail")
	if e == nil || !e.hibernated.Load() {
		t.Fatal("stream not hibernated after the pass")
	}
	lsn, err := wal.AppendItems(h.srv.wal, "tail", [][]byte{[]byte(`{"v":99}`)})
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.walLSN = lsn
	e.mu.Unlock()
	got := h.stats("tail")
	if got.Ingested != before.Ingested+1 || got.Pending != before.Pending+1 {
		t.Fatalf("after hydration: ingested %d, pending %d; want %d, %d (the tail item)",
			got.Ingested, got.Pending, before.Ingested+1, before.Pending+1)
	}
}

// TestHibernatePausesDecayClock checks the documented semantics: the
// wall-clock ticker skips hibernated stubs, so batch time only advances
// while the stream is resident.
func TestHibernatePausesDecayClock(t *testing.T) {
	h := newHarness(t, tieredOptions(t, 3))
	h.driveStream("pause", 1, 3)
	var before struct {
		Batches uint64 `json:"batches"`
	}
	h.do("GET", "/v1/streams/pause/stats", nil, http.StatusOK, &before)
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	h.srv.AdvanceAll() // must skip the stub
	// /stats rehydrates; the batch count must not have moved while cold.
	var after struct {
		Batches uint64 `json:"batches"`
	}
	h.do("GET", "/v1/streams/pause/stats", nil, http.StatusOK, &after)
	if after.Batches != before.Batches {
		t.Fatalf("batches moved while hibernated: %d -> %d", before.Batches, after.Batches)
	}
}

// TestHibernateSkipsFrozenStream: a handoff freeze and an eviction racing
// on one entry must resolve freeze-wins — the migration is mid-flight and
// owns the state.
func TestHibernateSkipsFrozenStream(t *testing.T) {
	h := newHarness(t, tieredOptions(t, 5))
	h.driveStream("frozen", 1, 2)
	e := h.srv.reg.lookup("frozen")
	if e == nil {
		t.Fatal("stream missing")
	}
	if err := e.beginMigration(); err != nil {
		t.Fatal(err)
	}
	defer e.endMigration()
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	if e.hibernated.Load() {
		t.Fatal("hibernation evicted a stream frozen for handoff")
	}
	if got := h.srv.ResidentStreams(); got != 1 {
		t.Fatalf("ResidentStreams = %d, want 1", got)
	}
}

// TestHibernateSkipsPinnedStream: the pin/fence protocol — an entry with
// an in-flight request is never evicted.
func TestHibernateSkipsPinnedStream(t *testing.T) {
	h := newHarness(t, tieredOptions(t, 6))
	h.driveStream("pinned", 1, 2)
	e := h.srv.reg.lookup("pinned")
	e.pin()
	defer e.unpin()
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	if e.hibernated.Load() {
		t.Fatal("hibernation evicted a pinned stream")
	}
}

// TestDeleteHibernatedStream: DELETE of a cold stream tombstones it
// without rehydrating — there is nothing in memory worth rebuilding just
// to throw away.
func TestDeleteHibernatedStream(t *testing.T) {
	h := newHarness(t, tieredOptions(t, 9))
	h.driveStream("doomed", 1, 3)
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	h.do("DELETE", "/v1/streams/doomed", nil, http.StatusOK, nil)
	if got := h.srv.metrics.hydrationLat.Count(); got != 0 {
		t.Fatalf("DELETE of a hibernated stream hydrated it (%d hydrations)", got)
	}
	h.do("GET", "/v1/streams/doomed/stats", nil, http.StatusNotFound, nil)
	ckpt := filepath.Join(h.srv.opts.CheckpointDir, checkpointFileName("doomed"))
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file survived the delete: %v", err)
	}
	// A fresh ingest recreates the stream from scratch, as for any key.
	h.driveStream("doomed", 1, 1)
	var st struct {
		Ingested uint64 `json:"ingested"`
	}
	h.do("GET", "/v1/streams/doomed/stats", nil, http.StatusOK, &st)
	if st.Ingested != 20 {
		t.Fatalf("recreated stream ingested = %d, want 20", st.Ingested)
	}
}

// TestColdHitStorm: many concurrent requests against one hibernated key
// must share a single hydration (single-flight) and all succeed. Run
// under -race this also checks the pin/fence and install ordering.
func TestColdHitStorm(t *testing.T) {
	h := newHarness(t, tieredOptions(t, 11))
	h.driveStream("storm", 1, 4)
	var want struct {
		Ingested uint64 `json:"ingested"`
	}
	h.do("GET", "/v1/streams/storm/stats", nil, http.StatusOK, &want)
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}

	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(h.ts.URL + "/v1/streams/storm/stats")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("cold hit failed: %v", err)
	}
	if got := h.srv.metrics.hydrationLat.Count(); got != 1 {
		t.Fatalf("hydrations = %d, want 1 (single-flight)", got)
	}
	var st struct {
		Ingested uint64 `json:"ingested"`
	}
	h.do("GET", "/v1/streams/storm/stats", nil, http.StatusOK, &st)
	if st.Ingested != want.Ingested {
		t.Fatalf("ingested after storm = %d, want %d", st.Ingested, want.Ingested)
	}
}

// TestMaxResidentBoundsMemory is the in-suite scale check: far more keys
// than the resident bound, round-robin traffic, and the invariant that
// the resident count converges under the bound while every stream's
// counters survive eviction and rehydration exactly.
func TestMaxResidentBoundsMemory(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, Options{
		Sampler:       rtbsConfig(13),
		CheckpointDir: dir,
		WALDir:        filepath.Join(dir, "wal"),
		MaxResident:   16,
	})
	const keys = 200
	for i := 0; i < keys; i++ {
		key := "k" + strconv.Itoa(i)
		h.do("POST", "/v1/streams/"+key+"/items?advance=true", itemBatch(key, 1, 5), http.StatusOK, nil)
		if i%32 == 31 {
			if _, err := h.srv.HibernatePass(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	if got := h.srv.ResidentStreams(); got > 16 {
		t.Fatalf("ResidentStreams = %d, want <= 16", got)
	}
	if got := h.srv.reg.count(); got != keys {
		t.Fatalf("total streams = %d, want %d (stubs must stay registered)", got, keys)
	}
	// Every cold stream rehydrates with its exact counters.
	for i := 0; i < keys; i += 17 {
		key := "k" + strconv.Itoa(i)
		var st struct {
			Ingested uint64 `json:"ingested"`
			Batches  uint64 `json:"batches"`
		}
		h.do("GET", "/v1/streams/"+key+"/stats", nil, http.StatusOK, &st)
		if st.Ingested != 5 || st.Batches != 1 {
			t.Fatalf("stream %q after rehydration: ingested=%d batches=%d, want 5/1", key, st.Ingested, st.Batches)
		}
	}
	if got := h.srv.metrics.hydrationErrors.Load(); got != 0 {
		t.Fatalf("hydration errors: %d", got)
	}
}

// TestMillionStreamSoak is the bounded-RSS soak from the issue: 1M keys
// round-robin with MaxResident 10000 must hold heap usage bounded by the
// working set, not the tenant count. Minutes-long and allocation-heavy,
// so it only runs with TBSD_SOAK=1 (results recorded in EXPERIMENTS.md).
func TestMillionStreamSoak(t *testing.T) {
	if os.Getenv("TBSD_SOAK") == "" {
		t.Skip("set TBSD_SOAK=1 to run the 1M-key soak")
	}
	const totalKeys = 1_000_000
	dir := t.TempDir()
	srv, err := New(Options{
		Sampler:           rtbsConfig(17),
		CheckpointDir:     dir,
		MaxResident:       10000,
		MaxStreams:        totalKeys, // tiering bounds memory, not tenancy
		HibernateInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Stop(ctx)
	}()

	item := []Item{Item(`{"v":1}`)}
	for i := 0; i < totalKeys; i++ {
		key := "soak-" + strconv.Itoa(i)
		e, err := srv.acquireStream(key)
		if err != nil {
			t.Fatalf("key %s: %v", key, err)
		}
		if _, _, _, _, err := e.appendMode(item, srv.opts.MaxPendingItems, false); err != nil {
			e.unpin()
			t.Fatalf("key %s: %v", key, err)
		}
		e.unpin()
		if i%100_000 == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			t.Logf("keys=%d resident=%d heap=%dMB", i, srv.ResidentStreams(), ms.HeapAlloc>>20)
		}
	}
	for srv.ResidentStreams() > 10000 {
		if _, err := srv.HibernatePass(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("final: streams=%d resident=%d heap=%dMB hibernations=%d",
		srv.reg.count(), srv.ResidentStreams(), ms.HeapAlloc>>20, srv.metrics.hibernations.Load())
	// 1M stubs (key + atomics) plus 10k resident streams: the gate is
	// generous, but a server keeping all 1M samplers resident blows far
	// past it (a resident rtbs stream costs ~3-4KB before any data).
	const gateMB = 1500
	if got := ms.HeapAlloc >> 20; got > gateMB {
		t.Fatalf("heap after soak = %dMB, want <= %dMB", got, gateMB)
	}
	// Cold hits still answer correctly after the churn.
	for _, i := range []int{0, 499_999, 999_999} {
		e, err := srv.acquireExisting("soak-" + strconv.Itoa(i))
		if err != nil || e == nil {
			t.Fatalf("soak-%d: %v", i, err)
		}
		pending, _, _ := e.counters()
		e.unpin()
		if pending != 1 {
			t.Fatalf("soak-%d: pending = %d, want 1", i, pending)
		}
	}
}
