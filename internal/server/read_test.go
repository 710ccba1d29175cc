package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/tbs"
)

// metricValue returns one unlabeled counter or gauge from /metrics.
func (h *harness) metricValue(name string) uint64 {
	h.t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(h.get("/metrics"))
	if m == nil {
		h.t.Fatalf("/metrics has no %s", name)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		h.t.Fatal(err)
	}
	return v
}

// TestSampleReadWritesNothing: on every scheme tbsd serves, two reads
// between the same two boundaries return byte-identical bodies, append
// no WAL record and leave the stream clean, so a checkpoint pass after
// reads alone writes no file.
func TestSampleReadWritesNothing(t *testing.T) {
	full := tbs.Config{Lambda: ptr(0.15), MaxSize: ptr(30), MeanBatch: ptr(10.0), Horizon: ptr(6.0)}
	for _, sc := range tbs.Schemes() {
		t.Run(sc.Name, func(t *testing.T) {
			cfg, err := full.RestrictedTo(sc.Name)
			if err != nil {
				t.Fatal(err)
			}
			opts := walOpts(t.TempDir(), 5)
			opts.Sampler = cfg.WithSeed(5)
			h := newHarness(t, opts)
			// Three items a batch keep R-TBS unsaturated, so a partial
			// item exists at every read.
			for step := 1; step <= 6; step++ {
				h.do("POST", "/v1/streams/k/items?advance=true", itemBatch("k", step, 3), http.StatusOK, nil)
			}
			if err := h.srv.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			records := h.metricValue("tbsd_wal_appended_records_total")
			written := h.srv.metrics.checkpointedKeys.Load()
			first := h.get("/v1/streams/k/sample")
			for i := 0; i < 20; i++ {
				if got := h.get("/v1/streams/k/sample"); got != first {
					t.Fatalf("read %d differs from the first:\n%s\n%s", i+2, got, first)
				}
			}
			if got := h.metricValue("tbsd_wal_appended_records_total"); got != records {
				t.Fatalf("reads appended %d WAL records", got-records)
			}
			if err := h.srv.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if got := h.srv.metrics.checkpointedKeys.Load(); got != written {
				t.Fatalf("a checkpoint pass after reads alone wrote %d files", got-written)
			}
		})
	}
}

// TestSampleAnswersDurableStateOnClosedLog: once the log is closed,
// ingest answers 500, but a read whose state is already durable still
// answers 200 with the body it gave before.
func TestSampleAnswersDurableStateOnClosedLog(t *testing.T) {
	h := newHarness(t, walOpts(t.TempDir(), 8))
	h.do("POST", "/v1/streams/k/items?advance=true", itemBatch("k", 1, 5), http.StatusOK, nil)
	h.do("POST", "/v1/streams/k/items?advance=true", itemBatch("k", 2, 5), http.StatusOK, nil)
	before := h.get("/v1/streams/k/sample")
	if err := h.srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	h.do("POST", "/v1/streams/k/items", itemBatch("k", 3, 5), http.StatusInternalServerError, nil)
	if got := h.get("/v1/streams/k/sample"); got != before {
		t.Fatalf("read after the log closed:\n%s\nwant\n%s", got, before)
	}
}

// unsyncedRecord journals a record for key straight into the log, with
// no sync, and makes it the entry's newest record, as a boundary that a
// concurrent /advance has journaled but not yet synced would be. A
// sample-read record changes no state on replay.
func (h *harness) unsyncedRecord(key string) uint64 {
	h.t.Helper()
	lsn, err := h.srv.wal.AppendRecord(wal.TypeSampleRead, key, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	e := h.srv.reg.lookup(key)
	e.mu.Lock()
	e.walLSN = lsn
	e.mu.Unlock()
	return lsn
}

// TestSampleSyncsNewestRecord: a read answers only after the stream's
// newest journaled record is durable.
func TestSampleSyncsNewestRecord(t *testing.T) {
	h := newHarness(t, walOpts(t.TempDir(), 9))
	h.driveStream("k", 1, 2)
	lsn := h.unsyncedRecord("k")
	if synced := h.metricValue("tbsd_wal_synced_lsn"); synced >= lsn {
		t.Fatalf("synced LSN %d already covers the unsynced record %d", synced, lsn)
	}
	h.sample("k")
	if synced := h.metricValue("tbsd_wal_synced_lsn"); synced < lsn {
		t.Fatalf("after /sample the synced LSN is %d, below the stream's newest record %d", synced, lsn)
	}
}

// TestSampleFenceFailureAnswers500: a read whose newest record cannot be
// made durable answers 500 wal_unavailable.
func TestSampleFenceFailureAnswers500(t *testing.T) {
	h := newHarness(t, walOpts(t.TempDir(), 10))
	h.driveStream("k", 1, 2)
	h.unsyncedRecord("k")
	if err := h.srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	h.do("GET", "/v1/streams/k/sample", nil, http.StatusInternalServerError, &body)
	if body["code"] != "wal_unavailable" {
		t.Fatalf("failed fence answered code %v, want wal_unavailable", body["code"])
	}
}

// TestSyncFailureIsWALUnavailable: every path maps a failed group commit
// to 500 wal_unavailable, not to a client error.
func TestSyncFailureIsWALUnavailable(t *testing.T) {
	h := newHarness(t, walOpts(t.TempDir(), 11))
	h.driveStream("k", 1, 1)
	lsn := h.unsyncedRecord("k")
	if err := h.srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	err := h.srv.syncWAL(lsn)
	if err == nil {
		t.Fatal("syncWAL on a closed log succeeded")
	}
	if status, code, _ := h.srv.ingestFailure(err); status != http.StatusInternalServerError || code != "wal_unavailable" {
		t.Fatalf("a failed sync maps to %d %s, want 500 wal_unavailable", status, code)
	}
}

// TestOldLogWithSampleReadsBoots: a log written before reads stopped
// being journaled holds sample-read records. It boots to the same
// /stats and /sample as the same log without them, and the skipped
// records do not count as replayed.
func TestOldLogWithSampleReadsBoots(t *testing.T) {
	boot := func(withReads bool) (stats, sample string, replayed int64) {
		dir := t.TempDir()
		opts := walOpts(dir, 12)
		l, err := wal.Open(wal.Options{Dir: opts.WALDir})
		if err != nil {
			t.Fatal(err)
		}
		// Three items a batch keep the stream unsaturated (n = 40), so a
		// partial item exists at every read.
		for step := 1; step <= 12; step++ {
			items := make([][]byte, 3)
			for i := range items {
				items[i] = []byte(fmt.Sprint(step*10 + i))
			}
			if _, err := wal.AppendItems(l, "old", items); err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendRecord(wal.TypeBatchBoundary, "old", nil); err != nil {
				t.Fatal(err)
			}
			if withReads {
				if _, err := l.AppendRecord(wal.TypeSampleRead, "old", nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		h := newHarness(t, opts)
		return h.get("/v1/streams/old/stats"), h.get("/v1/streams/old/sample"), h.srv.metrics.walReplayed.Load()
	}
	stats, sample, replayed := boot(true)
	wantStats, wantSample, wantReplayed := boot(false)
	if stats != wantStats {
		t.Fatalf("/stats with read records:\n%s\nwithout:\n%s", stats, wantStats)
	}
	if sample != wantSample {
		t.Fatalf("/sample with read records:\n%s\nwithout:\n%s", sample, wantSample)
	}
	if replayed != wantReplayed {
		t.Fatalf("replayed %d records with read records, %d without", replayed, wantReplayed)
	}
}

// TestHibernateWaitsOutCheckpointWrite: a checkpoint pass writes a
// captured state outside the entry lock. The hibernator must not evict
// the stream until that write lands, or the pass's older state could
// replace a file written at a later eviction.
func TestHibernateWaitsOutCheckpointWrite(t *testing.T) {
	opts := tieredOptions(t, 13)
	// Only the passes below run: a background one could evict the
	// stream before the capture.
	opts.HibernateInterval = time.Hour
	h := newHarness(t, opts)
	h.driveStream("w", 1, 2)
	if err := h.srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	h.driveStream("w", 3, 4)
	e := h.srv.reg.lookup("w")
	st, wasDirty, err := e.checkpoint()
	if err != nil || !wasDirty {
		t.Fatalf("capture: dirty %v, err %v", wasDirty, err)
	}
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	if e.hibernated.Load() {
		t.Fatal("hibernation evicted a stream whose checkpoint write was in flight")
	}
	err = writeCheckpointFile(opts.CheckpointDir, st)
	e.endWrite(st.WalLSN, err)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	if !e.hibernated.Load() {
		t.Fatal("stream not evicted after the write landed")
	}
	file, err := readCheckpointFile(filepath.Join(opts.CheckpointDir, checkpointFileName("w")))
	if err != nil {
		t.Fatal(err)
	}
	if stub := e.journaledLSN(); file.WalLSN != stub {
		t.Fatalf("file covers LSN %d, stub's newest record is %d", file.WalLSN, stub)
	}
}
