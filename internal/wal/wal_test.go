package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func itemsFor(t, n int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = []byte(fmt.Sprintf(`{"t":%d,"i":%d}`, t, i))
	}
	return items
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

// TestAppendReplayRoundTrip: every record type survives the disk format.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	items := itemsFor(1, 3)
	if lsn, err := AppendItems(l, "stream-a", items); err != nil || lsn != 1 {
		t.Fatalf("AppendItems = %d, %v", lsn, err)
	}
	if lsn, err := l.AppendRecord(TypeBatchBoundary, "stream-a", nil); err != nil || lsn != 2 {
		t.Fatalf("boundary = %d, %v", lsn, err)
	}
	spec := []byte(`{"learner":"knn","k":7}`)
	if _, err := l.AppendRecord(TypeModelAttach, "stream-b", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(TypeModelDetach, "stream-b", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(TypeRetrainSwap, "stream-b", []byte{0, 0, 0, 0, 0, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(TypeStreamDelete, "stream-a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(TypeSampleRead, "stream-b", nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 7 {
		t.Fatalf("replayed %d records, want 7", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Errorf("record %d has LSN %d", i, r.LSN)
		}
	}
	if recs[0].Type != TypeItemAppend || recs[0].Key != "stream-a" || len(recs[0].Items) != 3 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	for i, it := range recs[0].Items {
		if !bytes.Equal(it, items[i]) {
			t.Errorf("item %d = %q, want %q", i, it, items[i])
		}
	}
	if recs[2].Type != TypeModelAttach || !bytes.Equal(recs[2].Data, spec) {
		t.Fatalf("record 2 = %+v", recs[2])
	}
	if recs[5].Type != TypeStreamDelete || recs[5].Key != "stream-a" {
		t.Fatalf("record 5 = %+v", recs[5])
	}
	if l2.LastLSN() != 7 {
		t.Fatalf("LastLSN = %d, want 7", l2.LastLSN())
	}
	// New appends continue the sequence.
	if lsn, err := l2.AppendRecord(TypeBatchBoundary, "x", nil); err != nil || lsn != 8 {
		t.Fatalf("append after reopen = %d, %v", lsn, err)
	}
}

// TestSegmentRotationAndTruncate: small segments rotate; compaction
// removes only fully-covered segments and never the active one.
func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := AppendItems(l, "k", itemsFor(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	recs := collect(t, l)
	if len(recs) != 40 {
		t.Fatalf("replayed %d records across segments, want 40", len(recs))
	}

	if _, err := l.TruncateBefore(21); err != nil {
		t.Fatal(err)
	}
	st2 := l.Stats()
	if st2.Segments >= st.Segments {
		t.Fatalf("truncate removed nothing: %d -> %d segments", st.Segments, st2.Segments)
	}
	recs = collect(t, l)
	if len(recs) == 0 || recs[0].LSN > 21 {
		t.Fatalf("truncation cut into live records: first remaining LSN %d", recs[0].LSN)
	}
	if recs[len(recs)-1].LSN != 40 {
		t.Fatalf("lost the tail: last LSN %d", recs[len(recs)-1].LSN)
	}

	// Truncating beyond the end keeps the active segment.
	if _, err := l.TruncateBefore(1 << 60); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("active segment count = %d, want 1", st.Segments)
	}
	if _, err := AppendItems(l, "k", itemsFor(41, 1)); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	l.Close()
}

// TestGroupCommitCoalesces: one leader fsync must cover every record
// written before it — the deterministic core of group commit. (How much
// coalescing concurrent load gets depends on fsync latency, so that part
// is exercised as a liveness/race check in TestGroupCommitConcurrent and
// measured by the `wal` experiment.)
func TestGroupCommitCoalesces(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 100
	var last uint64
	for i := 0; i < n; i++ {
		if last, err = AppendItems(l, "k", itemsFor(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 0 {
		t.Fatalf("append alone fsynced %d times in group mode", st.Fsyncs)
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Fsyncs != 1 {
		t.Fatalf("syncing the newest LSN took %d fsyncs, want 1 covering the whole group", st.Fsyncs)
	}
	if st.SyncedLSN != last {
		t.Fatalf("synced = %d, want %d", st.SyncedLSN, last)
	}
	// Every earlier record is covered; no further fsync may happen.
	for lsn := uint64(1); lsn <= last; lsn++ {
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 1 {
		t.Fatalf("syncing covered LSNs re-fsynced (%d total)", st.Fsyncs)
	}
	if n := l.FsyncLatency().Count(); n != 1 {
		t.Fatalf("fsync latency histogram counted %d fsyncs, want 1", n)
	}
}

// TestGroupCommitConcurrent hammers the group path from many goroutines:
// every Sync must return only once its record is durable, with no more
// fsyncs than records (the coalescing factor itself is disk-dependent).
func TestGroupCommitConcurrent(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := AppendItems(l, fmt.Sprintf("g%d", g), itemsFor(i, 1))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Sync(lsn); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != goroutines*perG {
		t.Fatalf("records = %d, want %d", st.Records, goroutines*perG)
	}
	if st.SyncedLSN != st.LastLSN {
		t.Fatalf("synced %d < written %d after all Syncs returned", st.SyncedLSN, st.LastLSN)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.Records {
		t.Fatalf("fsyncs = %d for %d records", st.Fsyncs, st.Records)
	}
}

// TestAlwaysFsync: every append is durable before it returns and Sync is
// a no-op.
func TestAlwaysFsync(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		lsn, err := AppendItems(l, "k", itemsFor(i, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Fsyncs < 5 {
		t.Fatalf("fsyncs = %d, want one per append", st.Fsyncs)
	}
	if st.SyncedLSN != 5 {
		t.Fatalf("synced = %d, want 5", st.SyncedLSN)
	}
}

// TestTornTailEveryPrefix: a segment truncated at every possible byte
// offset must reopen cleanly with exactly the records whose frames are
// complete — never an error, never a partial record.
func TestTornTailEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // valid end offsets after each record
	for i := 1; i <= 4; i++ {
		if _, err := AppendItems(l, "k", itemsFor(i, 2)); err != nil {
			t.Fatal(err)
		}
		l.mu.Lock()
		ends = append(ends, l.segSize)
		l.mu.Unlock()
	}
	l.Close()
	seg := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: sub, Fsync: SyncOff})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		recs := collect(t, l2)
		want := 0
		for _, e := range ends {
			if cut >= e {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), want)
		}
		// The log must remain appendable at the truncated point.
		if lsn, err := l2.AppendRecord(TypeBatchBoundary, "k", nil); err != nil || lsn != uint64(want+1) {
			t.Fatalf("cut %d: append after torn tail = %d, %v", cut, lsn, err)
		}
		l2.Close()
	}
}

// TestBitFlipNeverMisReplays: flipping any single byte of a record's
// frame must surface as a shortened replay (tail tolerance) or an Open
// error — never a silently different record.
func TestBitFlipNeverMisReplays(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)}
	for _, it := range want {
		if _, err := AppendItems(l, "k", [][]byte{it}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(full); pos++ {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0x40
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, segmentName(1)), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: sub, Fsync: SyncOff})
		if err != nil {
			continue // rejecting the log outright is acceptable
		}
		var got [][]byte
		err = l2.Replay(func(r Record) error {
			for _, it := range r.Items {
				got = append(got, it)
			}
			return nil
		})
		l2.Close()
		if err != nil {
			continue
		}
		if len(got) > len(want) {
			t.Fatalf("pos %d: replay yielded %d items from a 3-item log", pos, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("pos %d: flipped byte surfaced as a different record: %q != %q", pos, got[i], want[i])
			}
		}
	}
}

// TestMidSegmentCorruptionFailsReplay: damage in a sealed (non-final)
// segment is not crash debris and must fail replay loudly.
func TestMidSegmentCorruptionFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: SyncOff, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		if _, err := AppendItems(l, "k", itemsFor(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("need multiple segments, got %d", st.Segments)
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	first[len(first)/2] ^= 0xFF
	if err := os.WriteFile(segs[0].path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir, Fsync: SyncOff})
	if err != nil {
		return // failing at Open is fine too
	}
	defer l2.Close()
	if err := l2.Replay(func(Record) error { return nil }); err == nil {
		t.Fatal("replay over a corrupt sealed segment succeeded silently")
	}
}

// TestPoisonedLogFailsFast: after a write error every append and group
// sync reports ErrPoisoned instead of journaling an inconsistent suffix.
func TestPoisonedLogFailsFast(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendItems(l, "k", itemsFor(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Close the file behind the log's back to force a write error.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	if _, err := AppendItems(l, "k", itemsFor(2, 1)); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if _, err := AppendItems(l, "k", itemsFor(3, 1)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poison = %v, want ErrPoisoned", err)
	}
	if err := l.Sync(2); err == nil {
		t.Fatal("sync of an unpersisted LSN on a poisoned log succeeded")
	}
	if st := l.Stats(); st.AppendErrors == 0 {
		t.Fatal("append errors not counted")
	}
}
