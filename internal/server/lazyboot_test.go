package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/tbs"
)

// lazyOptions is a tiered configuration with every background pass
// parked: a WAL, an IdleAfter that makes every stream evictable, and
// hour-long checkpoint and hibernation intervals, so only explicit passes
// move state to disk.
func lazyOptions(dir string, seed uint64) Options {
	o := walOpts(dir, seed)
	o.IdleAfter = time.Nanosecond
	o.HibernateInterval = time.Hour
	return o
}

func lazyKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return keys
}

// eagerKey is the stream a tiered boot restores in full to check the
// scheme: the one whose checkpoint file sorts first in the directory
// listing. Files sort by their base64url names, not by key.
func eagerKey(keys []string) string {
	return slices.MinFunc(keys, func(a, b string) int {
		return strings.Compare(checkpointFileName(a), checkpointFileName(b))
	})
}

// bodies returns each stream's /stats and /sample bodies.
func (h *harness) bodies(keys []string) map[string]string {
	h.t.Helper()
	out := make(map[string]string, 2*len(keys))
	for _, k := range keys {
		out[k+"/stats"] = h.get("/v1/streams/" + k + "/stats")
		out[k+"/sample"] = h.get("/v1/streams/" + k + "/sample")
	}
	return out
}

// residentKeys returns the keys of the resident entries, sorted.
func (h *harness) residentKeys() []string {
	var out []string
	for _, e := range h.srv.reg.all() {
		if !e.hibernated.Load() {
			out = append(out, e.key)
		}
	}
	slices.Sort(out)
	return out
}

// TestLazyBootAfterGracefulStop: a graceful stop compacts the WAL to
// nothing, so a tiered reboot over 20 streams restores only the file that
// checks the scheme and registers the other 19 as stubs. All 20 count as
// streams and as restored, every body matches its body before the stop,
// and each first touch of a stub is one hydration.
func TestLazyBootAfterGracefulStop(t *testing.T) {
	dir := t.TempDir()
	keys := lazyKeys(20)
	h1 := newHarness(t, lazyOptions(dir, 91))
	for i, k := range keys {
		h1.driveStream(k, 1, 2+i%3)
		if i == len(keys)/2 {
			// Half the streams stop as stubs, half resident.
			if _, err := h1.srv.HibernatePass(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := h1.bodies(keys)
	h1.close()

	h2 := newHarness(t, lazyOptions(dir, 91))
	eager := eagerKey(keys)
	if got := h2.srv.ResidentStreams(); got != 1 {
		t.Fatalf("ResidentStreams at ready = %d, want 1", got)
	}
	if got := h2.residentKeys(); !reflect.DeepEqual(got, []string{eager}) {
		t.Fatalf("resident at ready: %v, want [%s]", got, eager)
	}
	for name, want := range map[string]uint64{"tbsd_streams": 20, "tbsd_restored_streams": 20, "tbsd_hydrations_total": 0} {
		if got := h2.metricValue(name); got != want {
			t.Errorf("%s = %d at ready, want %d", name, got, want)
		}
	}
	for _, k := range keys {
		before := h2.srv.metrics.hydrationLat.Count()
		got := h2.bodies([]string{k})
		hydrated := h2.srv.metrics.hydrationLat.Count() - before
		wantHyd := uint64(1)
		if k == eager {
			wantHyd = 0
		}
		if hydrated != wantHyd {
			t.Errorf("stream %s: first touch ran %d hydrations, want %d", k, hydrated, wantHyd)
		}
		for path, body := range got {
			if body != want[path] {
				t.Errorf("%s after the lazy boot:\n got %s\nwant %s", path, body, want[path])
			}
		}
	}
}

// TestLazyBootAfterKill: after a checkpoint pass and more traffic on a
// subset of the streams, a kill leaves those streams' records in the WAL.
// A tiered reboot restores exactly the streams the log names (plus the
// one that checks the scheme) before it turns ready, and every body,
// model stats included, equals its body before the kill.
func TestLazyBootAfterKill(t *testing.T) {
	dir := t.TempDir()
	keys := lazyKeys(12)
	h1 := newHarness(t, lazyOptions(dir, 93))
	for i, k := range keys {
		h1.driveStream(k, 1, 1+i%3)
	}
	if err := h1.srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	// Traffic after the pass, on streams other than the scheme check's:
	// items and boundaries on three, a model attach and labeled batches
	// on a fourth, items without a boundary on a fifth.
	eager := eagerKey(keys)
	others := slices.DeleteFunc(slices.Clone(keys), func(k string) bool { return k == eager })
	subset := []string{others[1], others[4], others[7], others[9], others[10]}
	for _, k := range subset[:3] {
		h1.driveStream(k, 10, 12)
	}
	h1.attachModel(subset[3], map[string]any{"learner": "knn", "policy": "always"})
	for b := 1; b <= 3; b++ {
		h1.do("POST", "/v1/streams/"+subset[3]+"/items", labeledBatch(b, 20), http.StatusOK, nil)
		h1.do("POST", "/v1/streams/"+subset[3]+"/advance", nil, http.StatusOK, nil)
	}
	h1.do("POST", "/v1/streams/"+subset[4]+"/items", itemBatch(subset[4], 20, 7), http.StatusOK, nil)
	want := h1.bodies(keys)
	wantModel := h1.get("/v1/streams/" + subset[3] + "/model/stats")
	h1.kill()

	h2 := newHarness(t, lazyOptions(dir, 93))
	wantResident := append([]string{eager}, subset...)
	slices.Sort(wantResident)
	if got := h2.residentKeys(); !reflect.DeepEqual(got, wantResident) {
		t.Fatalf("resident at ready: %v, want %v (the streams the WAL names and the scheme check)", got, wantResident)
	}
	if got := h2.metricValue("tbsd_hydrations_total"); got != 0 {
		t.Errorf("replay's restores counted %d hydrations", got)
	}
	if got := h2.metricValue("tbsd_restored_streams"); got != uint64(len(keys)) {
		t.Errorf("tbsd_restored_streams = %d, want %d", got, len(keys))
	}
	if got := h2.get("/v1/streams/" + subset[3] + "/model/stats"); got != wantModel {
		t.Errorf("model stats after the kill:\n got %s\nwant %s", got, wantModel)
	}
	got := h2.bodies(keys)
	for path, body := range want {
		if got[path] != body {
			t.Errorf("%s after the kill:\n got %s\nwant %s", path, got[path], body)
		}
	}
}

// TestLazyBootSchemeMismatch: a tiered boot still reads one file in full,
// so a directory written under another scheme fails it, with and without
// quarantine (the tiered twins of TestRestoreSchemeMismatch and
// TestQuarantineKeepsSchemeMismatchStrict).
func TestLazyBootSchemeMismatch(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, Options{Sampler: rtbsConfig(73), CheckpointDir: dir})
	for _, k := range lazyKeys(5) {
		h.driveStream(k, 1, 2)
	}
	h.close()
	for _, quarantine := range []bool{false, true} {
		_, err := New(Options{
			Sampler:           tbs.Config{Scheme: "brs", MaxSize: ptr(40), Seed: ptr(uint64(73))},
			CheckpointDir:     dir,
			MaxResident:       1,
			RestoreQuarantine: quarantine,
		})
		if err == nil {
			t.Fatalf("tiered boot with a mismatched scheme succeeded (quarantine %v)", quarantine)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if filepath.Ext(de.Name()) == ".corrupt" {
			t.Fatalf("quarantine renamed %s over a scheme mismatch", de.Name())
		}
	}
}

// TestLazyBootCorruptStub: a tiered boot does not read a stub's file, so
// a corrupt one no longer fails boot. Its key answers 500
// hydrate_failed and stays a stub, the other keys serve, and a DELETE
// removes the stub without hydrating it, for good.
func TestLazyBootCorruptStub(t *testing.T) {
	dir := t.TempDir()
	keys := lazyKeys(6)
	h1 := newHarness(t, lazyOptions(dir, 95))
	for _, k := range keys {
		h1.driveStream(k, 1, 2)
	}
	want := h1.bodies(keys)
	h1.close()
	eager := eagerKey(keys)
	bad := keys[0]
	if bad == eager {
		bad = keys[1]
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName(bad)), []byte(`{"key":"`+bad+`","snapshot":{"scheme":`), 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, lazyOptions(dir, 95))
	var out map[string]any
	h2.do("GET", "/v1/streams/"+bad+"/stats", nil, http.StatusInternalServerError, &out)
	if out["code"] != "hydrate_failed" {
		t.Errorf("first touch of the corrupt stub: code %v, want hydrate_failed", out["code"])
	}
	if got := h2.metricValue("tbsd_hydration_errors_total"); got != 1 {
		t.Errorf("tbsd_hydration_errors_total = %d, want 1", got)
	}
	if e := h2.srv.reg.lookup(bad); e == nil || !e.hibernated.Load() {
		t.Fatal("the failed hydration did not leave the stub in place")
	}
	for _, k := range keys {
		if k == bad {
			continue
		}
		for path, body := range h2.bodies([]string{k}) {
			if body != want[path] {
				t.Errorf("%s beside a corrupt stub:\n got %s\nwant %s", path, body, want[path])
			}
		}
	}
	hydrations := h2.srv.metrics.hydrationLat.Count()
	h2.do("DELETE", "/v1/streams/"+bad, nil, http.StatusOK, nil)
	if got := h2.srv.metrics.hydrationLat.Count(); got != hydrations {
		t.Errorf("DELETE of the corrupt stub ran %d hydrations", got-hydrations)
	}
	h2.close()

	h3 := newHarness(t, lazyOptions(dir, 95))
	h3.do("GET", "/v1/streams/"+bad+"/stats", nil, http.StatusNotFound, nil)
	if got := h3.metricValue("tbsd_streams"); got != uint64(len(keys)-1) {
		t.Errorf("tbsd_streams after the delete and a restart = %d, want %d", got, len(keys)-1)
	}
}

// TestLazyBootCompaction: the stubs a lazy boot leaves have no record in
// the log (WAL positions 0), so they do not pin compaction: traffic on
// one stream and a checkpoint pass truncate the log.
func TestLazyBootCompaction(t *testing.T) {
	dir := t.TempDir()
	keys := lazyKeys(8)
	opts := lazyOptions(dir, 97)
	opts.WALSegmentBytes = 512 // rotate often
	h1 := newHarness(t, opts)
	for _, k := range keys {
		h1.driveStream(k, 1, 2)
	}
	h1.close()

	h2 := newHarness(t, opts)
	if got := h2.srv.ResidentStreams(); got != 1 {
		t.Fatalf("ResidentStreams at ready = %d, want 1", got)
	}
	hot := keys[3]
	h2.driveStream(hot, 3, 30)
	before := h2.srv.wal.Stats()
	if before.Segments < 3 {
		t.Fatalf("expected several segments before the pass, got %d", before.Segments)
	}
	if err := h2.srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	after := h2.srv.wal.Stats()
	if after.Segments >= before.Segments || after.TruncatedSegments == 0 {
		t.Fatalf("stubs pinned the WAL: %d -> %d segments (%d truncated)",
			before.Segments, after.Segments, after.TruncatedSegments)
	}
	acked := h2.stats(hot)
	h2.kill()
	h3 := newHarness(t, opts)
	if got := h3.stats(hot); got != acked {
		t.Fatalf("recovery after the compaction diverged: %+v, want %+v", got, acked)
	}
}

// TestLazyBootNonCanonicalName: base64 decoding ignores some bits, so a
// file named otherwise than checkpointFileName(key) still names key. A
// stub would read the canonical name and never find the file, so lazy
// boot restores such a file in full, as an eager boot does.
func TestLazyBootNonCanonicalName(t *testing.T) {
	dir := t.TempDir()
	opts := lazyOptions(dir, 99)
	h1 := newHarness(t, opts)
	h1.driveStream("1", 1, 2) // "MQ.ckpt.json" sorts first: the scheme check
	h1.driveStream("a", 1, 3)
	want := h1.bodies([]string{"a"})
	h1.close()
	if got := checkpointFileName("a"); got != "YQ"+checkpointSuffix {
		t.Fatalf("checkpointFileName(%q) = %s", "a", got)
	}
	if err := os.Rename(filepath.Join(dir, "YQ"+checkpointSuffix), filepath.Join(dir, "YR"+checkpointSuffix)); err != nil {
		t.Fatal(err)
	}
	h2 := newHarness(t, opts)
	for path, body := range h2.bodies([]string{"a"}) {
		if body != want[path] {
			t.Errorf("%s from a non-canonical file name:\n got %s\nwant %s", path, body, want[path])
		}
	}
}
