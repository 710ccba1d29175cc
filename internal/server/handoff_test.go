package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// handoffOpts is the migration test configuration: WAL + checkpoints on,
// background checkpointer effectively off, so what moves in a handoff is
// exactly what the envelope carries.
func handoffOpts(dir string, seed uint64) Options {
	o := walOpts(dir, seed)
	o.Advertise = "http://" + dir // any stable identity string
	return o
}

// handoff drives POST /v1/streams/{key}/handoff and returns the decoded
// response.
func (h *harness) handoff(key, targetURL string, wantStatus int) map[string]any {
	h.t.Helper()
	var out map[string]any
	h.do("POST", "/v1/streams/"+key+"/handoff?target="+targetURL, nil, wantStatus, &out)
	return out
}

// TestHandoffMovesStreamByteIdentical is the migration acceptance test:
// after a handoff the target must continue the stream's exact stochastic
// process — counters, sampler state and RNG trajectory — which is proven
// by lockstep comparison against a control server that ran the same
// traffic without ever migrating.
func TestHandoffMovesStreamByteIdentical(t *testing.T) {
	src := newHarness(t, handoffOpts(t.TempDir(), 5))
	dst := newHarness(t, handoffOpts(t.TempDir(), 5))
	ctl := newHarness(t, handoffOpts(t.TempDir(), 5))

	const key = "mig-k"
	src.driveStream(key, 1, 8)
	ctl.driveStream(key, 1, 8)
	preStats := src.stats(key)

	out := src.handoff(key, dst.ts.URL, http.StatusOK)
	if out["handedOff"] != true {
		t.Fatalf("handoff response %v", out)
	}
	if got := uint64(out["ingested"].(float64)); got != preStats.Ingested {
		t.Errorf("envelope carried ingested=%d, source had %d", got, preStats.Ingested)
	}

	// The source now refuses the key with 421 + the new home.
	var moved map[string]any
	src.do("GET", "/v1/streams/"+key+"/stats", nil, http.StatusMisdirectedRequest, &moved)
	if moved["code"] != "stream_moved" || moved["target"] != dst.ts.URL {
		t.Errorf("source 421 body %v must carry code stream_moved and the target", moved)
	}
	src.do("POST", "/v1/streams/"+key+"/items", itemBatch(key, 9, 5), http.StatusMisdirectedRequest, nil)

	// The target serves the stream with the source's exact counters.
	if got, want := dst.stats(key), preStats; !reflect.DeepEqual(got, want) {
		t.Fatalf("target stats %+v, want source's pre-handoff %+v", got, want)
	}

	// Continue identical traffic on target and control, then compare the
	// realized samples — byte-identical items prove the RNG trajectory
	// and reservoir state moved intact.
	dst.driveStream(key, 9, 12)
	ctl.driveStream(key, 9, 12)
	ds, cs := dst.sample(key), ctl.sample(key)
	if !reflect.DeepEqual(ds, cs) {
		t.Fatalf("post-handoff sample diverged from control:\n  target:  %+v\n  control: %+v", ds, cs)
	}

	// And the stream is gone from the source's listing but present on the
	// target's.
	var list struct {
		Streams []string `json:"streams"`
	}
	src.do("GET", "/v1/streams", nil, http.StatusOK, &list)
	for _, k := range list.Streams {
		if k == key {
			t.Errorf("source still lists %q after handoff", key)
		}
	}
}

// TestHandoffMovesModel: a stream with a managed model migrates with its
// deployed model bytes and policy clock — the target predicts exactly
// like the control.
func TestHandoffMovesModel(t *testing.T) {
	src := newHarness(t, handoffOpts(t.TempDir(), 9))
	dst := newHarness(t, handoffOpts(t.TempDir(), 9))
	ctl := newHarness(t, handoffOpts(t.TempDir(), 9))

	const key = "model-mig"
	spec := map[string]any{"learner": "knn", "policy": "every:2"}
	for _, h := range []*harness{src, ctl} {
		h.attachModel(key, spec)
		for tt := 1; tt <= 4; tt++ {
			h.do("POST", "/v1/streams/"+key+"/items", labeledBatch(tt, 30), http.StatusOK, nil)
			h.do("POST", "/v1/streams/"+key+"/advance", nil, http.StatusOK, nil)
		}
	}
	src.handoff(key, dst.ts.URL, http.StatusOK)

	queries := []map[string]any{{"x": []float64{0.3, 0.4}}, {"x": []float64{10.2, 10.3}}}
	got := dst.predict(key, queries, http.StatusOK)
	want := ctl.predict(key, queries, http.StatusOK)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted model predicts %+v, control %+v", got, want)
	}
	if gs, ws := dst.modelStats(key), ctl.modelStats(key); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("adopted model stats %+v, control %+v", gs, ws)
	}
}

// TestHandoffSurvivesRestart: a migrated stream must stay migrated
// across a full cluster restart — the source's tombstone prevents
// resurrection, the target's persisted adoption checkpoint brings the
// stream back, and the state still matches a control run killed and
// restarted at the same point.
func TestHandoffSurvivesRestart(t *testing.T) {
	srcDir, dstDir, ctlDir := t.TempDir(), t.TempDir(), t.TempDir()
	src := newHarness(t, handoffOpts(srcDir, 5))
	dst := newHarness(t, handoffOpts(dstDir, 5))
	ctl := newHarness(t, handoffOpts(ctlDir, 5))

	const key = "restart-mig"
	src.driveStream(key, 1, 6)
	ctl.driveStream(key, 1, 6)
	src.driveStream("stays-home", 1, 3)
	src.handoff(key, dst.ts.URL, http.StatusOK)

	// Acknowledged post-handoff traffic on the target must survive too.
	dst.driveStream(key, 7, 9)
	ctl.driveStream(key, 7, 9)
	preStats := dst.stats(key)

	// kill -9 everything; restart each node from its own disk.
	src.kill()
	dst.kill()
	ctl.kill()
	src2 := newHarness(t, handoffOpts(srcDir, 5))
	dst2 := newHarness(t, handoffOpts(dstDir, 5))
	ctl2 := newHarness(t, handoffOpts(ctlDir, 5))

	// The source must NOT resurrect the migrated stream (tombstone), but
	// must keep its other stream.
	src2.do("GET", "/v1/streams/"+key+"/stats", nil, http.StatusNotFound, nil)
	if st := src2.stats("stays-home"); st.Batches != 3 {
		t.Errorf("unmigrated stream lost by restart: %+v", st)
	}

	// The target resumes the adopted stream exactly where it was killed.
	if got := dst2.stats(key); !reflect.DeepEqual(got, preStats) {
		t.Fatalf("restarted target stats %+v, want %+v", got, preStats)
	}
	ds, cs := dst2.sample(key), ctl2.sample(key)
	if !reflect.DeepEqual(ds, cs) {
		t.Fatalf("post-restart sample diverged from control:\n  target:  %+v\n  control: %+v", ds, cs)
	}
}

// TestHandoffErrorPaths covers the structured failures: unknown stream,
// bad target, unreachable target, and a target that already owns the
// key — and that every failure leaves the source stream unfrozen and
// serving.
func TestHandoffErrorPaths(t *testing.T) {
	src := newHarness(t, handoffOpts(t.TempDir(), 5))
	dst := newHarness(t, handoffOpts(t.TempDir(), 5))

	// Unknown stream.
	src.handoff("ghost", dst.ts.URL, http.StatusNotFound)

	const key = "err-k"
	src.driveStream(key, 1, 2)

	// Missing / malformed target.
	var out map[string]any
	src.do("POST", "/v1/streams/"+key+"/handoff", nil, http.StatusBadRequest, &out)
	if out["code"] != "bad_request" {
		t.Errorf("missing target: code = %v", out["code"])
	}
	src.handoff(key, "not-a-url", http.StatusBadRequest)

	// Unreachable target: structured 502, stream stays home and usable.
	out = src.handoff(key, "http://127.0.0.1:1", http.StatusBadGateway)
	if out["code"] != "target_unreachable" {
		t.Errorf("unreachable target: code = %v", out["code"])
	}
	src.driveStream(key, 3, 3) // not frozen, not moved

	// Target already owns the key: the target's 409 is relayed as a
	// structured 502 and the source stream again stays usable.
	dst.driveStream(key, 1, 1)
	out = src.handoff(key, dst.ts.URL, http.StatusBadGateway)
	if out["code"] != "handoff_rejected" {
		t.Errorf("occupied target: code = %v", out["code"])
	}
	if got := out["targetStatus"].(float64); got != http.StatusConflict {
		t.Errorf("targetStatus = %v, want 409", got)
	}
	src.driveStream(key, 4, 4)
	if st := src.stats(key); st.Batches != 4 {
		t.Errorf("source stream corrupted by failed handoffs: %+v", st)
	}
}

// TestHandoffRefusesInFlightIngest: an NDJSON request that passed the
// moved check before a handoff committed, and reaches its first append
// only after it, is refused with 421 — it must not recreate an empty
// stream on the source that every later request would meet with 421.
func TestHandoffRefusesInFlightIngest(t *testing.T) {
	src := newHarness(t, handoffOpts(t.TempDir(), 5))
	dst := newHarness(t, handoffOpts(t.TempDir(), 5))
	const key = "pipe-k"
	src.driveStream(key, 1, 2)

	pr, pw := io.Pipe()
	defer pw.Close() // unblocks the handler if the test stops early
	req := httptest.NewRequest("POST", "/v1/streams/"+key+"/items", pr)
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		src.srv.Handler().ServeHTTP(rec, req)
	}()
	// The pipe hands over the first line only once the handler reads it,
	// so the handoff commits while the request is past its moved check
	// but, one line being short of a chunk, holds no stream yet.
	if _, err := io.WriteString(pw, "1\n"); err != nil {
		t.Fatal(err)
	}
	src.handoff(key, dst.ts.URL, http.StatusOK)
	if _, err := io.WriteString(pw, "2\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done

	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("in-flight ingest: %v: %s", err, rec.Body)
	}
	if rec.Code != http.StatusMisdirectedRequest || out["code"] != "stream_moved" ||
		out["target"] != dst.ts.URL || out["added"] != float64(0) {
		t.Fatalf("in-flight ingest answered %d %v, want 421 stream_moved naming the target, added 0", rec.Code, out)
	}
	var list struct {
		Streams []string `json:"streams"`
	}
	src.do("GET", "/v1/streams", nil, http.StatusOK, &list)
	if len(list.Streams) != 0 {
		t.Errorf("source lists %v after the handoff, want none", list.Streams)
	}
}

// TestAdoptRejectsBadEnvelopes: the adopt endpoint validates key match
// and envelope shape, and counts each refused adoption once in
// tbsd_handoff_errors_total.
func TestAdoptRejectsBadEnvelopes(t *testing.T) {
	h := newHarness(t, handoffOpts(t.TempDir(), 5))
	var out map[string]any
	h.do("POST", "/v1/streams/k/adopt", map[string]any{"state": map[string]any{"key": "other"}},
		http.StatusBadRequest, &out)
	if out["code"] != "bad_envelope" {
		t.Errorf("key mismatch: code = %v", out["code"])
	}
	h.do("POST", "/v1/streams/k/adopt", "not an envelope", http.StatusBadRequest, nil)
	if !strings.Contains(h.get("/metrics"), "\ntbsd_handoff_errors_total 2\n") {
		t.Error("two refused adoptions did not count 2 in tbsd_handoff_errors_total")
	}
}

// TestDeleteClearsMovedMarker: DELETE on a moved key is the operator
// explicitly discarding the forwarding memory — afterwards the key 404s
// and fresh ingest recreates it locally.
func TestDeleteClearsMovedMarker(t *testing.T) {
	src := newHarness(t, handoffOpts(t.TempDir(), 5))
	dst := newHarness(t, handoffOpts(t.TempDir(), 5))
	const key = "del-k"
	src.driveStream(key, 1, 2)
	src.handoff(key, dst.ts.URL, http.StatusOK)
	src.do("GET", "/v1/streams/"+key+"/stats", nil, http.StatusMisdirectedRequest, nil)
	src.do("DELETE", "/v1/streams/"+key, nil, http.StatusOK, nil)
	src.do("GET", "/v1/streams/"+key+"/stats", nil, http.StatusNotFound, nil)
	src.driveStream(key, 1, 1) // recreated fresh, no 421
	if st := src.stats(key); st.Batches != 1 {
		t.Errorf("recreated stream stats %+v", st)
	}
}
