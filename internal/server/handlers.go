package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/tbs"
)

// maxBodyBytes bounds one ingest request body (a JSON body is buffered
// in memory whole).
const maxBodyBytes = 32 << 20

// maxKeyBytes bounds stream keys. Keys become checkpoint file names via
// base64url (4 name bytes per 3 key bytes) plus the ".ckpt.json" suffix
// and atomicfile's transient ".tmp<random>" suffix (≤ 15 bytes), and the
// whole name must stay within the common 255-byte filesystem limit:
// base64(168) + 10 + 15 = 249.
const maxKeyBytes = 168

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/streams/{key}/items", s.handleItems)
	mux.HandleFunc("POST /v1/streams/{key}/advance", s.handleAdvance)
	mux.HandleFunc("GET /v1/streams/{key}/sample", s.handleSample)
	mux.HandleFunc("GET /v1/streams/{key}/stats", s.handleStats)
	mux.HandleFunc("DELETE /v1/streams/{key}", s.handleStreamDelete)
	mux.HandleFunc("PUT /v1/streams/{key}/model", s.handleModelAttach)
	mux.HandleFunc("GET /v1/streams/{key}/model", s.handleModelGet)
	mux.HandleFunc("DELETE /v1/streams/{key}/model", s.handleModelDetach)
	mux.HandleFunc("POST /v1/streams/{key}/model/predict", s.handleModelPredict)
	mux.HandleFunc("GET /v1/streams/{key}/model/stats", s.handleModelStats)
	mux.HandleFunc("POST /v1/streams/{key}/handoff", s.handleHandoff)
	mux.HandleFunc("POST /v1/streams/{key}/adopt", s.handleAdopt)
	mux.HandleFunc("GET /v1/streams", s.handleList)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The trace ring rides on the main mux (not just the debug listener):
	// it is bounded, read-only, and the first thing to look at when a
	// request is slow. Nil-safe — a tracing-disabled server answers with
	// an empty, disabled listing.
	mux.HandleFunc("GET /debug/trace/recent", s.opts.Trace.ServeRecent)
	// Liveness: the process is up and serving HTTP. Always 200 — a node
	// mid-restore or mid-drain is alive, just not ready.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "streams": s.reg.count()})
	})
	// Readiness: restore completed and Start ran (503 again once Stop
	// begins draining). The router's health prober keys off this.
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := s.metrics.Ready()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ready":       ready,
		"streams":     s.reg.count(),
		"restored":    s.metrics.restoredStreams.Load(),
		"walReplayed": s.metrics.walReplayed.Load(),
	})
}

// movedGuard answers 421 Misdirected Request for a stream this node
// handed off (streamMovedError).
func (s *Server) movedGuard(w http.ResponseWriter, key string) bool {
	err := s.reg.movedErr(key)
	if err != nil {
		s.fail(nil, w, err)
	}
	return err != nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// existingStream pins the stream a request names without creating it,
// hydrating it if hibernated, or writes the answer for a bad key, a
// failure, a handed-off key (421) or an unknown one (404). On ok the
// caller must e.unpin().
func (s *Server) existingStream(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	key, ok := streamKey(w, r)
	if !ok {
		return nil, false
	}
	e, err := s.acquireExisting(key)
	if err != nil {
		s.fail(nil, w, err)
		return nil, false
	}
	if e == nil && !s.movedGuard(w, key) {
		writeError(w, http.StatusNotFound, "unknown stream %q", key)
	}
	return e, e != nil
}

// respond is writeJSON for traced handlers: the response write is the
// trace's ack stage, and the trace finishes with the response status.
// tr may be nil (tracing off, or an untraced early-exit path).
func respond(tr *obs.Trace, w http.ResponseWriter, status int, v any) {
	ackStart := time.Now()
	writeJSON(w, status, v)
	tr.StageSince(obs.StageAck, ackStart)
	tr.Finish(status)
}

// fail answers err with ingestFailure's status, code and context.
func (s *Server) fail(tr *obs.Trace, w http.ResponseWriter, err error) {
	status, code, extra := s.ingestFailure(err)
	respond(tr, w, status, errorBody(code, err.Error(), extra))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// errorBody is the structured error envelope: a stable machine-readable
// code alongside the human-readable message, plus optional context fields
// (limits, per-request progress) merged in.
func errorBody(code, msg string, extra map[string]any) map[string]any {
	body := map[string]any{"error": msg, "code": code}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

// ingestFailure maps an ingest error to its HTTP status, structured code
// and limit context. Requests that can never fit (oversized body, a batch
// larger than the open-batch cap) get 413 so clients know to split rather
// than retry; a transiently full open batch and the stream cap get 429.
func (s *Server) ingestFailure(err error) (status int, code string, extra map[string]any) {
	var tooLarge *http.MaxBytesError
	var moved *streamMovedError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large", map[string]any{"limitBytes": tooLarge.Limit}
	case errors.As(err, &moved):
		return http.StatusMisdirectedRequest, "stream_moved", map[string]any{"key": moved.key, "target": moved.target}
	case errors.Is(err, errRequestTooLarge):
		return http.StatusRequestEntityTooLarge, "batch_limit", map[string]any{"limitItems": s.opts.MaxPendingItems}
	case errors.Is(err, errBatchFull):
		return http.StatusTooManyRequests, "open_batch_full", map[string]any{"limitItems": s.opts.MaxPendingItems}
	case errors.Is(err, errTooManyStreams):
		return http.StatusTooManyRequests, "stream_limit", map[string]any{"limitStreams": s.opts.MaxStreams}
	case errors.Is(err, errStreamDeleted):
		// The entry lost a race with DELETE /v1/streams/{key}; a retry
		// recreates the stream from scratch.
		return http.StatusNotFound, "stream_deleted", nil
	case errors.Is(err, errStreamMigrating):
		// Frozen for a handoff; the freeze either lifts (failed handoff)
		// or the key starts answering 421 with its new home.
		return http.StatusServiceUnavailable, "stream_migrating", nil
	case errors.Is(err, errJournalFailed):
		return http.StatusInternalServerError, "wal_unavailable", nil
	case errors.Is(err, errHydrateFailed):
		// Rehydrating the hibernated stream from its checkpoint + WAL tail
		// failed; the stub is intact, so a retry re-attempts hydration.
		return http.StatusInternalServerError, "hydrate_failed", nil
	case errors.Is(err, errNewSampler):
		return http.StatusInternalServerError, "internal", nil
	default:
		return http.StatusBadRequest, "bad_request", nil
	}
}

// streamKey extracts and validates the {key} path segment.
func streamKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "empty stream key")
		return "", false
	}
	if len(key) > maxKeyBytes {
		writeError(w, http.StatusBadRequest, "stream key longer than %d bytes", maxKeyBytes)
		return "", false
	}
	return key, true
}

// handleAdvance closes the stream's open batch — an explicit batch
// boundary in the paper's sense. Advancing a stream that has received no
// items is legal and still moves the decay clock; advancing an unknown
// stream creates it, so pure time-decay streams can be driven without a
// prior ingest.
//
//tbs:walbeforeack
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	key, ok := streamKey(w, r)
	if !ok {
		return
	}
	e, err := s.acquireStream(key)
	if err != nil {
		s.fail(nil, w, err)
		return
	}
	defer e.unpin()
	tr := s.opts.Trace.StartFromRequest(r, obs.KindIngest, key)
	n, batches, elapsed, lsn, err := s.advanceWait(e, tr)
	if err != nil {
		s.fail(tr, w, err)
		return
	}
	fsyncStart := time.Now()
	err = s.syncWAL(lsn)
	tr.StageSince(obs.StageFsyncWait, fsyncStart)
	if err != nil {
		respond(tr, w, http.StatusInternalServerError, errorBody("wal_unavailable", err.Error(), nil))
		return
	}
	respond(tr, w, http.StatusOK, map[string]any{
		"key":           key,
		"batch":         n,
		"batches":       batches,
		"expectedSize":  e.sampler.ExpectedSize(),
		"elapsedMicros": elapsed.Microseconds(),
	})
}

// sampleBufPool recycles realization buffers across /sample requests: the
// sampler appends into a pooled caller-owned buffer (the tbs.AppendSample
// path), so steady-state sampling allocates no per-request slice. Only the
// item headers live in the buffer — it is returned to the pool after the
// response is written, before which the encoder has consumed them.
var sampleBufPool = sync.Pool{
	New: func() any { b := make([]Item, 0, 256); return &b },
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	e, ok := s.existingStream(w, r)
	if !ok {
		return
	}
	defer e.unpin()
	// Read-your-writes: apply any queued batch boundaries first, so a
	// sample taken right after an acknowledged advance reflects it.
	s.flushStream(e)
	bufp := sampleBufPool.Get().(*[]Item)
	var items []Item
	if s.wal != nil && e.sampleMutating {
		// R-TBS realization consumes RNG draws: journal the read and draw
		// under one entry-lock hold, so replay consumes the identical
		// draws at the identical point in the stream's process, and sync
		// before responding — the response is what makes the draw
		// observable.
		var lsn uint64
		var err error
		items, lsn, err = e.journalSampleRead((*bufp)[:0])
		if err == nil {
			err = s.syncWAL(lsn)
		}
		if err != nil {
			sampleBufPool.Put(bufp)
			s.fail(nil, w, err)
			return
		}
	} else {
		items = e.sampler.AppendSample((*bufp)[:0])
		// R-TBS realization consumes RNG draws, so the next checkpoint
		// must persist the advanced RNG; pure-read schemes stay clean.
		if e.sampleMutating {
			e.markDirty()
		}
	}
	if items == nil {
		items = []Item{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key":    e.key,
		"scheme": e.sampler.Scheme(),
		"size":   len(items),
		"items":  items,
	})
	*bufp = items[:0]
	sampleBufPool.Put(bufp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	e, ok := s.existingStream(w, r)
	if !ok {
		return
	}
	defer e.unpin()
	// Stats follow the same read-your-writes rule as /sample: queued
	// boundaries are applied before the counters and clock are read.
	s.flushStream(e)
	pending, ingested, batches := e.counters()
	resp := map[string]any{
		"key":          e.key,
		"scheme":       e.sampler.Scheme(),
		"expectedSize": e.sampler.ExpectedSize(),
		"pending":      pending,
		"ingested":     ingested,
		"batches":      batches,
	}
	if total, lambda, ok := tbs.Weight[Item](e.sampler); ok {
		resp["totalWeight"] = total
		resp["lambda"] = lambda
	}
	if t, ok := tbs.Now[Item](e.sampler); ok {
		resp["now"] = t
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	keys := s.reg.keys()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(keys), "streams": keys})
}

// handleStreamDelete removes a stream end to end — registry entry,
// checkpoint file, WAL history (via a journaled tombstone) — so neither
// a restart nor a replay resurrects the tenant. Subsequent reads 404; a
// subsequent ingest creates a fresh stream, exactly as for a
// never-seen key.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	key, ok := streamKey(w, r)
	if !ok {
		return
	}
	// A DELETE clears the handed-off marker too: the operator is
	// explicitly discarding this node's memory of the key, after which a
	// new ingest may create a fresh stream here. Dropping the marker
	// alone counts as a delete — there is no local entry behind it.
	_, wasMoved := s.reg.moved.LoadAndDelete(key)
	existed, err := s.deleteStream(key)
	if !existed && !wasMoved {
		writeError(w, http.StatusNotFound, "unknown stream %q", key)
		return
	}
	if err != nil {
		// The stream is gone from the registry, but part of the on-disk
		// cleanup failed; surface it rather than fake a clean delete.
		writeJSON(w, http.StatusInternalServerError, errorBody("delete_incomplete", err.Error(), nil))
		return
	}
	s.metrics.ObserveStreamDelete()
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "deleted": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var eng *engine.Stats
	if s.eng != nil {
		st := s.eng.Stats()
		eng = &st
	}
	var walSt *wal.Stats
	if s.wal != nil {
		st := s.wal.Stats()
		walSt = &st
	}
	_ = s.metrics.WriteTo(w, s.reg.count(), int(s.reg.resident.Load()), s.reg.perShardCounts(), eng, walSt)
	_ = s.opts.Trace.WriteMetrics(w, "tbsd")
}
