package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Stream migration: POST /v1/streams/{key}/handoff?target=http://host:port
// moves one stream to another tbsd node with no acknowledged-data loss.
//
// Source side (handleHandoff):
//
//  1. freeze the entry (beginMigration) — every mutation answers 503
//     stream_migrating from here on, so nothing acknowledged can miss
//     the shipped state
//  2. drain queued boundaries (flushStream) and force-capture the
//     checkpoint envelope, plus the WAL tail past its WalLSN (empty by
//     construction after the freeze; shipped anyway so the envelope is
//     self-contained even if capture semantics ever loosen)
//  3. POST the envelope to the target's /adopt; any failure unfreezes
//     the stream and reports a structured 502 — the source remains the
//     owner
//  4. on 200: record the moved marker so stale clients get 421 with the
//     new home instead of silently recreating the stream here, then
//     journal a deletion tombstone (durable before the checkpoint file
//     is unlinked, mirroring DELETE) and drop the entry
//
// Target side (handleAdopt): rebuild the entry and its tail through
// boot's restore routine (rebuild), rebase its LSN bookkeeping into the
// local WAL's space, persist a checkpoint BEFORE the entry starts
// serving — adoption must survive an immediate kill — and only then
// attach the local WAL and unfreeze.

// handoffEnvelope is the migration wire format: the stream's checkpoint
// envelope (the PR 5 restore format, so adoption is exactly a restore)
// plus the WAL records after its WalLSN and the source's identity.
type handoffEnvelope struct {
	State checkpointState `json:"state"`
	Tail  []wireRecord    `json:"tail,omitempty"`
	From  string          `json:"from,omitempty"`
}

// wireRecord is a WAL record stripped to what adoption needs: source
// LSNs are meaningless in the target's LSN space, and the key rides the
// URL. Order within the tail is LSN order.
type wireRecord struct {
	Type uint8 `json:"type"`
	// Items are typed as server Items, not raw JSON: WAL records carry
	// binary-ingested rows verbatim, and Item.MarshalJSON materializes
	// them to text as the envelope is encoded.
	Items []Item `json:"items,omitempty"`
	Data  []byte `json:"data,omitempty"`
}

func toWireRecords(recs []wal.Record) []wireRecord {
	out := make([]wireRecord, len(recs))
	for i, r := range recs {
		w := wireRecord{Type: uint8(r.Type), Data: r.Data}
		if len(r.Items) > 0 {
			w.Items = make([]Item, len(r.Items))
			for j, it := range r.Items {
				w.Items[j] = Item(it)
			}
		}
		out[i] = w
	}
	return out
}

func (w wireRecord) toRecord(key string) wal.Record {
	r := wal.Record{Type: wal.Type(w.Type), Key: key, Data: w.Data}
	if len(w.Items) > 0 {
		r.Items = make([][]byte, len(w.Items))
		for i, it := range w.Items {
			r.Items[i] = []byte(it)
		}
	}
	return r
}

// maxAdoptBytes bounds one adoption envelope. Envelopes carry a full
// stream state (reservoir + open batch + model bytes), which can far
// exceed a single ingest request.
const maxAdoptBytes = 256 << 20

// handoffClient ships envelopes between nodes. The timeout bounds the
// whole exchange — a handoff holds ckptMu at the source, so a wedged
// target must not stall checkpoints forever.
var handoffClient = &http.Client{Timeout: 30 * time.Second}

// handoffTarget extracts and validates the target node URL from
// ?target= or a {"target": "..."} body.
func handoffTarget(w http.ResponseWriter, r *http.Request) (string, bool) {
	target := r.URL.Query().Get("target")
	if target == "" {
		var body struct {
			Target string `json:"target"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err == nil {
			target = body.Target
		}
	}
	target = strings.TrimSuffix(target, "/")
	if target == "" {
		writeJSON(w, http.StatusBadRequest, errorBody("bad_request",
			"handoff needs a target node URL (?target= or a JSON body with \"target\")", nil))
		return "", false
	}
	u, err := url.Parse(target)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeJSON(w, http.StatusBadRequest, errorBody("bad_request",
			fmt.Sprintf("target %q must be an absolute http(s) URL", target), nil))
		return "", false
	}
	return target, true
}

// handleHandoff is the source side of a stream migration.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	key, ok := streamKey(w, r)
	if !ok {
		return
	}
	target, ok := handoffTarget(w, r)
	if !ok {
		return
	}
	tr := s.opts.Trace.StartFromRequest(r, obs.KindHandoff, key)
	// ckptMu serializes the handoff against checkpoint passes and
	// deletes, exactly like deleteStream: the capture, the tombstone and
	// the file unlink must not interleave with a pass rewriting the file.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Pin + hydrate before freezing: a hibernated stream hands off its
	// full rebuilt state, and the pin keeps the hibernator from evicting
	// the entry between hydration and the freeze (frozen entries are
	// never evicted, so the pin only needs to bridge that gap).
	e, err := s.acquireExisting(key)
	if err != nil {
		s.fail(tr, w, err)
		return
	}
	if e == nil {
		if !s.movedGuard(w, key) {
			writeError(w, http.StatusNotFound, "unknown stream %q", key)
		}
		tr.Finish(http.StatusNotFound)
		return
	}
	defer e.unpin()
	freezeStart := time.Now()
	err = e.beginMigration()
	tr.StageSince(obs.StageFreeze, freezeStart)
	if err != nil {
		status, code, extra := s.ingestFailure(err)
		if errors.Is(err, errStreamMigrating) {
			status, code = http.StatusConflict, "handoff_in_progress"
		}
		respond(tr, w, status, errorBody(code, err.Error(), extra))
		return
	}
	success := false
	defer func() {
		if !success {
			e.endMigration()
			s.metrics.ObserveHandoffError()
		}
	}()

	// Drain: every closed-but-unapplied boundary folds into the sampler
	// before capture, so the envelope reflects all acknowledged work.
	captureStart := time.Now()
	s.flushStream(e)
	st, err := e.captureState()
	if err != nil {
		respond(tr, w, http.StatusInternalServerError, errorBody("handoff_capture", err.Error(), nil))
		return
	}
	var tail []wireRecord
	if s.wal != nil {
		recs, err := s.wal.TailForKey(key, st.WalLSN)
		if err != nil {
			respond(tr, w, http.StatusInternalServerError, errorBody("handoff_tail", err.Error(), nil))
			return
		}
		tail = toWireRecords(recs)
	}
	payload, err := json.Marshal(handoffEnvelope{State: st, Tail: tail, From: s.opts.Advertise})
	tr.StageSince(obs.StageCapture, captureStart)
	if err != nil {
		respond(tr, w, http.StatusInternalServerError, errorBody("handoff_encode", err.Error(), nil))
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		target+"/v1/streams/"+url.PathEscape(key)+"/adopt", bytes.NewReader(payload))
	if err != nil {
		respond(tr, w, http.StatusBadRequest, errorBody("bad_request", err.Error(), nil))
		return
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the trace: the target's adopt trace joins this trace ID,
	// so one migration reads as one trace across both nodes' rings.
	if tp := tr.Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	shipStart := time.Now()
	resp, err := handoffClient.Do(req)
	tr.StageSince(obs.StageShip, shipStart)
	if err != nil {
		respond(tr, w, http.StatusBadGateway, errorBody("target_unreachable",
			fmt.Sprintf("shipping stream %q to %s: %v", key, target, err),
			map[string]any{"target": target}))
		return
	}
	defer resp.Body.Close()
	rbody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		respond(tr, w, http.StatusBadGateway, errorBody("handoff_rejected",
			fmt.Sprintf("target %s answered %d: %s", target, resp.StatusCode, strings.TrimSpace(string(rbody))),
			map[string]any{"target": target, "targetStatus": resp.StatusCode}))
		return
	}

	// The target owns the stream now. The moved marker goes first: a
	// request that passed movedGuard and acquires the key after the
	// removal meets it in getOrCreate instead of recreating an empty
	// stream here. The tombstone is DELETE's, with its crash-safe
	// ordering: journal it, make it durable, only then unlink the
	// checkpoint file — so a crash at any point leaves either a tombstone
	// that finishes the job on replay, or the untouched pre-handoff state
	// it supersedes; never a WAL tail that could resurrect a partial copy
	// of a moved stream.
	commitStart := time.Now()
	s.reg.moved.Store(key, target)
	jerr := s.tombstone(e)
	success = true
	tr.StageSince(obs.StageCommit, commitStart)
	s.metrics.ObserveHandoffOut()
	s.opts.Logger.Info("handoff: stream shipped",
		"key", key, "target", target, "items", st.Ingested, "batches", st.Batches,
		"tailRecords", len(tail), "trace", tr.TraceID())
	body := map[string]any{
		"key":         key,
		"target":      target,
		"handedOff":   true,
		"ingested":    st.Ingested,
		"batches":     st.Batches,
		"tailRecords": len(tail),
	}
	if jerr != nil {
		// The move itself succeeded — the target owns the stream and
		// failing the response would desynchronize routers — but part of
		// the source-side cleanup did not; surface it rather than hide it.
		body["sourceCleanup"] = jerr.Error()
	}
	respond(tr, w, http.StatusOK, body)
}

// handleAdopt is the target side of a stream migration: rebuild the
// envelope's stream, then install it (installAdopted).
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	key, ok := streamKey(w, r)
	if !ok {
		return
	}
	tr := s.opts.Trace.StartFromRequest(r, obs.KindAdopt, key)
	restoreStart := time.Now()
	var env handoffEnvelope
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAdoptBytes))
	if err == nil {
		err = json.Unmarshal(data, &env)
	}
	var e *entry
	if err == nil {
		// Source LSNs were stripped at export: the tail applies in slice
		// order.
		tail := func(uint64) ([]wal.Record, error) {
			recs := make([]wal.Record, len(env.Tail))
			for i, wr := range env.Tail {
				recs[i] = wr.toRecord(key)
			}
			return recs, nil
		}
		e, err = s.rebuild(key, env.State, tail, tr, restoreStart, obs.StageRestore, obs.StageReplay)
	}
	if err == nil {
		err = s.installAdopted(e, tr)
	}
	if err != nil {
		status, code, extra := s.adoptFailure(err, env)
		respond(tr, w, status, errorBody(code, err.Error(), extra))
		return
	}
	s.reg.moved.Delete(key)
	s.metrics.ObserveHandoffIn()
	// Adoption added a resident stream outside the create path; trim
	// promptly if it pushed the node over its resident bound.
	s.maybeKickHibernator()
	pending, ingested, batches := e.counters()
	s.opts.Logger.Info("adopt: stream adopted",
		"key", key, "from", env.From, "items", ingested, "batches", batches,
		"tailRecords", len(env.Tail), "trace", tr.TraceID())
	respond(tr, w, http.StatusOK, map[string]any{
		"key":          key,
		"adopted":      true,
		"from":         env.From,
		"pending":      pending,
		"ingested":     ingested,
		"batches":      batches,
		"tailReplayed": len(env.Tail),
	})
}

// errAdoptPersist marks an adoption refused because its checkpoint could
// not be written.
var errAdoptPersist = errors.New("persisting the adopted stream failed")

// installAdopted installs a rebuilt adopted entry: it rebases the LSNs,
// captures the state, inserts the entry frozen, persists it and only
// then attaches the local WAL. On failure nothing stays installed.
func (s *Server) installAdopted(e *entry, tr *obs.Trace) error {
	// Rebase the LSN bookkeeping into this node's WAL space: everything
	// adopted is captured in the entry state, not in the local log, so
	// boot replay must skip every local record at or below this point —
	// including any records a previous tenancy of the same key left
	// behind, whose tombstone this rebase also neutralizes.
	e.walLSN = s.lastLSN()
	e.durableLSN = e.walLSN
	e.dirty = true
	// Insert frozen: the entry is visible (and readable) immediately, but
	// mutations stay rejected until the adopted state is durable below —
	// an acknowledged write before that could be lost by a crash, with
	// the source's copy already tombstoned.
	e.migrating = true
	persistStart := time.Now()
	dir := s.opts.CheckpointDir
	var st checkpointState
	if dir != "" {
		// Capture the way a checkpoint pass does, before the insert shows
		// the entry to one: the capture clears the dirty flag and marks
		// the write in flight, and endWrite records the file durable, so
		// the next pass does not rewrite it.
		var err error
		if st, _, err = e.checkpoint(); err != nil {
			return fmt.Errorf("%w: %v", errAdoptPersist, err)
		}
	}
	if err := s.reg.insertRestored(e); err != nil {
		return err
	}
	if dir != "" {
		err := writeCheckpointFile(dir, st)
		e.endWrite(st.WalLSN, err)
		if err != nil {
			// Refuse the adoption: the source still owns the stream (it
			// only tombstones on 200), so dropping the half-adopted entry
			// is safe — it was frozen, nothing was acknowledged.
			s.reg.remove(e.key)
			return fmt.Errorf("%w: %v", errAdoptPersist, err)
		}
	}
	// Durable: attach the local WAL and open for business.
	e.mu.Lock()
	e.wal = s.wal
	e.migrating = false
	e.mu.Unlock()
	tr.StageSince(obs.StagePersist, persistStart)
	return nil
}

// adoptFailure is adoption's error classifier. It counts every failed
// adoption once, in the handoff error counter the source side shares.
func (s *Server) adoptFailure(err error, env handoffEnvelope) (status int, code string, extra map[string]any) {
	s.metrics.ObserveHandoffError()
	switch {
	case errors.Is(err, errSchemeMismatch):
		return http.StatusConflict, "scheme_mismatch",
			map[string]any{"envelopeScheme": env.State.Snapshot.Scheme, "nodeScheme": s.scheme}
	case errors.Is(err, errStreamExists):
		return http.StatusConflict, "stream_exists", nil
	case errors.Is(err, errAdoptPersist):
		return http.StatusServiceUnavailable, "adopt_persist_failed", nil
	case errors.As(err, new(*http.MaxBytesError)):
		return s.ingestFailure(err)
	}
	return http.StatusBadRequest, "bad_envelope", nil
}
