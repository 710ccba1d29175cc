package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Model API:
//
//	PUT    /v1/streams/{key}/model          attach (or replace) a managed model
//	GET    /v1/streams/{key}/model          spec + stats
//	DELETE /v1/streams/{key}/model          detach
//	POST   /v1/streams/{key}/model/predict  predict with the deployed model
//	GET    /v1/streams/{key}/model/stats    batch error, retrains, staleness, policy state
//
// Predict is lock-free against retraining: it reads the deployed model
// through an atomic pointer, so a train on the background lane never
// stalls serving. Stats (and checkpoints) instead wait for an in-flight
// retrain — they are the deterministic read points.

// handleModelAttach installs a managed model on the stream, creating the
// stream if needed. Re-attaching replaces the model and resets its policy
// clock and counters.
//
//tbs:walbeforeack
func (s *Server) handleModelAttach(w http.ResponseWriter, r *http.Request) {
	key, ok := streamKey(w, r)
	if !ok || s.movedGuard(w, key) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(nil, w, err)
		return
	}
	var spec ModelSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody("bad_model_spec", err.Error(), nil))
		return
	}
	if err := spec.normalize(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody("bad_model_spec", err.Error(), nil))
		return
	}
	e, err := s.acquireStream(key)
	if err != nil {
		s.fail(nil, w, err)
		return
	}
	defer e.unpin()
	mm, err := newManagedModel(spec, s.runBackground, s.metrics)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody("bad_model_spec", err.Error(), nil))
		return
	}
	mm.onSwap = e.journalSwapRecord
	lsn, err := e.attachModel(mm)
	if err == nil {
		err = s.syncWAL(lsn)
	}
	if err != nil {
		s.fail(nil, w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "attached": true, "spec": spec})
}

// modelFor resolves the stream and its managed model, writing the error
// response when either is missing. On ok the returned entry is pinned
// (and hydrated if it was hibernated) — the caller must e.unpin(); on
// !ok no pin is held.
func (s *Server) modelFor(w http.ResponseWriter, r *http.Request) (*entry, *managedModel, bool) {
	e, ok := s.existingStream(w, r)
	if !ok {
		return nil, nil, false
	}
	mm := e.model.Load()
	if mm == nil {
		e.unpin()
		writeJSON(w, http.StatusNotFound,
			errorBody("no_model", fmt.Sprintf("stream %q has no model attached", e.key), nil))
		return nil, nil, false
	}
	return e, mm, true
}

// handleModelGet reports the spec and stats of the attached model.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	e, mm, ok := s.modelFor(w, r)
	if !ok {
		return
	}
	defer e.unpin()
	s.flushStream(e)
	writeJSON(w, http.StatusOK, map[string]any{"key": e.key, "spec": mm.spec, "stats": mm.stats()})
}

// handleModelDetach removes the stream's managed model.
//
//tbs:walbeforeack
func (s *Server) handleModelDetach(w http.ResponseWriter, r *http.Request) {
	e, ok := s.existingStream(w, r)
	if !ok {
		return
	}
	defer e.unpin()
	had, lsn, err := e.detachModel()
	if err == nil {
		err = s.syncWAL(lsn)
	}
	if err != nil {
		s.fail(nil, w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": e.key, "detached": had})
}

// handleModelStats reports the model's observable state. It applies
// queued batch boundaries first and waits for any in-flight retrain, so
// the numbers are the deterministic state after every acknowledged
// boundary — the read the kill+restart e2e compares across a restart.
func (s *Server) handleModelStats(w http.ResponseWriter, r *http.Request) {
	e, mm, ok := s.modelFor(w, r)
	if !ok {
		return
	}
	defer e.unpin()
	s.flushStream(e)
	st := mm.stats()
	writeJSON(w, http.StatusOK, map[string]any{"key": e.key, "stats": st})
}

// predictRequest is the decoded body of POST …/model/predict: one
// {"x":[...]} object or an array of them.
type predictRequest struct {
	rows [][]float64
}

func decodePredict(r *http.Request, w http.ResponseWriter) (predictRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return predictRequest{}, err
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var bulk []labeledRow
		if err := json.Unmarshal(body, &bulk); err != nil {
			return predictRequest{}, err
		}
		rows := make([][]float64, len(bulk))
		for i, q := range bulk {
			if len(q.X) == 0 {
				return predictRequest{}, fmt.Errorf("query %d is missing x", i)
			}
			rows[i] = q.X
		}
		return predictRequest{rows: rows}, nil
	}
	var q labeledRow
	if err := json.Unmarshal(body, &q); err != nil {
		return predictRequest{}, err
	}
	if len(q.X) == 0 {
		return predictRequest{}, errors.New("query is missing x")
	}
	return predictRequest{rows: [][]float64{q.X}}, nil
}

// handleModelPredict serves predictions from the deployed model. The
// model pointer is read atomically, so predictions keep flowing at full
// speed while a replacement trains on the background lane — the staleness
// window is bounded by the next batch boundary, which waits for the swap.
func (s *Server) handleModelPredict(w http.ResponseWriter, r *http.Request) {
	e, mm, ok := s.modelFor(w, r)
	if !ok {
		return
	}
	defer e.unpin()
	req, err := decodePredict(r, w)
	if err != nil {
		s.fail(nil, w, err)
		return
	}
	d := mm.deployed.Load()
	if d == nil {
		writeJSON(w, http.StatusConflict, errorBody("model_not_trained",
			"no model deployed yet: ingest labeled items and advance the stream", nil))
		return
	}
	preds := make([]float64, len(req.rows))
	for i, x := range req.rows {
		preds[i] = d.predict(x)
	}
	s.metrics.ObservePredictions(len(preds))
	writeJSON(w, http.StatusOK, map[string]any{
		"key":         e.key,
		"learner":     mm.spec.Learner,
		"trainSize":   d.trainSize,
		"predictions": preds,
	})
}
