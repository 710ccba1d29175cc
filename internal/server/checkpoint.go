package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/tbs"
)

// checkpointState is the on-disk record for one stream: the sampler's
// snapshot envelope plus the open batch and counters, so a restored stream
// resumes the exact stochastic process — items ingested but not yet
// advanced survive the restart too.
type checkpointState struct {
	Key      string       `json:"key"`
	Snapshot tbs.Snapshot `json:"snapshot"`
	Pending  []Item       `json:"pending,omitempty"`
	Queued   [][]Item     `json:"queued,omitempty"` // closed boundaries not yet applied; replayed on restore
	Ingested uint64       `json:"ingested"`
	Batches  uint64       `json:"batches"`
	// Model carries the stream's managed-model state (spec, policy state,
	// counters, gob-encoded deployed model) when one is attached, so a
	// restart serves the same predictions under the same policy clock.
	Model *modelCheckpoint `json:"model,omitempty"`
	// WalLSN is the LSN of the last WAL record reflected in this
	// snapshot; recovery replays only the records after it, and WAL
	// compaction may drop segments wholly below the minimum WalLSN
	// durably checkpointed across streams.
	WalLSN uint64 `json:"walLSN,omitempty"`
}

const checkpointSuffix = ".ckpt.json"

// checkpointFileName maps a stream key to a filesystem-safe file name.
// Base64url keeps arbitrary keys (slashes, dots, unicode) collision-free
// and reversible.
func checkpointFileName(key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key)) + checkpointSuffix
}

// keyFromFileName inverts checkpointFileName; ok is false for foreign
// files in the checkpoint directory.
func keyFromFileName(name string) (string, bool) {
	enc, found := strings.CutSuffix(name, checkpointSuffix)
	if !found {
		return "", false
	}
	raw, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return "", false
	}
	return string(raw), true
}

// writeCheckpointFile persists one stream state atomically.
func writeCheckpointFile(dir string, st checkpointState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("server: checkpoint %q: %w", st.Key, err)
	}
	return atomicfile.WriteFile(filepath.Join(dir, checkpointFileName(st.Key)), data, 0o644)
}

// checkpointAll persists every stream. It is driven by the background
// checkpointer, by Stop, and is safe to call concurrently with request
// traffic: each entry is captured under its own lock at some point during
// the pass (per-stream consistency, not a global cut — the same guarantee
// the paper's per-sampler checkpointing gives). Passes themselves are
// serialized by ckptMu, so Stop's final pass cannot interleave with a
// straggling background pass and have its fresh files overwritten by
// stale ones — the final pass simply runs after the straggler finishes.
func (s *Server) checkpointAll() error {
	if s.opts.CheckpointDir == "" {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()
	entries := s.reg.all()
	var firstErr error
	written := 0
	for _, e := range entries {
		if e.hibernated.Load() {
			// A stub's entire state is already its checkpoint file; there is
			// nothing in memory to capture (and flushing would be a no-op).
			continue
		}
		// Apply the stream's queued batches first, so the captured snapshot
		// never reflects a closed-but-unapplied boundary (the batch items
		// would be in neither the pending list nor the sampler state).
		s.flushStream(e)
		st, wasDirty, err := e.checkpoint()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !wasDirty {
			// The previous checkpoint file is still current; skip the
			// write so idle tenants cost nothing per pass.
			continue
		}
		err = writeCheckpointFile(s.opts.CheckpointDir, st)
		e.endWrite(st.WalLSN, err)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		written++
	}
	s.metrics.ObserveCheckpoint(written, time.Since(start), firstErr)
	// A completed pass is the WAL's compaction step: everything below the
	// minimum durably-checkpointed LSN is now redundant with snapshots.
	s.compactWAL()
	return firstErr
}

// CheckpointNow runs one full checkpoint pass (and the WAL compaction
// that follows it) immediately, in the caller's goroutine. Deterministic
// hook for tests, tooling and benchmarks; the background checkpointer
// drives the same pass on its interval.
func (s *Server) CheckpointNow() error { return s.checkpointAll() }

// restoreAll drives boot-time recovery: load the checkpoint directory
// (in full, or as stubs with tiering on), then replay the WAL tail on
// top, converging to the exact pre-crash state (samplers, open batches,
// policy clocks, deployed model bytes). It returns how many streams boot
// brought back from their files, stubs included.
func (s *Server) restoreAll() (int, error) {
	var b bootTally
	if err := s.restoreSnapshots(&b); err != nil {
		return b.restored, err
	}
	if s.wal != nil {
		replayed, err := s.replayWAL(&b)
		s.metrics.SetWALReplayed(replayed)
		if err != nil {
			return b.restored, err
		}
		if replayed > 0 {
			s.opts.Logger.Info("wal: replayed records on top of snapshots", "records", replayed, "snapshots", b.restored)
		}
		// Replayed boundaries may have dispatched retrains to the
		// background lane; wait them out so journaling can be enabled
		// without racing a trainer, and so the post-boot state is the
		// deterministic post-boundary one.
		for _, e := range s.reg.all() {
			if mm := e.model.Load(); mm != nil {
				mm.waitIdle()
			}
		}
	}
	s.metrics.SetQuarantined(b.quarantined)
	return b.restored, nil
}

// bootTally counts what boot did with the checkpoint directory.
type bootTally struct {
	restored    int // streams brought back from their files, stubs included
	quarantined int // files renamed aside under RestoreQuarantine
}

// restoreSnapshots loads every checkpoint file in the directory into the
// registry. Foreign files are ignored; a corrupt checkpoint is an error
// (silently dropping a tenant's stream would be worse than failing boot)
// unless RestoreQuarantine is set (see quarantine).
//
// With tiering on, boot is lazy: it restores files in full only until one
// succeeds, which checks the directory's scheme against the server's
// (every file in it passed that check in rebuild when it was written, so
// a restart under another scheme still fails here), and registers every
// other file as a hibernated stub from the listing alone. WAL replay then
// restores each stub the log names (replayWAL), and a request restores
// the rest on first touch (hydrate), which is where a corrupt or foreign
// stub file surfaces: as 500 hydrate_failed, not as a failed boot.
func (s *Server) restoreSnapshots(b *bootTally) error {
	dir := s.opts.CheckpointDir
	if dir == "" {
		return nil
	}
	des, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return err
	}
	lazy, checked := s.tieringEnabled(), false
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		key, ok := keyFromFileName(de.Name())
		if !ok {
			continue
		}
		// A stub's file is read by its canonical name, so a file named
		// otherwise (base64 decoding ignores some bits) is read now.
		if lazy && checked && de.Name() == checkpointFileName(key) {
			err = s.reg.insertStub(key)
		} else {
			err = s.restoreOne(de.Name(), key, nil)
			checked = err == nil
		}
		if err == nil {
			b.restored++
			continue
		}
		if err := s.quarantine(de.Name(), err, b); err != nil {
			return err
		}
	}
	return nil
}

// quarantine is boot's answer to a checkpoint file that failed to
// restore. With RestoreQuarantine, a file whose content is at fault
// (restoreStrict) is renamed to *.corrupt and counted, and quarantine
// returns nil; otherwise it returns err, which fails boot.
func (s *Server) quarantine(name string, err error, b *bootTally) error {
	if !s.opts.RestoreQuarantine || restoreStrict(err) {
		return err
	}
	bad := filepath.Join(s.opts.CheckpointDir, name)
	if rerr := os.Rename(bad, bad+".corrupt"); rerr != nil {
		return fmt.Errorf("server: quarantine %s: %v (original error: %w)", name, rerr, err)
	}
	b.quarantined++
	s.opts.Logger.Warn("restore: quarantined corrupt checkpoint", "file", name, "renamedTo", name+".corrupt", "err", err)
	return nil
}

// restoreStrict is boot's error classifier: it marks the restore
// failures -restore-quarantine must NOT paper over. An I/O error says
// nothing about the file's content, a scheme mismatch is a server
// misconfiguration (every tenant would be quarantined), and a duplicate
// stream is not the file's fault either.
func restoreStrict(err error) bool {
	return errors.As(err, new(*fs.PathError)) || errors.Is(err, errSchemeMismatch) || errors.Is(err, errStreamExists)
}

// restoreOne restores a single checkpoint file, with no tail, into a new
// registry entry, or into stub when that is non-nil: a stream that lazy
// boot registered without reading its file, which fills through the same
// step as a hydration.
func (s *Server) restoreOne(name, key string, stub *entry) error {
	st, err := readCheckpointFile(filepath.Join(s.opts.CheckpointDir, name))
	if err == nil {
		var e *entry
		if e, err = s.rebuild(key, st, nil, nil, time.Time{}, 0, 0); err == nil {
			if stub == nil {
				err = s.reg.insertRestored(e)
			} else {
				stub.mu.Lock()
				s.reg.fillStubLocked(stub, e)
				stub.mu.Unlock()
			}
		}
	}
	if err != nil {
		return fmt.Errorf("server: checkpoint file %s: %w", name, err)
	}
	return nil
}

// readCheckpointFile reads and decodes one stream's checkpoint file.
func readCheckpointFile(path string) (st checkpointState, err error) {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// errSchemeMismatch marks saved state sampled under a scheme other than
// the server's: restoring it would silently mix sampling semantics
// across tenants.
var errSchemeMismatch = errors.New("scheme mismatch")

// rebuild turns a stream's saved state — a checkpoint file's, or a
// handoff envelope's — plus the WAL records past it into a live entry.
// It is the one restore routine of boot, hydration and adoption: they
// differ only in where the state and tail come from, how the entry is
// installed and how a failure is classified. The entry's wal is left
// nil, so nothing restored or replayed is re-journaled; the caller
// attaches the log once the entry is installed. tail, when non-nil,
// yields the records past the state's WalLSN. tr, when non-nil, is
// charged once per stage: restoreStage from start (the caller's read of
// the state may come first) through the sampler, model and queued
// boundaries, and replayStage for fetching and applying the tail and the
// wait for any retrain it dispatched.
func (s *Server) rebuild(key string, st checkpointState, tail func(walLSN uint64) ([]wal.Record, error),
	tr *obs.Trace, start time.Time, restoreStage, replayStage int) (*entry, error) {
	if st.Key != key {
		return nil, fmt.Errorf("state names key %q, not %q", st.Key, key)
	}
	if st.Snapshot.Scheme != s.scheme {
		return nil, fmt.Errorf("%w: state holds scheme %q, but the server is configured for %q",
			errSchemeMismatch, st.Snapshot.Scheme, s.scheme)
	}
	// The WAL ends here; a state claiming a higher LSN predates a wiped
	// or foreign log and must not filter real records.
	st.WalLSN = min(st.WalLSN, s.lastLSN())
	sampler, err := tbs.Restore[Item](st.Snapshot)
	if err != nil {
		return nil, err
	}
	cs := tbs.NewConcurrent(sampler)
	e := &entry{
		key:        key,
		sampler:    cs,
		pending:    st.Pending,
		ingested:   st.Ingested,
		batches:    st.Batches,
		walLSN:     st.WalLSN,
		durableLSN: st.WalLSN,
		// Boot restore and hydration read the state from the checkpoint
		// file; adoption persists one before the entry serves. In every
		// case a file backs the entry by the time it could hibernate.
		persisted: true,
	}
	if st.Model != nil {
		mm, err := restoreManagedModel(st.Model, cs, s.runBackground, s.metrics)
		if err != nil {
			return nil, err
		}
		e.model.Store(mm)
	}
	// Replay boundaries that were closed but still queued when the
	// checkpoint was taken: the snapshot's RNG predates them, so
	// applying them in order reproduces the exact stochastic process
	// the pre-capture server was executing. With a model attached the
	// replay runs the full model step — that server had not scored
	// these boundaries yet, so scoring them now is exactly what it
	// would have done next.
	for _, b := range st.Queued {
		if mm := e.model.Load(); mm != nil {
			mm.onBoundary(b, nil)
		} else {
			e.sampler.Advance(b)
		}
		e.batches++
		e.dirty = true // memory is now ahead of the on-disk state
	}
	tr.StageSince(restoreStage, start)
	replayStart := time.Now()
	var recs []wal.Record
	if tail != nil {
		if recs, err = tail(st.WalLSN); err != nil {
			return nil, fmt.Errorf("read tail: %w", err)
		}
	}
	for i, rec := range recs {
		if err := s.applyReplayRecord(e, rec); err != nil {
			return nil, fmt.Errorf("tail record %d: %w", i, err)
		}
	}
	// Quiesce any retrain the replays dispatched before the entry becomes
	// reachable, so its state is the deterministic post-boundary one.
	if mm := e.model.Load(); mm != nil {
		mm.waitIdle()
	}
	tr.StageSince(replayStage, replayStart)
	return e, nil
}
