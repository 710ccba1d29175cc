package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// This file wires the write-ahead log through the server: journaling
// happens inside the entry's critical sections (registry.go), this file
// owns recovery (replaying the WAL tail on top of the newest snapshots),
// compaction (truncating segments a completed checkpoint pass made
// redundant), and the ack-side durability wait.
//
// The division of labor with the checkpointer:
//
//	WAL        every acknowledged operation, fsynced (group commit)
//	           before the acknowledgement — bounds crash loss to the
//	           last un-fsynced group
//	snapshot   periodic full-state compaction — bounds replay time and
//	           lets the WAL be truncated
//
// so recovery = newest snapshot per stream + the WAL records after its
// WalLSN, applied in LSN order.

// syncWAL blocks until lsn is durable (no-op when journaling is off or
// the operation journaled nothing). Handlers call it immediately before
// writing a success response: the acknowledgement is the durability
// boundary. A failure wraps errJournalFailed, so every caller answers it
// 500 wal_unavailable.
func (s *Server) syncWAL(lsn uint64) error {
	if s.wal == nil || lsn == 0 {
		return nil
	}
	if err := s.wal.Sync(lsn); err != nil {
		return fmt.Errorf("%w: sync: %w", errJournalFailed, err)
	}
	return nil
}

// lastLSN is the LSN of the newest record in the log (0 without one).
func (s *Server) lastLSN() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.LastLSN()
}

// noteJournalErr surfaces a boundary-journaling failure. The first real
// error is worth a log line; the ErrPoisoned fast-fails that follow are
// already counted by the log's stats and would only spam.
func (s *Server) noteJournalErr(err error) {
	if err != nil && !errors.Is(err, wal.ErrPoisoned) {
		s.opts.Logger.Error("wal: journal batch boundary failed (journaling stops; checkpointer remains the durability backstop)", "err", err)
	}
}

// compactWAL truncates segments every stream has durably checkpointed
// past. Driven by checkpointAll after each pass; a stream that has never
// been checkpointed (durableLSN 0) pins the whole log until its first
// pass, which is exactly the conservative choice.
//
// A fully-durable stream — its snapshot covers its newest journaled
// record (durableLSN ≥ walLSN) — is excluded from the watermark: no live
// record of it exists above ANY truncation point, so its (possibly
// ancient) durable LSN must not pin the log. Without this exclusion an
// idle long-durable tenant pins every later tenant's traffic forever,
// and every TailForKey (a handoff export, or the hydration of a stub
// that journaled past its checkpoint) scans whatever the log retains.
func (s *Server) compactWAL() {
	if s.wal == nil {
		return
	}
	min := s.wal.LastLSN() // no streams at all ⇒ everything is compactable
	for _, e := range s.reg.all() {
		e.mu.Lock()
		d, w := e.durableLSN, e.walLSN
		e.mu.Unlock()
		if d >= w {
			continue
		}
		if d < min {
			min = d
		}
	}
	removed, err := s.wal.TruncateBefore(min + 1)
	if err != nil {
		s.opts.Logger.Error("wal: truncate failed", "err", err)
	} else if removed > 0 {
		s.opts.Logger.Info("wal: compacted sealed segments", "segments", removed, "belowLSN", min+1)
	}
}

// replayWAL applies the WAL tail on top of the snapshot-restored
// registry. Per-stream, records at or below the stream's checkpointed
// WalLSN are already reflected in its snapshot and are skipped; everything
// after is re-applied in LSN order, reproducing the pre-crash process
// exactly (boundaries re-run the full model step, so retrain decisions
// and deployed models are recomputed rather than trusted).
//
// A record that names a stub lazy boot registered restores the stub's
// file first, so its WalLSN is known before the record is compared with
// it. That is boot work: a failure is classified as boot's (quarantine),
// and it counts no hydration. Every stream the log names is therefore
// resident after replay, and every stub left has no record in the log.
func (s *Server) replayWAL(b *bootTally) (int, error) {
	replayed := 0
	err := s.wal.Replay(func(r wal.Record) error {
		if r.Type == wal.TypeRetrainSwap || r.Type == wal.TypeSampleRead {
			// Older logs hold these. Replaying a boundary recomputes its
			// swap, a read changes no state, and a record that landed
			// after its stream's tombstone must not recreate the stream
			// below.
			return nil
		}
		e := s.reg.lookup(r.Key)
		if e != nil && e.hibernated.Load() {
			name := checkpointFileName(r.Key)
			if err := s.restoreOne(name, r.Key, e); err != nil {
				if err := s.quarantine(name, err, b); err != nil {
					return err
				}
				// The file is aside: rebuild the stream from its records
				// alone, as when boot quarantines a file it reads in full.
				s.reg.remove(r.Key)
				b.restored--
				e = nil
			}
		}
		if e != nil && r.LSN <= e.journaledLSN() {
			return nil
		}
		if r.Type == wal.TypeStreamDelete {
			// The checkpoint file normally died with the DELETE request; a
			// crash between the journal write and the unlink leaves it
			// behind, and this replay finishes the job. The entry's wal is
			// still nil, so nothing is re-journaled.
			replayed++
			if e == nil {
				return s.removeCheckpointFile(r.Key)
			}
			return s.tombstone(e)
		}
		if e == nil {
			var err error
			if e, err = s.reg.createForReplay(r.Key); err != nil {
				return fmt.Errorf("server: wal replay, stream %q: %w", r.Key, err)
			}
		}
		if err := s.applyReplayRecord(e, r); err != nil {
			return err
		}
		replayed++
		return nil
	})
	return replayed, err
}

// applyReplayRecord applies one non-delete WAL record to an entry. Shared
// by boot-time replay and by stream adoption (the migration envelope's
// WAL tail replays through the same code, against an entry whose wal is
// still nil so nothing is re-journaled). The record types older logs
// hold and that change no state, retrain swaps and sample reads, only
// move the entry's LSN.
func (s *Server) applyReplayRecord(e *entry, r wal.Record) error {
	switch r.Type {
	case wal.TypeItemAppend:
		e.replayAppend(r.Items)
	case wal.TypeBatchBoundary:
		e.advance()
	case wal.TypeModelAttach:
		var spec ModelSpec
		if err := json.Unmarshal(r.Data, &spec); err != nil {
			return fmt.Errorf("server: wal replay, model attach for %q: %w", r.Key, err)
		}
		if err := spec.normalize(); err != nil {
			return fmt.Errorf("server: wal replay, model attach for %q: %w", r.Key, err)
		}
		mm, err := newManagedModel(spec, e.sampler, s.runBackground, s.metrics)
		if err != nil {
			return fmt.Errorf("server: wal replay, model attach for %q: %w", r.Key, err)
		}
		if _, err := e.attachModel(mm); err != nil {
			return err
		}
	case wal.TypeModelDetach:
		if _, _, err := e.detachModel(); err != nil {
			return err
		}
	}
	e.setWalLSN(r.LSN)
	return nil
}

// deleteStream removes a stream end to end: the registry entry, its
// checkpoint file, and (via a journaled tombstone) its WAL history, so a
// restart cannot resurrect the tenant. Serialized against checkpoint
// passes by ckptMu — otherwise an in-flight pass could rewrite the
// checkpoint file after the unlink. Returns false when the stream does
// not exist.
//
// A stream frozen for a migration is refused with errStreamMigrating, as
// every other mutation is. Only an adoption can hold that freeze here:
// a source-side handoff holds ckptMu for its whole length. The adopted
// entry journals nothing until its checkpoint file is written, so a
// tombstone then would be lost and the write would recreate the file.
func (s *Server) deleteStream(key string) (bool, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	e := s.reg.lookup(key)
	if e == nil {
		return false, nil
	}
	e.mu.Lock()
	frozen := e.migrating
	e.mu.Unlock()
	if frozen {
		return true, errStreamMigrating
	}
	// Drain queued boundaries first so no engine task is mid-apply while
	// the stream disappears (applies to a detached entry are harmless but
	// would waste sampler work).
	s.flushStream(e)
	return true, s.tombstone(e)
}

// tombstone ends a stream here: a DELETE, a completed handoff, or the
// replay of either. The tombstone is journaled under the entry lock: any
// append that wins the race lands before it (and is dropped by replay);
// any append that loses sees deleted and fails with 404. A journaling
// failure does not abort the removal — the entry and checkpoint file
// still go — but it is surfaced, because a poisoned log plus a crash
// before the next checkpoint pass could resurrect other streams' tails
// without this tombstone. While serving, the caller holds ckptMu.
func (s *Server) tombstone(e *entry) error {
	var lsn uint64
	var jerr error
	e.mu.Lock()
	e.deleted = true
	if e.wal != nil {
		if lsn, jerr = e.wal.AppendRecord(wal.TypeStreamDelete, e.key, nil); jerr != nil {
			jerr = fmt.Errorf("journal stream tombstone: %w", jerr)
		}
	}
	e.mu.Unlock()
	s.reg.remove(e.key)

	// Make the tombstone durable BEFORE unlinking the checkpoint file: if
	// the process dies in between, replay finishes the unlink; the other
	// order could leave neither snapshot nor tombstone and resurrect a
	// partial stream from the surviving WAL records.
	return errors.Join(jerr, s.syncWAL(lsn), s.removeCheckpointFile(e.key))
}

// removeCheckpointFile unlinks a stream's checkpoint file, if any.
func (s *Server) removeCheckpointFile(key string) error {
	if dir := s.opts.CheckpointDir; dir != "" {
		if err := os.Remove(filepath.Join(dir, checkpointFileName(key))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}
