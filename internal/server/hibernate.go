package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Memory tiering: streams the server has seen but nobody is touching do
// not need their sampler, open batch and model bytes in memory — PR 5's
// checkpoint+WAL-replay machinery can rebuild all of it from disk. This
// file turns that recovery path into a steady-state tier:
//
//   - a background hibernator (runHibernator) sweeps the registry and
//     evicts idle entries down to stubs: the entry object stays in the
//     registry (so 421/tombstone/cap semantics are untouched) but holds
//     only the key and its WAL positions; the full state lives in the
//     stream's checkpoint file, written at eviction if stale
//   - any request touching a cold key rehydrates it lazily
//     (ensureResident → hydrate): read the checkpoint file and the WAL
//     tail past its WalLSN, rebuild both through boot's restore routine
//     (rebuild), and install the state back into the stub — exactly the
//     crash-recovery path, so a hydrated stream resumes the identical
//     stochastic process
//   - boot makes stubs too (restoreSnapshots): with tiering on, it
//     registers every checkpoint file as a stub without reading it,
//     restores in full one file (the scheme check) and the streams WAL
//     replay names, and leaves the rest to their first cold hit, so a
//     stub's file is validated there, not at boot
//
// Victim selection is LRU over a per-entry touch clock (entry.lastTouch,
// stamped by every pin) with two triggers: a resident-count bound
// (Options.MaxResident, kicked eagerly when creation/hydration crosses
// it) and an idle deadline (Options.IdleAfter). Pinned, migrating,
// deleted and queued-batch entries are never evicted; the pin/fence
// ordering in hibernateEntry makes the lock-free handler fast path safe.
//
// A hibernated stream's decay clock pauses: the wall-clock ticker skips
// stubs, so batch-time advances only while the stream is resident.
// Explicit /advance (like every other request) rehydrates first and then
// moves the clock as usual.

// errHydrateFailed marks a request rejected because the stream's
// hibernated state could not be rebuilt from disk; handlers map it
// to 500.
var errHydrateFailed = errors.New("stream hydration failed")

// hydration is one in-flight cold-miss rebuild. The request that created
// it runs hydrate; every other request touching the key waits on done
// and then shares the outcome.
type hydration struct {
	done chan struct{}
	err  error
}

// tieringEnabled reports whether the hibernator runs at all. When false,
// no entry can ever become hibernated, so ensureResident's lock-free
// fast path is the only per-request overhead.
func (s *Server) tieringEnabled() bool {
	return s.opts.MaxResident > 0 || s.opts.IdleAfter > 0
}

// acquireStream resolves (creating if needed) and pins the stream's
// entry, hydrating it first when hibernated. On success the entry is
// pinned — the caller must e.unpin() when the request is done with it.
func (s *Server) acquireStream(key string) (*entry, error) {
	e, err := s.reg.getOrCreate(key)
	if err != nil {
		return nil, err
	}
	e.pin()
	if err := s.ensureResident(e); err != nil {
		e.unpin()
		return nil, err
	}
	s.maybeKickHibernator()
	return e, nil
}

// acquireExisting is acquireStream for paths that must not create the
// stream: a nil entry with nil error means the key does not exist here.
func (s *Server) acquireExisting(key string) (*entry, error) {
	e := s.reg.lookup(key)
	if e == nil {
		return nil, nil
	}
	e.pin()
	if err := s.ensureResident(e); err != nil {
		e.unpin()
		return nil, err
	}
	return e, nil
}

// ensureResident makes a pinned entry resident, rebuilding it from its
// checkpoint (plus WAL tail) when hibernated. Exactly one cold hit runs
// the hydration; concurrent ones wait for it. The caller MUST already
// hold a pin — the pin is what guarantees the entry stays resident
// after this returns (hibernateEntry never evicts a pinned entry).
func (s *Server) ensureResident(e *entry) error {
	if !e.hibernated.Load() {
		// Lock-free warm path. The pin taken before this check fences
		// against a concurrent eviction: hibernateEntry publishes
		// hibernated=true before reading pins, so if this load saw false,
		// the evictor's read sees our pin and rolls back.
		return nil
	}
	for {
		e.mu.Lock()
		if e.deleted {
			e.mu.Unlock()
			return errStreamDeleted
		}
		if !e.hibernated.Load() {
			e.mu.Unlock()
			return nil
		}
		if e.hyd == nil {
			h := &hydration{done: make(chan struct{})}
			e.hyd = h
			e.mu.Unlock()
			h.err = s.hydrate(e)
			close(h.done)
			return h.err
		}
		h := e.hyd
		e.mu.Unlock()
		<-h.done
		if h.err != nil {
			return h.err
		}
		// Loop: re-check under the lock. The waiter holds a pin, so the
		// entry cannot have re-hibernated; the loop only defends against
		// exotic interleavings.
	}
}

// hydrate rebuilds a hibernated entry from its checkpoint file and the
// WAL records past the file's WalLSN — the boot-restore path, run for
// one stream on demand. It reads the log only when the stub's walLSN lies
// past that WalLSN. Called by the single request that claimed the
// entry's hydration slot; it clears e.hyd in every outcome. Every
// failure is classified 500 hydrate_failed (errHydrateFailed), and the
// stub stays intact for a retry.
func (s *Server) hydrate(e *entry) (err error) {
	start := time.Now()
	tr := s.opts.Trace.Start(obs.KindHydrate, e.key)
	defer func() {
		s.metrics.ObserveHydration(time.Since(start), err)
		status := 200
		if err != nil {
			status = 500
		}
		tr.Finish(status)
	}()
	readStart := time.Now()
	st, err := readCheckpointFile(filepath.Join(s.opts.CheckpointDir, checkpointFileName(e.key)))
	tr.StageSince(obs.StageReadCkpt, readStart)
	var tail func(uint64) ([]wal.Record, error)
	if s.wal != nil {
		stubLSN := e.journaledLSN()
		tail = func(lsn uint64) ([]wal.Record, error) {
			if stubLSN <= lsn {
				// The file covers the stub's newest record, so the key has
				// no tail. Eviction writes a dirty entry's file and waits
				// out a checkpoint pass's write, and a stub lazy boot left
				// has no record in the log (walLSN 0: replay restored
				// every stream the log names), so every stub takes this
				// path; the tail read keeps the skip exact should a
				// later change make stubs with tails.
				return nil, nil
			}
			return s.wal.TailForKey(e.key, lsn)
		}
	}
	// Rebuild on a scratch entry, outside e.mu: the queued-boundary and
	// tail replays re-run full model steps, none of which may hold the
	// stub's lock.
	var scratch *entry
	if err == nil {
		scratch, err = s.rebuild(e.key, st, tail, tr, time.Now(), obs.StageHydrateRestore, obs.StageHydrateReplay)
	}
	installStart := time.Now()
	e.mu.Lock()
	e.hyd = nil
	if err != nil {
		e.mu.Unlock()
		return fmt.Errorf("%w: stream %q: %v", errHydrateFailed, e.key, err)
	}
	if e.deleted {
		// Lost a race with DELETE: the tombstone wins, the rebuilt state
		// is discarded, and the caller observes the deletion.
		e.mu.Unlock()
		return errStreamDeleted
	}
	s.reg.fillStubLocked(e, scratch)
	e.mu.Unlock()
	tr.StageSince(obs.StageInstall, installStart)
	s.maybeKickHibernator()
	return nil
}

// hibernateEntry evicts one entry down to a stub, persisting its state
// first if the checkpoint file is stale (or missing). Returns false with
// no error when the entry is not evictable right now (pinned, frozen,
// deleted, batches still queued, a checkpoint pass's write in flight).
// The whole eviction holds e.mu, so no capture-then-evict gap exists for
// a mutation to slip into; the victim is idle by selection, so the hold
// is uncontended.
func (s *Server) hibernateEntry(e *entry) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hibernated.Load() || e.deleted || e.migrating || e.writing || len(e.queued) > 0 {
		return false, nil
	}
	// Fence against the lock-free handler fast path: publish
	// hibernated=true BEFORE reading pins. A handler pins and then checks
	// hibernated; in the seq-cst interleaving where it read false, its
	// pin is visible to the read below and the eviction rolls back — so
	// no handler ever uses a sampler this eviction is about to drop.
	e.hibernated.Store(true)
	if e.pins.Load() != 0 {
		e.hibernated.Store(false)
		return false, nil
	}
	if e.dirty || !e.persisted {
		st, err := e.stateLocked()
		if err == nil {
			err = writeCheckpointFile(s.opts.CheckpointDir, st)
		}
		if err != nil {
			e.hibernated.Store(false)
			return false, err
		}
		e.dirty = false
		e.persisted = true
		e.durableLSN = max(e.durableLSN, st.WalLSN)
	}
	e.sampler = nil
	e.pending = nil
	e.queued = nil
	e.model.Store(nil)
	s.reg.resident.Add(-1)
	s.metrics.ObserveHibernation()
	return true, nil
}

// hibernatePass runs one sweep: collect resident entries with their
// touch clocks (lock-free except the shard read locks), then evict from
// least-recently-used upward until the resident count fits MaxResident
// and no entry has been idle past IdleAfter. Passes are serialized by
// hibMu (see the field comment).
func (s *Server) hibernatePass(now time.Time) (evicted int, firstErr error) {
	s.hibMu.Lock()
	defer s.hibMu.Unlock()
	type cand struct {
		e     *entry
		touch int64
	}
	var cands []cand
	for _, sh := range s.reg.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			if e.hibernated.Load() {
				continue
			}
			cands = append(cands, cand{e, e.lastTouch.Load()})
		}
		sh.mu.RUnlock()
	}
	over := 0
	if s.opts.MaxResident > 0 {
		over = len(cands) - s.opts.MaxResident
	}
	var idleCut int64
	if s.opts.IdleAfter > 0 {
		idleCut = now.Add(-s.opts.IdleAfter).UnixNano()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	for _, c := range cands {
		// A zero touch clock (restored at boot, never pinned since) sorts
		// oldest and counts as idle. Boot leaves resident only the
		// streams the WAL named and the one that checked the scheme;
		// after a kill those may exceed MaxResident, and the first sweeps
		// trim them.
		idle := idleCut != 0 && c.touch < idleCut
		if over <= 0 && !idle {
			break // ascending order: every later candidate is fresher
		}
		ok, err := s.hibernateEntry(c.e)
		if err != nil {
			s.metrics.ObserveHibernationError()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			evicted++
			over--
		}
	}
	return evicted, firstErr
}

// maybeKickHibernator nudges the hibernator when the resident count has
// crossed the bound, so a creation burst is trimmed promptly instead of
// waiting out the sweep interval. Non-blocking; coalesces into the
// buffered kick slot.
func (s *Server) maybeKickHibernator() {
	if s.opts.MaxResident <= 0 || s.hibKick == nil {
		return
	}
	if int(s.reg.resident.Load()) > s.opts.MaxResident {
		select {
		case s.hibKick <- struct{}{}:
		default:
		}
	}
}

// runHibernator is the background sweep loop, started by Start when
// memory tiering is configured.
func (s *Server) runHibernator() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.HibernateInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.hibKick:
		case <-t.C:
		}
		n, err := s.hibernatePass(time.Now())
		if err != nil {
			s.opts.Logger.Error("hibernate: pass failed", "err", err)
		}
		if n > 0 {
			s.opts.Logger.Debug("hibernate: evicted idle streams",
				"evicted", n, "resident", s.reg.resident.Load())
		}
	}
}

// HibernatePass runs one hibernation sweep immediately under the
// configured MaxResident/IdleAfter policy and reports how many streams
// were evicted. Deterministic hook for tests, tooling and benchmarks;
// the background hibernator calls the same sweep.
func (s *Server) HibernatePass() (int, error) { return s.hibernatePass(time.Now()) }

// ResidentStreams reports how many streams currently hold their state in
// memory (total streams minus hibernated stubs).
func (s *Server) ResidentStreams() int { return int(s.reg.resident.Load()) }
