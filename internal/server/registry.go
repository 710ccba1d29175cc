package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
	"repro/tbs"
)

// batchPool recycles the []Item header arrays that carry items from a
// stream's open batch through the engine into the sampler. A batch array
// is garbage the moment applyBatch folds it in — every sampler copies
// the item references it keeps and never aliases the array, and
// checkpoints deep-copy under the entry lock — yet at fast-path ingest
// rates freshly allocating it dominated the profile: a 5000-item request
// retires a ~120KB pointer array per boundary, and the allocation,
// zeroing and GC marking of those arrays cost about a third of hot-path
// CPU. Released arrays are cleared before pooling so a pooled array
// never pins retired item bytes.
var batchPool sync.Pool // holds *[]Item

// maxPooledBatchCap bounds the retained capacity: arrays grown by a
// one-off giant batch go back to the GC instead of pinning the pool.
const maxPooledBatchCap = 1 << 17

func acquireBatchSlice() []Item {
	if p, _ := batchPool.Get().(*[]Item); p != nil {
		return (*p)[:0]
	}
	return nil
}

func releaseBatchSlice(b []Item) {
	if cap(b) == 0 || cap(b) > maxPooledBatchCap {
		return
	}
	b = b[:cap(b)]
	clear(b)
	batchPool.Put(&b)
}

// entry is the per-stream state: the sampler plus the open (not yet
// advanced) batch and ingest counters. The mutex guards pending and the
// counters, and is held across the sampler update in applyBatch so a
// checkpoint can never observe an advanced sampler paired with stale
// counters. advMu serializes close-batch→enqueue pairs so two concurrent
// batch boundaries (ticker vs explicit /advance) cannot interleave their
// engine submissions out of close order; it is never held while applying,
// so it cannot deadlock against the engine worker.
type entry struct {
	key     string
	sampler *tbs.Concurrent[Item]
	// sampleMutating records whether Sample consumes RNG draws (R-TBS),
	// in which case a read dirties the checkpoint state.
	sampleMutating bool

	// wal is the server's write-ahead log, nil when journaling is off or
	// during boot replay (records being replayed must not be re-journaled).
	// It is written before the entry becomes reachable by concurrent
	// requests — at construction for entries created while serving, and by
	// enableWAL (after replay has quiesced, before the server accepts
	// traffic) for entries restored at boot — so reads need no lock.
	wal *wal.Log

	// model is the stream's managed model, nil until a PUT …/model
	// attaches one. It is an atomic pointer so the predict path reads it
	// without the entry lock; attach/detach store it under mu so the
	// swap is atomic with respect to checkpoint capture.
	model atomic.Pointer[managedModel]

	advMu sync.Mutex

	mu       sync.Mutex
	pending  []Item
	queued   [][]Item // closed but not yet applied (FIFO mirror of the engine mailbox)
	ingested uint64   // items ever accepted
	batches  uint64   // batch boundaries ever applied to the sampler
	dirty    bool     // state changed since the last persisted checkpoint
	deleted  bool     // stream removed; rejects journaling and checkpointing
	// migrating freezes the stream for a handoff: every mutation (ingest,
	// boundary, model attach/detach, RNG-consuming sample read) is
	// rejected with errStreamMigrating between the capture of the
	// migration envelope and the handoff's outcome, so the shipped state
	// can never miss an acknowledged operation.
	migrating bool

	// walLSN is the LSN of the last record journaled for this stream;
	// durableLSN the LSN its newest on-disk checkpoint covers. The gap
	// between them is exactly the replay this stream needs after a crash,
	// and min(durableLSN) across streams is the WAL compaction point.
	walLSN     uint64
	durableLSN uint64

	// persisted records that a checkpoint file currently exists on disk
	// for this stream (set by every successful checkpoint write, and at
	// restore/hydrate, which read one). Guarded by mu. Hibernation of a
	// clean-but-never-persisted entry must write the file first — the
	// file is a hibernated stream's entire state.
	persisted bool

	// pins counts in-flight requests using the entry. A handler pins
	// before ensureResident and unpins when done; the hibernator never
	// evicts a pinned entry (see hibernateEntry for the fence that makes
	// the lock-free pin/check ordering safe), so post-ensureResident code
	// reads sampler/sampleMutating/model exactly as it always has.
	pins atomic.Int32

	// lastTouch is the LRU clock: unix nanos of the last client-driven
	// pin. Atomic so the hibernator's scan never takes entry locks.
	lastTouch atomic.Int64

	// hibernated marks the entry as a cold stub: sampler, open batch and
	// model evicted, the state durable in the checkpoint file, only key +
	// WAL positions retained. Transitions happen under mu; the atomic
	// lets the hot paths and the hibernator's scan read it lock-free.
	hibernated atomic.Bool

	// hyd is the in-flight hydration, non-nil while one request rebuilds
	// the entry from disk; concurrent cold hits on the same key wait on
	// its done channel instead of hydrating again. Guarded by mu.
	hyd *hydration
}

// pin marks the entry in use by a request and stamps the LRU clock. Must
// precede ensureResident: the pin is what keeps the entry resident for
// the duration of the request.
func (e *entry) pin() {
	e.pins.Add(1)
	e.lastTouch.Store(time.Now().UnixNano())
}

// unpin releases a pin taken by pin.
func (e *entry) unpin() { e.pins.Add(-1) }

// errRequestTooLarge marks an ingest request that can never fit the
// open-batch limit no matter how often the stream advances; handlers map
// it to 413 (the client must split the request). errBatchFull marks a
// transiently full open batch; handlers map it to 429 (retry after a
// batch boundary).
var (
	errRequestTooLarge = errors.New("request exceeds the per-stream open-batch limit")
	errBatchFull       = errors.New("open batch full")
	// errStreamDeleted marks an operation against an entry that lost a
	// race with DELETE /v1/streams/{key}; handlers map it to 404 so the
	// client observes the deletion (a retry recreates the stream fresh).
	errStreamDeleted = errors.New("stream deleted")
	// errJournalFailed marks a request rejected because its WAL record
	// could not be written — the server never acknowledges what it could
	// not log; handlers map it to 500.
	errJournalFailed = errors.New("write-ahead log append failed")
	// errStreamMigrating marks an operation rejected because the stream is
	// frozen for a handoff; handlers map it to 503 (retry — the stream
	// either unfreezes here or starts answering 421 with its new home).
	errStreamMigrating = errors.New("stream is migrating to another node")
)

// beginMigration freezes the entry for a handoff; endMigration lifts the
// freeze after a failed handoff (a successful one deletes the entry).
func (e *entry) beginMigration() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return errStreamDeleted
	}
	if e.migrating {
		return errStreamMigrating
	}
	e.migrating = true
	return nil
}

func (e *entry) endMigration() {
	e.mu.Lock()
	e.migrating = false
	e.mu.Unlock()
}

// appendMode adds items to the open batch and returns the new pending and
// total counts plus, when journaling is on, the LSN of the item-append
// record (the caller must wal-sync it before acknowledging). A positive
// maxPending bounds the open batch: one tenant that ingests forever
// without a batch boundary must not grow server memory (and checkpoint
// size) without limit. Items that alone exceed it are the caller's to
// reject (errRequestTooLarge), before it acquires the stream.
//
// The journal write happens under e.mu, after validation and before the
// mutation: WAL order therefore equals the stream's apply order, a
// rejected request journals nothing, and a journaling failure rejects the
// request — the server never acknowledges what it could not log.
//
// With adopt=true and no open batch, the caller DONATES its items array
// — the slice becomes e.pending wholesale (adopted=true) and the caller
// must stop using it, drawing a replacement from the batch pool. The
// ingest loop sizes its chunks to the ?batch=N boundary exactly so every
// boundary's items transfer by adoption: zero header copies, and the
// array cycles loop → pending → engine → sampler → pool → loop.
func (e *entry) appendMode(items []Item, maxPending int, adopt bool) (pending int, ingested uint64, lsn uint64, adopted bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return 0, 0, 0, false, errStreamDeleted
	}
	if e.migrating {
		return len(e.pending), e.ingested, 0, false, errStreamMigrating
	}
	if maxPending > 0 && len(e.pending)+len(items) > maxPending {
		return len(e.pending), e.ingested, 0, false,
			fmt.Errorf("%w: holds %d items (limit %d); advance the stream or enable -batch-interval", errBatchFull, len(e.pending), maxPending)
	}
	if e.wal != nil {
		lsn, err = wal.AppendItems(e.wal, e.key, items)
		if err != nil {
			return len(e.pending), e.ingested, 0, false, fmt.Errorf("%w: %v", errJournalFailed, err)
		}
		e.walLSN = lsn
	}
	if adopt && e.pending == nil && cap(items) > 0 {
		e.pending = items
		adopted = true
	} else {
		if e.pending == nil {
			e.pending = acquireBatchSlice()
		}
		e.pending = append(e.pending, items...)
	}
	e.ingested += uint64(len(items))
	e.dirty = true
	return len(e.pending), e.ingested, lsn, adopted, nil
}

// replayAppend is append for WAL recovery: no limit (the original request
// was accepted under whatever limit then applied) and no re-journaling.
func (e *entry) replayAppend(items [][]byte, lsn uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, it := range items {
		e.pending = append(e.pending, Item(it))
	}
	e.ingested += uint64(len(items))
	e.walLSN = lsn
	e.dirty = true
}

// setWalLSN records the LSN of a replayed record that was applied through
// a path that does not thread LSNs (batch boundaries, sample reads).
func (e *entry) setWalLSN(lsn uint64) {
	e.mu.Lock()
	e.walLSN = lsn
	e.mu.Unlock()
}

// setDurableLSN records that the stream's newest on-disk checkpoint
// covers every record up to lsn. Called only after a successful
// checkpoint write, so it doubles as the persisted marker.
func (e *entry) setDurableLSN(lsn uint64) {
	e.mu.Lock()
	if lsn > e.durableLSN {
		e.durableLSN = lsn
	}
	e.persisted = true
	e.mu.Unlock()
}

// closeBatch detaches the open batch — possibly empty, which still counts
// as a boundary and will move the decay clock when applied — journaling
// the boundary record under the same lock hold, so the WAL sees items and
// boundaries in exactly the order the sampler will. The caller must hand
// the returned batch to applyBatch (directly or through the engine)
// exactly once. Until then the batch stays on the queued ledger, so a
// concurrent checkpoint can never observe a boundary that is in neither
// the pending buffer nor the sampler — the invariant the old
// single-critical-section advance gave for free.
//
// jerr reports a journaling failure: the boundary still happens in memory
// (refusing to advance would wedge the ticker), but the WAL has poisoned
// itself, so replay converges to the state just before this boundary and
// the checkpointer remains the durability backstop.
//
// ok is false when the stream is frozen for a handoff: the boundary does
// NOT happen (jerr is errStreamMigrating, batch nil) — a boundary after
// the migration capture would advance a sampler whose state has already
// been shipped.
func (e *entry) closeBatch() (batch []Item, ok bool, lsn uint64, jerr error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.migrating {
		return nil, false, 0, errStreamMigrating
	}
	if e.hibernated.Load() {
		// A hibernated stream's decay clock pauses: the ticker skips it
		// (nothing to journal, nothing to advance) and an explicit
		// /advance rehydrates through ensureResident before reaching here.
		return nil, false, 0, nil
	}
	if e.wal != nil && !e.deleted {
		if lsn, jerr = e.wal.AppendRecord(wal.TypeBatchBoundary, e.key, nil); jerr == nil {
			e.walLSN = lsn
		}
	}
	batch = e.pending
	e.pending = nil
	e.queued = append(e.queued, batch)
	return batch, true, lsn, jerr
}

// advance closes the open batch and applies it inline — the synchronous
// boundary used by direct registry consumers (tests, tooling) and by WAL
// replay; the server itself routes batches through the engine via
// closeBatch/applyBatch.
func (e *entry) advance() (batchLen int, batches uint64, elapsed time.Duration) {
	e.advMu.Lock()
	batch, ok, _, _ := e.closeBatch()
	e.advMu.Unlock()
	if !ok {
		return 0, 0, 0
	}
	return e.applyBatch(batch, nil)
}

// applyBatch folds a closed batch into the sampler, advancing the decay
// clock by one unit, and returns its size, the total boundary count, and
// how long the sampler update took. It runs on an engine shard worker (or
// inline when the engine is disabled); per-stream ordering is guaranteed
// by the engine's key-affine FIFO mailboxes.
//
// applyBatch owns btr, the boundary trace opened at closeBatch (nil when
// tracing is off): model-less streams finish it here, model-managed
// streams hand it to onBoundary, which finishes it — possibly on the
// background retrain lane.
func (e *entry) applyBatch(batch []Item, btr *obs.Trace) (batchLen int, batches uint64, elapsed time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	if mm := e.model.Load(); mm != nil {
		// The model-management step wraps the sampler advance: score the
		// deployed model on the batch first (the paper predicts each
		// incoming batch with the model trained on data up to t−1), then
		// fold the batch in and let the policy decide about retraining.
		mm.onBoundary(batch, btr)
	} else {
		e.sampler.Advance(batch)
		btr.Finish(0)
	}
	elapsed = time.Since(start)
	// Retire the boundary from the in-flight ledger. Batches apply in
	// close order (key-affine FIFO mailboxes), so it is always the head.
	if len(e.queued) > 0 {
		e.queued[0] = nil
		e.queued = e.queued[1:]
	}
	e.batches++
	e.dirty = true
	batchLen = len(batch)
	// applyBatch is the batch's terminal consumer: the sampler above
	// copied whatever item references it kept, so the array itself can
	// recycle into the next open batch.
	releaseBatchSlice(batch)
	return batchLen, e.batches, elapsed
}

// counters returns the ingest bookkeeping without touching the sampler.
func (e *entry) counters() (pending int, ingested, batches uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending), e.ingested, e.batches
}

// markDirty flags the entry for the next checkpoint pass. Read endpoints
// call it after Sample, because R-TBS's realization draws from the RNG —
// state that must be persisted for a restart to resume the identical
// stochastic process.
func (e *entry) markDirty() {
	e.mu.Lock()
	e.dirty = true
	e.mu.Unlock()
}

// checkpoint captures a consistent (snapshot, open batch, counters) triple
// and clears the dirty flag; wasDirty false means the previous checkpoint
// is still current and the caller can skip the write. If the write fails,
// the caller must markDirty again.
func (e *entry) checkpoint() (st checkpointState, wasDirty bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.dirty || e.deleted || e.hibernated.Load() {
		// A hibernated stub has no sampler to capture; its state is the
		// checkpoint file itself, written at eviction.
		return checkpointState{}, false, nil
	}
	if st, err = e.stateLocked(); err != nil {
		return checkpointState{}, true, err
	}
	e.dirty = false
	return st, true, nil
}

// captureState is the forced capture used by stream handoff: it ignores
// the dirty flag (the migration envelope must reflect the state whether
// or not a checkpoint pass just ran) and leaves it set, so a failed
// handoff changes nothing about the next checkpoint pass.
func (e *entry) captureState() (checkpointState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return checkpointState{}, errStreamDeleted
	}
	if e.hibernated.Load() {
		// Callers (handoff) hydrate before capturing; reaching a stub here
		// is a protocol bug, not a capturable state.
		return checkpointState{}, errors.New("server: cannot capture a hibernated stream")
	}
	return e.stateLocked()
}

// stateLocked captures a consistent (snapshot, open batch, counters)
// triple. Caller holds e.mu.
func (e *entry) stateLocked() (checkpointState, error) {
	// Model first: capture waits out any retrain still on the background
	// lane, and holding e.mu here means no new boundary can fire one — so
	// the sampler snapshot below and the model state are a consistent
	// pair, both quiesced at the same batch boundary.
	var mst *modelCheckpoint
	if mm := e.model.Load(); mm != nil {
		var err error
		if mst, err = mm.capture(); err != nil {
			return checkpointState{}, err
		}
	}
	snap, err := e.sampler.Snapshot()
	if err != nil {
		return checkpointState{}, err
	}
	var queued [][]Item
	if len(e.queued) > 0 {
		// Closed-but-unapplied boundaries (the checkpoint raced a batch
		// sitting in an engine mailbox): persist them so a crash between
		// close and apply loses nothing — restore replays them in order.
		queued = make([][]Item, len(e.queued))
		for i, b := range e.queued {
			queued[i] = append([]Item(nil), b...)
		}
	}
	return checkpointState{
		Key:      e.key,
		Snapshot: snap,
		Pending:  append([]Item(nil), e.pending...),
		Queued:   queued,
		Ingested: e.ingested,
		Batches:  e.batches,
		Model:    mst,
		WalLSN:   e.walLSN,
	}, nil
}

// attachModel installs (or replaces) the stream's managed model,
// journaling the normalized spec so a crash between the acknowledgement
// and the next checkpoint replays the attach. The entry lock makes the
// swap atomic with respect to batch application and checkpoint capture; a
// replaced model's in-flight retrain finishes against the old state and
// is discarded with it.
func (e *entry) attachModel(mm *managedModel) (lsn uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return 0, errStreamDeleted
	}
	if e.migrating {
		return 0, errStreamMigrating
	}
	if e.wal != nil {
		spec, err := json.Marshal(mm.spec)
		if err != nil {
			return 0, err
		}
		if lsn, err = e.wal.AppendRecord(wal.TypeModelAttach, e.key, spec); err != nil {
			return 0, fmt.Errorf("%w: model attach: %v", errJournalFailed, err)
		}
		e.walLSN = lsn
	}
	e.model.Store(mm)
	e.dirty = true
	return lsn, nil
}

// detachModel removes the stream's managed model; reports whether one was
// attached, journaling the detach when one was.
func (e *entry) detachModel() (had bool, lsn uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return false, 0, errStreamDeleted
	}
	if e.migrating {
		return false, 0, errStreamMigrating
	}
	had = e.model.Load() != nil
	if had && e.wal != nil {
		if lsn, err = e.wal.AppendRecord(wal.TypeModelDetach, e.key, nil); err != nil {
			return had, 0, fmt.Errorf("%w: model detach: %v", errJournalFailed, err)
		}
		e.walLSN = lsn
	}
	e.model.Store(nil)
	if had {
		e.dirty = true
	}
	return had, lsn, nil
}

// journalSampleRead journals one RNG-consuming sample realization and
// realizes it under the same lock hold, so the WAL sees the draw exactly
// where the sampler's stochastic process consumed it. Only called for
// schemes whose Sample mutates (R-TBS) with journaling on.
func (e *entry) journalSampleRead(buf []Item) (items []Item, lsn uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return nil, 0, errStreamDeleted
	}
	if e.migrating {
		return nil, 0, errStreamMigrating
	}
	if lsn, err = e.wal.AppendRecord(wal.TypeSampleRead, e.key, nil); err != nil {
		return nil, 0, fmt.Errorf("%w: sample read: %v", errJournalFailed, err)
	}
	e.walLSN = lsn
	items = e.sampler.AppendSample(buf)
	e.dirty = true
	return items, lsn, nil
}

// errTooManyStreams is returned by getOrCreate when the stream cap is
// reached; handlers map it to 429 rather than 500. errNewSampler marks a
// sampler that could not be built from the server's validated config —
// a server fault, which handlers map to 500.
var (
	errTooManyStreams = errors.New("server: stream limit reached")
	errNewSampler     = errors.New("server: building the stream's sampler failed")
)

// streamMovedError refuses a key this node handed off; handlers answer
// 421 naming the new home, so a stale client (or a router without the
// override) can re-route instead of recreating the stream here.
type streamMovedError struct{ key, target string }

func (e *streamMovedError) Error() string {
	return fmt.Sprintf("stream %q was handed off to %s", e.key, e.target)
}

// registry maps stream keys to entries across lock-striped shards, so
// concurrent requests for unrelated keys never contend on one lock.
// Samplers are created lazily from the base config with a per-key seed
// derived from the base seed, making the whole registry deterministic
// while keeping every key on its own RNG trajectory. A positive
// maxStreams bounds the number of live streams: every key costs memory, a
// checkpoint file, and a slice of every checkpoint pass until it is
// DELETEd, so hostile or typo'd keys must not grow the server without
// limit.
type registry struct {
	cfg        tbs.Config
	baseSeed   uint64
	maxStreams int
	total      atomic.Int64
	// resident counts entries whose state is in memory (total minus
	// hibernated stubs) — the number memory tiering bounds. Incremented
	// on create/restore/hydrate, decremented on eviction and on removal
	// of a resident entry.
	resident atomic.Int64
	shards   []*shard

	// moved records streams handed off to another node: key → target base
	// URL. Requests for a moved key answer 421 with the new home instead
	// of silently recreating the stream here. In-memory only — after a
	// restart the journaled tombstone still prevents resurrection, and a
	// misdirected ingest then creates a fresh stream exactly as a DELETE
	// would allow; keeping routers pointed at the new owner is the
	// router's job (its override map), this guard is the backstop.
	moved sync.Map

	// wal, once set by enableWAL, is handed to every entry created from
	// then on. It is written exactly once, after boot replay and before
	// the server serves traffic.
	wal *wal.Log
}

type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

func newRegistry(cfg tbs.Config, nShards, maxStreams int) (*registry, error) {
	if nShards < 1 {
		return nil, fmt.Errorf("server: shard count must be positive, got %d", nShards)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	baseSeed := uint64(1)
	if cfg.Seed != nil {
		baseSeed = *cfg.Seed
	}
	r := &registry{
		cfg:        cfg,
		baseSeed:   baseSeed,
		maxStreams: maxStreams,
		shards:     make([]*shard, nShards),
	}
	for i := range r.shards {
		r.shards[i] = &shard{entries: make(map[string]*entry)}
	}
	return r, nil
}

func (r *registry) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return r.shards[h.Sum32()%uint32(len(r.shards))]
}

// lookup returns the entry for key, or nil when the stream does not exist.
func (r *registry) lookup(key string) *entry {
	sh := r.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries[key]
}

// getOrCreate returns the entry for key, building the sampler on first
// touch. The construction runs under the shard's write lock; it is cheap
// (no allocation proportional to stream volume) and keeps double-creation
// races impossible.
func (r *registry) getOrCreate(key string) (*entry, error) {
	return r.getOrCreateAt(key, false)
}

// createForReplay is getOrCreate exempt from the stream cap — WAL
// recovery must never strand acknowledged records behind a lowered
// -max-streams, mirroring the boot-restore exemption.
func (r *registry) createForReplay(key string) (*entry, error) {
	return r.getOrCreateAt(key, true)
}

func (r *registry) getOrCreateAt(key string, capExempt bool) (*entry, error) {
	sh := r.shardFor(key)
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[key]; e != nil {
		return e, nil
	}
	// A handoff stores its marker before removing the entry, so a request
	// that passed the moved check before the handoff committed cannot
	// recreate the key here.
	if err := r.movedErr(key); err != nil {
		return nil, err
	}
	// Reserve the slot atomically before building: concurrent first-touch
	// creations on different shards would otherwise all pass a plain
	// load-then-check and overshoot the cap by up to nShards-1.
	if n := r.total.Add(1); !capExempt && r.maxStreams > 0 && n > int64(r.maxStreams) {
		r.total.Add(-1)
		return nil, fmt.Errorf("%w (%d)", errTooManyStreams, r.maxStreams)
	}
	s, err := tbs.NewFromConfig[Item](r.cfg.WithSeed(tbs.DeriveSeed(r.baseSeed, key)))
	if err != nil {
		r.total.Add(-1)
		return nil, fmt.Errorf("%w: %v", errNewSampler, err)
	}
	cs := tbs.NewConcurrent(s)
	e = &entry{key: key, sampler: cs, sampleMutating: tbs.SampleMutates[Item](cs), wal: r.wal}
	sh.entries[key] = e
	r.resident.Add(1)
	return e, nil
}

// movedErr refuses a key handed off to another node; nil otherwise.
func (r *registry) movedErr(key string) error {
	if t, ok := r.moved.Load(key); ok {
		return &streamMovedError{key, t.(string)}
	}
	return nil
}

// remove deletes the stream's entry and returns it (nil when absent). The
// caller owns the follow-up: marking the entry deleted, journaling, and
// removing the checkpoint file.
func (r *registry) remove(key string) *entry {
	sh := r.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e != nil {
		delete(sh.entries, key)
		r.total.Add(-1)
		// A hibernated stub was already subtracted from the resident count
		// at eviction. The read is safe against a racing eviction: every
		// remove caller either marks the entry deleted under e.mu first
		// (eviction then skips it) or runs before the hibernator exists.
		if !e.hibernated.Load() {
			r.resident.Add(-1)
		}
	}
	return e
}

// enableWAL hands the log to the registry (for future entries) and to
// every entry already restored. Must run before the server accepts
// traffic — entry.wal is read without a lock on the strength of that.
func (r *registry) enableWAL(l *wal.Log) {
	if l == nil {
		return
	}
	r.wal = l
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			e.wal = l
		}
		sh.mu.Unlock()
	}
}

// errStreamExists marks a rebuilt stream whose key is already live here.
var errStreamExists = errors.New("stream already exists")

// insertRestored installs a rebuilt entry (boot restore, adoption). It
// refuses to clobber an existing stream.
func (r *registry) insertRestored(e *entry) error {
	sh := r.shardFor(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.entries[e.key]; dup {
		return fmt.Errorf("%w: %q", errStreamExists, e.key)
	}
	sh.entries[e.key] = e
	r.total.Add(1)
	r.resident.Add(1)
	return nil
}

// keys returns every stream key, sorted.
func (r *registry) keys() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.RLock()
		for k := range sh.entries {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// all returns every entry in an unspecified order.
func (r *registry) all() []*entry {
	var out []*entry
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	return out
}

// count returns the number of live streams.
func (r *registry) count() int {
	return int(r.total.Load())
}

// perShardCounts returns the number of streams on each shard.
func (r *registry) perShardCounts() []int {
	out := make([]int, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.RLock()
		out[i] = len(sh.entries)
		sh.mu.RUnlock()
	}
	return out
}
