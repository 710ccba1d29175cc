package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/tbs"
)

// Options configures a Server.
type Options struct {
	// Sampler is the base sampler configuration applied to every stream;
	// each key gets a seed derived from Sampler.Seed (default 1), so the
	// whole server is deterministic given the base seed and per-key batch
	// sequences.
	Sampler tbs.Config

	// Shards is the number of lock stripes in the keyed registry and, by
	// default, the number of engine shard workers applying batches
	// (default 16).
	Shards int

	// EngineWorkers overrides the number of engine shard workers; zero
	// means Shards. Each stream key is pinned to one worker, so batches
	// for one stream apply in order while distinct streams apply in
	// parallel.
	EngineWorkers int

	// QueueDepth bounds each engine worker's mailbox of closed batches
	// (default 128). A full mailbox blocks further batch boundaries for
	// the streams on that worker — bounded-memory backpressure instead of
	// unbounded queuing. Negative disables the engine entirely: batches
	// apply inline under the caller, the pre-engine behavior.
	QueueDepth int

	// RetrainWorkers sizes the engine's background lane, where model
	// retrains train before being atomically swapped in (default 2).
	// Negative disables the lane: retrains then run inline at the batch
	// boundary that ordered them, as they also do when the engine itself
	// is disabled.
	RetrainWorkers int

	// BatchInterval, when positive, runs the wall-clock ticker: every
	// interval each stream's open batch is closed and its sampler
	// advanced — one paper batch-time unit per interval. Zero leaves
	// batch boundaries entirely to explicit /advance calls.
	BatchInterval time.Duration

	// CheckpointDir, when set, enables persistence: restore on New,
	// periodic background checkpoints, and a final checkpoint on Stop.
	CheckpointDir string

	// CheckpointInterval is the background checkpoint period
	// (default 30s; ignored without CheckpointDir).
	CheckpointInterval time.Duration

	// WALDir, when set, enables the write-ahead log: every acknowledged
	// ingest chunk, batch boundary and model attach/detach is journaled
	// and fsynced (per WALFsync) before the acknowledgement, and boot
	// replays the log tail on top of the newest snapshots — a kill -9 then
	// loses at most the last un-fsynced group instead of up to a full
	// CheckpointInterval of acknowledged traffic. Sample reads journal
	// nothing; replay skips the read records older logs hold. Checkpoint
	// passes double as WAL compaction.
	WALDir string

	// WALFsync selects the durability policy: "group" (default — one
	// fsync covers every record written since the last, batching
	// concurrent requests), "always" (fsync per record), or "off" (OS
	// page cache only; survives kill -9, not power loss).
	WALFsync string

	// WALSegmentBytes rotates WAL segments at this size (default 64MB).
	WALSegmentBytes int64

	// RestoreQuarantine, when set, boots past a corrupt checkpoint file
	// by renaming it to *.corrupt and counting it, instead of failing the
	// whole boot (the default — losing one tenant silently is worse than
	// a loud crash loop, so opting in is deliberate). It covers the files
	// boot reads: with tiering on, those of the streams the WAL names and
	// the one that checks the scheme; any other file is read on its
	// stream's first request, where a corrupt one answers 500
	// hydrate_failed.
	RestoreQuarantine bool

	// MaxPendingItems bounds one stream's open batch; ingest beyond it is
	// rejected until a batch boundary drains the buffer (default 1<<20
	// items; negative disables the bound).
	MaxPendingItems int

	// Advertise is the URL peers should use to reach this node (e.g.
	// "http://10.0.0.5:8377"). It identifies the node in handoff
	// envelopes and logs; empty is fine for single-node deployments.
	Advertise string

	// MaxStreams bounds the number of live streams; requests that would
	// create one beyond it get 429 (default 1<<16; negative disables the
	// bound). Boot-time restore is exempt, so lowering the cap never
	// strands an existing checkpoint directory.
	MaxStreams int

	// MaxResident, when positive, bounds how many streams keep their
	// state (sampler, open batch, model bytes) in memory: beyond it the
	// hibernator evicts the least-recently-touched idle streams down to
	// stubs backed by their checkpoint files, and a request touching a
	// cold key rehydrates it lazily through the restore path. Requires
	// CheckpointDir. Live streams beyond MaxResident still count against
	// MaxStreams — tiering bounds memory, not tenancy. With tiering on
	// (MaxResident or IdleAfter), boot is lazy too: it registers every
	// checkpoint file as a stub and restores only the streams the WAL
	// names, plus one file that checks the scheme; any other stream's
	// file is validated when a request first touches it.
	MaxResident int

	// IdleAfter, when positive, hibernates any stream untouched for this
	// long regardless of the resident count. Requires CheckpointDir.
	IdleAfter time.Duration

	// HibernateInterval is the hibernator's sweep period (default 1s;
	// ignored unless MaxResident or IdleAfter enables tiering). Crossing
	// MaxResident also kicks a sweep immediately.
	HibernateInterval time.Duration

	// Logger receives operational log lines; nil discards them. Request
	// lines (one per traced request, at debug level) come from Trace's
	// logger, not this one, so the two can be split.
	Logger *slog.Logger

	// Trace, when non-nil, enables span tracing: per-request ingest
	// traces and per-stream batch-boundary traces flow into its ring
	// buffer (GET /debug/trace/recent) and its stage histograms are
	// merged into GET /metrics. Nil disables tracing entirely — every
	// record call is a nil-receiver no-op.
	Trace *obs.Tracer
}

func (o *Options) setDefaults() {
	if o.Shards == 0 {
		o.Shards = 16
	}
	if o.EngineWorkers == 0 {
		o.EngineWorkers = o.Shards
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 128
	}
	if o.RetrainWorkers == 0 {
		o.RetrainWorkers = 2
	}
	if o.BatchInterval < 0 {
		o.BatchInterval = 0
	}
	// time.NewTicker panics on non-positive intervals, so a nonsense
	// checkpoint period falls back to the default rather than crashing
	// the checkpointer goroutine.
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 30 * time.Second
	}
	if o.MaxPendingItems == 0 {
		o.MaxPendingItems = 1 << 20
	}
	if o.MaxStreams == 0 {
		o.MaxStreams = 1 << 16
	}
	if o.HibernateInterval <= 0 {
		o.HibernateInterval = time.Second
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
}

// Server is the tbsd core: the keyed sampler registry, its HTTP handler,
// and the background ticker and checkpointer. Construct with New, attach
// Handler to an http.Server, call Start for the background loops and Stop
// to drain them.
type Server struct {
	opts    Options
	reg     *registry
	scheme  string // the configured scheme's canonical name; every restored state must carry it
	metrics *Metrics
	mux     *http.ServeMux
	eng     *engine.Engine // nil when QueueDepth < 0 (inline apply)
	wal     *wal.Log       // nil when WALDir is unset

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	ckptMu    sync.Mutex // serializes whole checkpoint passes (and stream deletes/handoffs)

	// hibKick nudges the hibernator out of its sweep interval when the
	// resident count crosses MaxResident (buffered, coalescing).
	hibKick chan struct{}
	// hibMu serializes whole hibernation sweeps: two concurrent passes
	// would each snapshot the same over-bound population and jointly
	// evict twice the excess, overshooting far below MaxResident.
	hibMu sync.Mutex
}

// New validates the configuration and, when a checkpoint directory is
// configured, restores every stream found there (with tiering on, as
// hibernated stubs for all but the streams the WAL names; see
// restoreSnapshots).
func New(opts Options) (*Server, error) {
	opts.setDefaults()
	if (opts.MaxResident > 0 || opts.IdleAfter > 0) && opts.CheckpointDir == "" {
		return nil, errors.New("server: MaxResident/IdleAfter require CheckpointDir (the checkpoint file is a hibernated stream's entire state)")
	}
	reg, err := newRegistry(opts.Sampler, opts.Shards, opts.MaxStreams)
	if err != nil {
		return nil, err
	}
	info, err := tbs.Lookup(opts.Sampler.Scheme)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		reg:     reg,
		scheme:  info.Name,
		metrics: &Metrics{},
		stop:    make(chan struct{}),
		hibKick: make(chan struct{}, 1),
	}
	if opts.QueueDepth > 0 {
		bg := opts.RetrainWorkers
		if bg < 0 {
			bg = 0
		}
		s.eng, err = engine.New(opts.EngineWorkers, opts.QueueDepth, engine.WithBackground(bg))
		if err != nil {
			return nil, err
		}
	}
	fail := func(err error) (*Server, error) {
		if s.eng != nil {
			s.eng.Close()
		}
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}
	if opts.WALDir != "" {
		// Open before restore: recovery needs the log's end position to
		// clamp stale checkpoint LSNs, and replay runs off this handle.
		s.wal, err = wal.Open(wal.Options{
			Dir:          opts.WALDir,
			Fsync:        opts.WALFsync,
			SegmentBytes: opts.WALSegmentBytes,
		})
		if err != nil {
			return fail(err)
		}
	}
	restored, err := s.restoreAll()
	if err != nil {
		return fail(err)
	}
	// Journaling switches on only after replay has fully applied (and
	// quiesced) the existing log — replayed operations must not be
	// re-journaled.
	s.reg.enableWAL(s.wal)
	s.metrics.SetRestored(restored)
	if restored > 0 {
		// Snapshots carry their own parameters, so restored streams keep
		// the lambda/n they were checkpointed with even if the server's
		// flags changed — worth a log line, since only a scheme mismatch
		// fails boot loudly.
		s.opts.Logger.Info("restored streams from checkpoint directory (restored streams keep their checkpointed parameters)",
			"streams", restored, "dir", opts.CheckpointDir)
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the HTTP API handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics accumulator.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Start launches the wall-clock ticker and the background checkpointer
// (each only when configured) and flips /readyz to ready — restore
// already completed in New, so a Started server can serve every stream it
// owns. It is idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		if s.opts.BatchInterval > 0 {
			s.wg.Add(1)
			go s.runTicker()
		}
		if s.opts.CheckpointDir != "" {
			s.wg.Add(1)
			go s.runCheckpointer()
		}
		if s.tieringEnabled() {
			s.wg.Add(1)
			go s.runHibernator()
		}
		s.metrics.SetReady(true)
	})
}

// Stop halts the background loops, waits for them, drains the engine's
// mailboxes (every closed batch is applied — nothing is left queued), and
// takes a final checkpoint so a restart loses nothing. The final
// checkpoint is taken even when ctx expires before the loops drain —
// checkpointAll is safe concurrently with a straggling background pass,
// and losing it would drop everything since the last periodic checkpoint.
// Stop is idempotent; the HTTP handler keeps serving (shut the http.Server
// down first).
func (s *Server) Stop(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		// Unready first: a cluster router probing /readyz stops routing
		// here before the drain begins.
		s.metrics.SetReady(false)
		close(s.stop)
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			if s.eng != nil {
				// Drain after the ticker has stopped producing boundaries:
				// Close blocks until every queued batch has been applied, so
				// the final checkpoint below observes fully-advanced
				// samplers. Later submissions fall back to inline apply.
				s.eng.Close()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		// The final checkpoint gets the same deadline: a hung checkpoint
		// disk (or a straggling pass holding ckptMu) must not block
		// shutdown forever. On timeout the pass keeps running detached —
		// its writes are atomic, so a killed process leaves no torn files.
		ckc := make(chan error, 1)
		go func() { ckc <- s.checkpointAll() }()
		select {
		case cerr := <-ckc:
			err = errors.Join(err, cerr)
			// The final checkpoint covered everything, so the WAL can be
			// sealed (checkpointAll already compacted it). On timeout the
			// log is left open for the detached pass — a killed process
			// leaves a valid log either way.
			if s.wal != nil {
				err = errors.Join(err, s.wal.Close())
			}
		case <-ctx.Done():
			err = errors.Join(err, fmt.Errorf("server: final checkpoint timed out: %w", ctx.Err()))
		}
	})
	return err
}

// advanceAsync closes the stream's open batch and queues it for
// application, returning without waiting — the pipelined batch boundary
// used by the ticker and by ?batch=N ingest. The returned LSN is the
// boundary's journal record (0 when journaling is off); the caller
// acknowledging the boundary must wal-sync it first. A stream frozen for
// a handoff is silently skipped (lsn 0) — the ticker must not stall, and
// the boundary will happen on the stream's new owner.
func (s *Server) advanceAsync(e *entry) uint64 {
	e.advMu.Lock()
	defer e.advMu.Unlock()
	closeStart := time.Now()
	batch, ok, lsn, jerr := e.closeBatch()
	if !ok {
		return 0
	}
	s.noteJournalErr(jerr)
	btr := s.opts.Trace.Start(obs.KindBoundary, e.key)
	btr.StageSince(obs.StageCloseBatch, closeStart)
	// The engine worker owning the stream applies the batch (inline when
	// the engine is disabled or closing); holding advMu keeps close order
	// equal to submission order. applyBatch takes ownership of btr.
	apply := func() {
		n, _, elapsed := e.applyBatch(batch, btr)
		s.metrics.ObserveAdvance(n, elapsed)
	}
	if s.eng == nil || s.eng.Submit(e.key, apply) != nil {
		apply()
	}
	return lsn
}

// advanceWait is advanceAsync plus a wait for that specific batch: it
// returns only after the batch has been applied, with the applied batch
// size, total boundary count, sampler-update latency and the boundary's
// journal LSN — what the synchronous /advance API reports. err is
// errStreamMigrating when the stream is frozen for a handoff: the
// boundary did NOT happen and the caller must report the failure rather
// than acknowledge it.
func (s *Server) advanceWait(e *entry, tr *obs.Trace) (n int, batches uint64, elapsed time.Duration, lsn uint64, err error) {
	done := make(chan struct{})
	e.advMu.Lock()
	enqStart := time.Now()
	batch, ok, lsn, jerr := e.closeBatch()
	if !ok {
		e.advMu.Unlock()
		return 0, 0, 0, 0, jerr
	}
	s.noteJournalErr(jerr)
	btr := s.opts.Trace.StartChild(tr, obs.KindBoundary, e.key)
	btr.StageSince(obs.StageCloseBatch, enqStart)
	// The apply closure may run on an engine worker while this goroutine
	// is still recording the enqueue stage, so it must not touch tr
	// itself: it captures the apply window into locals and the done-
	// channel close publishes them back here for recording.
	var applyStart time.Time
	var applyDur time.Duration
	apply := func() {
		applyStart = time.Now()
		n, batches, elapsed = e.applyBatch(batch, btr)
		applyDur = time.Since(applyStart)
		s.metrics.ObserveAdvance(n, elapsed)
		close(done)
	}
	inline := s.eng == nil || s.eng.Submit(e.key, apply) != nil
	if !inline {
		tr.StageSince(obs.StageEnqueue, enqStart)
	}
	if inline {
		apply()
	}
	e.advMu.Unlock()
	<-done
	tr.StageDur(obs.StageApply, applyStart, applyDur)
	return n, batches, elapsed, lsn, nil
}

// flushStream blocks until every batch queued for the stream has been
// applied; a no-op without the engine.
func (s *Server) flushStream(e *entry) {
	if s.eng != nil {
		s.eng.Flush(e.key)
	}
}

// runBackground dispatches a retrain job to the engine's background lane.
// The error return (no engine, no lane, or draining) tells the caller to
// run the job inline instead, so a retrain decision is never lost.
func (s *Server) runBackground(fn func()) error {
	if s.eng == nil {
		return engine.ErrNoBackground
	}
	return s.eng.Background(fn)
}

// AdvanceAll closes every stream's open batch — the ticker's unit of work,
// also usable directly (tests, admin tooling). Batches fan out across the
// engine's shard workers and the call returns after all have applied, so
// one slow stream no longer serializes the whole pass.
func (s *Server) AdvanceAll() {
	for _, e := range s.reg.all() {
		if e.hibernated.Load() {
			// A hibernated stream's decay clock pauses; closeBatch would
			// refuse anyway, this just skips the lock on every stub.
			continue
		}
		s.advanceAsync(e)
	}
	if s.eng != nil {
		s.eng.FlushAll()
	}
}

// runTicker maps the paper's batch-arrival model onto real time: every
// BatchInterval is one batch-time unit for every stream, whether or not
// items arrived. time.Ticker silently coalesces ticks when AdvanceAll
// outlasts the interval, which would let the batch-time clock drift
// behind the wall clock with no signal — so the gap between consecutive
// fire times is measured, and skipped ticks are counted
// (tbsd_ticker_lagged_total) and logged.
func (s *Server) runTicker() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.BatchInterval)
	defer t.Stop()
	var last time.Time
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			if skipped := tickerSkips(last, now, s.opts.BatchInterval); skipped > 0 {
				s.metrics.ObserveTickerLag(skipped)
				s.opts.Logger.Warn("ticker: batch-time clock lagged behind interval; ticks coalesced",
					"lag", now.Sub(last)-s.opts.BatchInterval, "interval", s.opts.BatchInterval, "skipped", skipped)
			}
			last = now
			s.AdvanceAll()
		}
	}
}

// tickerSkips returns how many ticks the runtime coalesced between two
// consecutive fire times: 0 when the gap is within half an interval of
// nominal, the number of whole missed intervals beyond that.
func tickerSkips(prev, now time.Time, interval time.Duration) int {
	if prev.IsZero() || interval <= 0 {
		return 0
	}
	gap := now.Sub(prev)
	if gap <= interval+interval/2 {
		return 0
	}
	return int((gap - interval/2) / interval)
}

func (s *Server) runCheckpointer() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.checkpointAll(); err != nil {
				s.opts.Logger.Error("checkpoint pass failed", "err", err)
			}
		}
	}
}
