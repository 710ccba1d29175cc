package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Metrics aggregates the server's observability counters. Counts are
// atomics so the ingest/advance hot paths never share a lock — the
// lock-striped registry's parallelism is not re-serialized here; only the
// latency rings take a (per-distribution) mutex.
type Metrics struct {
	ingestRequests atomic.Uint64
	ingestedItems  atomic.Uint64

	advances      atomic.Uint64
	advancedItems atomic.Uint64
	// advanceLat/checkpointLat quantiles cover a rotating time window
	// (metrics.LatencyStats), not all history — after a burst subsides the
	// p99 drains back down instead of being pinned by it forever.
	advanceLat metrics.LatencyStats

	checkpoints        atomic.Uint64
	checkpointErrors   atomic.Uint64
	checkpointedKeys   atomic.Uint64
	checkpointLat      metrics.LatencyStats
	lastCheckpointUnix atomic.Int64
	restoredStreams    atomic.Int64

	modelScores   atomic.Uint64
	retrains      atomic.Uint64
	retrainErrors atomic.Uint64
	predictions   atomic.Uint64

	tickerLagged   atomic.Uint64
	deletedStreams atomic.Uint64
	quarantined    atomic.Int64
	walReplayed    atomic.Int64

	handoffsOut   atomic.Uint64 // streams this node handed to another node
	handoffsIn    atomic.Uint64 // streams this node adopted
	handoffErrors atomic.Uint64
	ready         atomic.Bool

	hibernations      atomic.Uint64 // streams evicted to checkpoint-backed stubs
	hibernationErrors atomic.Uint64
	hydrations        atomic.Uint64 // cold-miss rehydrations back to resident
	hydrationErrors   atomic.Uint64
	hydrationLat      metrics.LatencyStats
}

// SetReady flips the /readyz gate: true once restore completed and the
// background loops started, false again when shutdown begins draining.
func (m *Metrics) SetReady(v bool) { m.ready.Store(v) }

// Ready reports the /readyz gate.
func (m *Metrics) Ready() bool { return m.ready.Load() }

// ObserveHandoffOut records one stream handed off to another node.
func (m *Metrics) ObserveHandoffOut() { m.handoffsOut.Add(1) }

// ObserveHandoffIn records one stream adopted from another node.
func (m *Metrics) ObserveHandoffIn() { m.handoffsIn.Add(1) }

// ObserveHandoffError records one failed handoff, on either side: a
// source whose shipment failed or a target that refused an adoption.
func (m *Metrics) ObserveHandoffError() { m.handoffErrors.Add(1) }

// ObserveTickerLag records n wall-clock ticks the batch-time ticker had
// to coalesce because an AdvanceAll pass outlasted the interval.
func (m *Metrics) ObserveTickerLag(n int) { m.tickerLagged.Add(uint64(n)) }

// ObserveStreamDelete records one DELETE /v1/streams/{key}.
func (m *Metrics) ObserveStreamDelete() { m.deletedStreams.Add(1) }

// SetQuarantined records how many corrupt checkpoint files boot-time
// restore quarantined.
func (m *Metrics) SetQuarantined(n int) { m.quarantined.Store(int64(n)) }

// SetWALReplayed records how many WAL records boot-time recovery
// replayed on top of the snapshots.
func (m *Metrics) SetWALReplayed(n int) { m.walReplayed.Store(int64(n)) }

// ObserveModelScore records one batch scored against a deployed model.
func (m *Metrics) ObserveModelScore() { m.modelScores.Add(1) }

// ObserveRetrain records one completed retrain attempt.
func (m *Metrics) ObserveRetrain(ok bool) {
	if ok {
		m.retrains.Add(1)
	} else {
		m.retrainErrors.Add(1)
	}
}

// ObservePredictions records n predictions served.
func (m *Metrics) ObservePredictions(n int) { m.predictions.Add(uint64(n)) }

// ObserveIngest records one ingest request that accepted n items.
func (m *Metrics) ObserveIngest(n int) {
	m.ingestRequests.Add(1)
	m.ingestedItems.Add(uint64(n))
}

// ObserveAdvance records one closed batch of n items and the sampler
// update latency.
func (m *Metrics) ObserveAdvance(n int, d time.Duration) {
	m.advances.Add(1)
	m.advancedItems.Add(uint64(n))
	m.advanceLat.Observe(d)
}

// ObserveCheckpoint records one full checkpoint pass over keys streams.
func (m *Metrics) ObserveCheckpoint(keys int, d time.Duration, err error) {
	m.checkpoints.Add(1)
	m.checkpointedKeys.Add(uint64(keys))
	m.checkpointLat.Observe(d)
	m.lastCheckpointUnix.Store(time.Now().Unix())
	if err != nil {
		m.checkpointErrors.Add(1)
	}
}

// SetRestored records how many streams boot-time restore brought back.
func (m *Metrics) SetRestored(n int) {
	m.restoredStreams.Store(int64(n))
}

// ObserveHibernation records one stream evicted to a stub.
func (m *Metrics) ObserveHibernation() { m.hibernations.Add(1) }

// ObserveHibernationError records one failed eviction attempt (the stream
// stays resident).
func (m *Metrics) ObserveHibernationError() { m.hibernationErrors.Add(1) }

// ObserveHydration records one cold-miss rehydration and its end-to-end
// latency (checkpoint read + restore + WAL tail replay + install).
func (m *Metrics) ObserveHydration(d time.Duration, err error) {
	if err != nil {
		m.hydrationErrors.Add(1)
		return
	}
	m.hydrations.Add(1)
	m.hydrationLat.Observe(d)
}

// WriteTo renders the counters in Prometheus text format. Registry-shape
// gauges (stream and shard counts) and the engine's queue snapshot are
// passed in by the caller so Metrics stays a pure accumulator; eng may be
// nil when the engine is disabled. Rendering snapshots state first and
// performs the response write lock-free, so a slow scraper cannot stall
// the ingest/advance hot paths.
func (m *Metrics) WriteTo(w io.Writer, streams, resident int, perShard []int, eng *engine.Stats, walSt *wal.Stats) error {
	_, err := w.Write(m.render(streams, resident, perShard, eng, walSt))
	return err
}

func (m *Metrics) render(streams, resident int, perShard []int, eng *engine.Stats, walSt *wal.Stats) []byte {
	var b []byte
	line := func(format string, args ...any) {
		b = fmt.Appendf(b, format+"\n", args...)
	}
	lat := func(name string, l *metrics.LatencyStats) {
		w, win := l.Snapshot()
		line("%s_count %d", name, w.N())
		line("%s{stat=%q} %g", name, "mean", w.Mean())
		line("%s{stat=%q} %g", name, "std", w.Std())
		line("%s{stat=%q} %g", name, "p50", metrics.QuantileOrZero(win, 0.50))
		line("%s{stat=%q} %g", name, "p95", metrics.QuantileOrZero(win, 0.95))
		line("%s{stat=%q} %g", name, "p99", metrics.QuantileOrZero(win, 0.99))
	}

	line("tbsd_ready %d", boolGauge(m.ready.Load()))
	line("tbsd_streams %d", streams)
	line("tbsd_streams_resident %d", resident)
	line("tbsd_hibernations_total %d", m.hibernations.Load())
	line("tbsd_hibernation_errors_total %d", m.hibernationErrors.Load())
	line("tbsd_hydrations_total %d", m.hydrations.Load())
	line("tbsd_hydration_errors_total %d", m.hydrationErrors.Load())
	lat("tbsd_hydration_latency_seconds", &m.hydrationLat)
	line("tbsd_deleted_streams_total %d", m.deletedStreams.Load())
	line("tbsd_handoffs_out_total %d", m.handoffsOut.Load())
	line("tbsd_handoffs_in_total %d", m.handoffsIn.Load())
	line("tbsd_handoff_errors_total %d", m.handoffErrors.Load())
	line("tbsd_ticker_lagged_total %d", m.tickerLagged.Load())
	line("tbsd_restore_quarantined_total %d", m.quarantined.Load())
	line("tbsd_shards %d", len(perShard))
	for i, n := range perShard {
		line("tbsd_shard_streams{shard=%q} %d", fmt.Sprint(i), n)
	}
	line("tbsd_restored_streams %d", m.restoredStreams.Load())
	line("tbsd_ingest_requests_total %d", m.ingestRequests.Load())
	line("tbsd_ingested_items_total %d", m.ingestedItems.Load())
	line("tbsd_advances_total %d", m.advances.Load())
	line("tbsd_advanced_items_total %d", m.advancedItems.Load())
	lat("tbsd_advance_latency_seconds", &m.advanceLat)
	line("tbsd_model_scored_batches_total %d", m.modelScores.Load())
	line("tbsd_model_retrains_total %d", m.retrains.Load())
	line("tbsd_model_retrain_errors_total %d", m.retrainErrors.Load())
	line("tbsd_model_predictions_total %d", m.predictions.Load())
	line("tbsd_checkpoints_total %d", m.checkpoints.Load())
	line("tbsd_checkpoint_errors_total %d", m.checkpointErrors.Load())
	line("tbsd_checkpointed_streams_total %d", m.checkpointedKeys.Load())
	lat("tbsd_checkpoint_duration_seconds", &m.checkpointLat)
	if last := m.lastCheckpointUnix.Load(); last != 0 {
		line("tbsd_checkpoint_last_unix_seconds %d", last)
	}
	if eng != nil {
		line("tbsd_engine_workers %d", eng.Workers)
		line("tbsd_engine_queue_capacity %d", eng.QueueCap)
		line("tbsd_engine_tasks_submitted_total %d", eng.Submitted)
		line("tbsd_engine_tasks_completed_total %d", eng.Completed)
		line("tbsd_engine_queue_pending %d", eng.Pending())
		line("tbsd_engine_backpressure_total %d", eng.Blocked)
		for i, d := range eng.Depths {
			line("tbsd_engine_queue_depth{worker=%q} %d", fmt.Sprint(i), d)
		}
		for i, d := range eng.DepthHWM {
			line("tbsd_engine_queue_depth_hwm{worker=%q} %d", fmt.Sprint(i), d)
		}
		if eng.BackgroundWorkers > 0 {
			line("tbsd_engine_background_workers %d", eng.BackgroundWorkers)
			line("tbsd_engine_background_submitted_total %d", eng.BackgroundSubmitted)
			line("tbsd_engine_background_completed_total %d", eng.BackgroundCompleted)
			line("tbsd_engine_background_pending %d", eng.BackgroundPending())
		}
	}
	line("tbsd_wal_enabled %d", boolGauge(walSt != nil))
	if walSt != nil {
		line("tbsd_wal_appended_records_total %d", walSt.Records)
		line("tbsd_wal_appended_bytes_total %d", walSt.Bytes)
		line("tbsd_wal_append_errors_total %d", walSt.AppendErrors)
		line("tbsd_wal_fsyncs_total %d", walSt.Fsyncs)
		line("tbsd_wal_fsync_seconds_count %d", walSt.FsyncCount)
		line("tbsd_wal_fsync_seconds{stat=%q} %g", "mean", walSt.FsyncMean)
		line("tbsd_wal_fsync_seconds{stat=%q} %g", "std", walSt.FsyncStd)
		line("tbsd_wal_fsync_seconds{stat=%q} %g", "p50", walSt.FsyncP50)
		line("tbsd_wal_fsync_seconds{stat=%q} %g", "p95", walSt.FsyncP95)
		line("tbsd_wal_fsync_seconds{stat=%q} %g", "p99", walSt.FsyncP99)
		line("tbsd_wal_segments %d", walSt.Segments)
		line("tbsd_wal_truncated_segments_total %d", walSt.TruncatedSegments)
		line("tbsd_wal_last_lsn %d", walSt.LastLSN)
		line("tbsd_wal_synced_lsn %d", walSt.SyncedLSN)
		line("tbsd_wal_replayed_records %d", m.walReplayed.Load())
	}
	return b
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
