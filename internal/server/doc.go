// Package server implements tbsd, a multi-tenant temporally-biased
// sampling service: a long-running process that maintains many independent
// samplers — one per stream key, created lazily from one configured scheme
// — behind an HTTP/JSON API.
//
// The paper's model is batch time: batches arrive at t = 1, 2, … and every
// sampler decays item weights per batch. The server maps that model onto a
// network service in two ways. Clients may mark batch boundaries
// explicitly (POST /v1/streams/{key}/advance), or the server's wall-clock
// ticker closes every stream's open batch each -batch-interval, so one
// batch-time unit corresponds to one real-time interval and λ becomes a
// decay rate per interval.
//
// Architecture:
//
//   - registry: N lock-striped shards hash stream keys to per-key entries,
//     so unrelated streams never contend on one lock. Each entry holds a
//     tbs.Concurrent sampler (read paths share its RLock) plus the open
//     batch buffer, guarded by a per-entry mutex.
//   - handlers: POST items (one ingest loop over a buffered JSON body,
//     streaming NDJSON and x-tbs-bin frames, with pooled decode buffers
//     and ?batch=N pipelined boundaries for all three), POST advance,
//     GET sample / stats, GET /v1/streams, GET /metrics, GET /healthz.
//   - engine (internal/engine): closed batches are enqueued to key-affine
//     shard workers with bounded mailboxes and applied off the request
//     path through the allocation-free Advance/AppendSample core path;
//     per-stream order is preserved, reads flush the stream's queue
//     first, and shutdown drains every mailbox before the final
//     checkpoint.
//   - ticker: advances every sampler each batch interval, including
//     streams that received nothing — an empty batch still advances the
//     decay clock, exactly as in the paper.
//   - checkpointer: periodically persists every sampler through the
//     tbs.Snapshot envelope (plus its open batch and counters) into one
//     file per key, atomically; on boot the server restores the directory
//     and every stream resumes its exact stochastic process.
//   - metrics: ingest/advance/checkpoint counters and latency
//     histograms (internal/obs, the buckets every trace stage uses),
//     rendered in Prometheus text format.
package server
