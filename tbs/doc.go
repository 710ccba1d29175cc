// Package tbs is the public API of the repro library: temporally-biased
// sampling for online model management, after Hentschel, Haas and Tian
// (EDBT 2018). It is the one supported way to consume the samplers from
// outside this module; the implementations live under internal/ and may
// change freely.
//
// Construct a sampler by scheme name with functional options:
//
//	s, err := tbs.New[string]("rtbs", tbs.Lambda(0.07), tbs.MaxSize(1000), tbs.Seed(1))
//	s.Advance(batch)            // fold in the next batch of the stream
//	items := s.Sample()         // realize the current sample
//
// tbs.Schemes describes every registered scheme — which options it accepts
// and requires — so callers can build configuration UIs or CLI flags
// generically; see cmd/tbstream for an example.
//
// Every sampler checkpoints into a single tagged envelope that round-trips
// through encoding/json and encoding/gob:
//
//	snap, err := s.Snapshot()
//	...
//	s2, err := tbs.Restore[string](snap)
//
// A restored sampler continues the exact stochastic process of the
// original: feeding both the same future batches yields identical samples.
// The item type T must be JSON-serializable.
//
// Samplers are single-goroutine objects; wrap one in tbs.NewConcurrent to
// share it between request handlers (read-only calls, Sample included,
// share an RWMutex read lock, so readers never serialize against each
// other). Scheme-specific
// capabilities beyond the core interface are reached through the capability
// helpers tbs.Weight, tbs.AdvanceAt and tbs.Now, which report whether the
// scheme supports them.
//
// tbs.Config is the declarative counterpart of the functional options — a
// JSON-decodable struct consumed by NewFromConfig — for processes that
// build many samplers from one stored configuration; tbs.DeriveSeed turns
// a base seed plus a stream key into well-separated per-key seeds (see
// internal/server for the keyed registry built on both).
//
// The paper's end goal — online model management — is built on exactly
// this surface: score a deployed model on each incoming batch, Advance
// the sampler, and when a retraining policy fires, realize the current
// sample with AppendSample (a caller-owned buffer, so the read side stays
// allocation-free) and retrain from it. internal/manage packages the loop
// for embedding; the tbsd daemon (internal/server) serves it over HTTP
// with per-stream models, asynchronous retraining and checkpointed model
// state. Realizing a sample changes no state: every read between two
// batches returns the same sample, the one a retrain at that boundary
// trains on, so a deterministic replay need not repeat the reads.
package tbs
