// Command tbsd serves temporally-biased samples over HTTP: one lazily
// created sampler per stream key, all built from one configured scheme,
// with wall-clock batch boundaries, periodic checkpointing, and Prometheus
// text metrics. See internal/server for the architecture and README.md
// for a curl quickstart.
//
// Usage:
//
//	tbsd -addr :8377 -scheme rtbs -lambda 0.07 -n 1000 \
//	     -batch-interval 10s -checkpoint-dir /var/lib/tbsd
//	tbsd -config tbsd.json            # sampler config from JSON instead
//
// API:
//
//	POST /v1/streams/{key}/items     ingest (JSON array = bulk, else one
//	                                 item); ?advance=true closes the batch.
//	                                 With Content-Type application/x-ndjson
//	                                 the body streams one JSON value per
//	                                 line through the sharded zero-copy
//	                                 decoder; ?batch=N closes a pipelined
//	                                 batch boundary every N items
//	POST /v1/streams/{key}/advance   explicit batch boundary
//	GET  /v1/streams/{key}/sample    realized sample
//	GET  /v1/streams/{key}/stats     size/weight/clock bookkeeping
//	DELETE /v1/streams/{key}         delete the stream (registry entry,
//	                                 checkpoint file and WAL history);
//	                                 later reads 404, later ingest
//	                                 recreates it fresh
//	GET  /v1/streams                 enumerate stream keys
//	PUT  /v1/streams/{key}/model     attach a managed model (learner
//	                                 knn|linreg|nb, policy always|every:K|
//	                                 drift); labeled items are JSON rows
//	                                 {"x":[...],"y":N} on the ordinary
//	                                 ingest paths
//	POST /v1/streams/{key}/model/predict   predict with the deployed model
//	GET  /v1/streams/{key}/model/stats     batch error, retrains, staleness
//	POST /v1/streams/{key}/handoff   migrate the stream to another node
//	                                 (?target=http://host:port); the source
//	                                 freezes the stream, ships its state and
//	                                 WAL tail, tombstones it locally, and
//	                                 later requests answer 421 with the new
//	                                 home
//	POST /v1/streams/{key}/adopt     target side of a handoff (internal)
//	GET  /metrics                    Prometheus text metrics
//	GET  /healthz                    liveness
//	GET  /readyz                     readiness (503 until boot restore
//	                                 completes, 503 again while draining)
//
// With a model attached, every batch boundary scores the deployed model
// on the closed batch and retrains it from the stream's current
// temporally-biased sample when the policy fires; training runs on
// -retrain-workers background workers and the new model is swapped in
// atomically, so ingest and predict never wait on a training run. Model,
// policy state and counters ride the per-stream checkpoint.
//
// Batch boundaries are applied asynchronously by -shards engine workers,
// each draining a bounded mailbox of -queue closed batches (key-affine, so
// per-stream order is preserved); a full mailbox applies backpressure to
// that worker's streams. -queue 0 disables the engine and applies batches
// inline.
//
// On SIGINT/SIGTERM the daemon drains HTTP, stops the background loops,
// and writes a final checkpoint so a restart resumes every stream's exact
// stochastic process.
//
// With -wal the daemon also journals every acknowledged operation to a
// write-ahead log under <checkpoint-dir>/wal before acknowledging it
// (group-commit fsync by default; see -wal-fsync), and boot replays the
// log tail on top of the newest checkpoints — so even a kill -9 loses at
// most the last un-fsynced group, not the traffic since the last
// periodic checkpoint. Checkpoint passes double as WAL compaction.
//
// With -max-resident and/or -idle-after (memory tiering) the daemon keeps
// only the hottest streams' state in memory: a background sweep hibernates
// least-recently-used idle streams down to their checkpoint files, and a
// request touching a hibernated stream rehydrates it transparently through
// the crash-recovery path (checkpoint + WAL tail). This bounds RSS by the
// working set rather than the total tenant count — a node can own millions
// of streams while holding only -max-resident of them resident. See the
// Operations section of README.md for capacity planning.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/tbs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8377", "listen address (use :0 for an ephemeral port)")
		advertise   = flag.String("advertise", "", "URL peers use to reach this node, e.g. http://10.0.0.5:8377 (default: derived from -addr); identifies this node in handoff envelopes and logs")
		configPath  = flag.String("config", "", "JSON file holding the sampler config (overrides the scheme flags)")
		scheme      = flag.String("scheme", "rtbs", "sampling scheme for every stream (see tbstream -schemes)")
		lambda      = flag.Float64("lambda", 0.07, "decay rate per batch interval")
		n           = flag.Int("n", 1000, "sample size bound / target per stream")
		meanBatch   = flag.Float64("meanbatch", 100, "assumed mean batch size (T-TBS only)")
		horizon     = flag.Float64("horizon", 10, "time-window horizon in batches (window schemes only)")
		seed        = flag.Uint64("seed", 1, "base RNG seed; per-stream seeds are derived from it")
		shards      = flag.Int("shards", 16, "lock stripes in the keyed registry and engine shard workers")
		queue       = flag.Int("queue", 128, "bounded mailbox depth per engine worker (0 = apply batches inline, no engine)")
		retrainW    = flag.Int("retrain-workers", 2, "background workers training managed models (0 = retrain inline at the batch boundary)")
		batchIv     = flag.Duration("batch-interval", 0, "wall-clock batch boundary period for every stream (0 = explicit /advance only)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for per-stream checkpoints (restore on boot, save periodically and on shutdown)")
		ckptIv      = flag.Duration("checkpoint-interval", 30*time.Second, "background checkpoint period")
		walOn       = flag.Bool("wal", false, "journal every acknowledged operation to <checkpoint-dir>/wal and replay it on boot; a kill -9 then loses at most the last un-fsynced group instead of a checkpoint interval")
		walFsync    = flag.String("wal-fsync", "group", "WAL durability policy: group (one fsync per concurrent batch of requests), always (fsync per record), off (OS page cache only)")
		quarantine  = flag.Bool("restore-quarantine", false, "boot past a corrupt checkpoint file by renaming it to *.corrupt instead of failing (default: strict fail); with -max-resident or -idle-after, boot reads only the files of the streams the WAL names, and one more, so another stream's file is checked on its first request (500 hydrate_failed) and is not quarantined")
		maxPending  = flag.Int("max-pending", 1<<20, "max items in one stream's open batch (negative = unbounded)")
		maxStreams  = flag.Int("max-streams", 1<<16, "max live streams; creation beyond it gets 429 (negative = unbounded)")
		maxResident = flag.Int("max-resident", 0, "max streams resident in memory; beyond it the least-recently-used idle streams hibernate to their checkpoint files and rehydrate on touch, and boot restores only the streams the WAL names (plus one that checks the scheme), validating every other file on its first touch (0 = unbounded; requires -checkpoint-dir)")
		idleAfter   = flag.Duration("idle-after", 0, "hibernate any stream untouched for this long, regardless of -max-resident (0 = never; requires -checkpoint-dir)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug also emits one line per traced request)")
		debugAddr   = flag.String("debug-addr", "", "opt-in debug listener (pprof, runtime gauges, trace ring), e.g. 127.0.0.1:6060; empty disables")
		traceRing   = flag.Int("trace-ring", obs.DefaultRingSize, "recent-trace ring capacity for /debug/trace/recent (0 disables tracing entirely)")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbsd:", err)
		os.Exit(2)
	}
	logger = logger.With("app", "tbsd")
	fatal := func(args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"tbsd:"}, args...)...)
		os.Exit(2)
	}

	cfg, err := samplerConfig(*configPath, *scheme, *lambda, *n, *meanBatch, *horizon, *seed)
	if err != nil {
		fatal(err)
	}
	walDir := ""
	if *walOn {
		if *ckptDir == "" {
			fatal("-wal requires -checkpoint-dir (checkpoints are the WAL's compaction step)")
		}
		walDir = filepath.Join(*ckptDir, "wal")
	}
	queueDepth := *queue
	if queueDepth <= 0 {
		queueDepth = -1 // Options semantics: negative disables the engine.
	}
	retrainWorkers := *retrainW
	if retrainWorkers <= 0 {
		retrainWorkers = -1 // Options semantics: negative disables the lane.
	}
	adv := *advertise
	if adv == "" {
		adv = "http://" + *addr
	}
	var tracer *obs.Tracer
	if *traceRing > 0 {
		tracer = obs.NewTracer(*traceRing, logger)
	}
	srv, err := server.New(server.Options{
		Sampler:            cfg,
		Advertise:          adv,
		Shards:             *shards,
		QueueDepth:         queueDepth,
		RetrainWorkers:     retrainWorkers,
		BatchInterval:      *batchIv,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptIv,
		WALDir:             walDir,
		WALFsync:           *walFsync,
		RestoreQuarantine:  *quarantine,
		MaxPendingItems:    *maxPending,
		MaxStreams:         *maxStreams,
		MaxResident:        *maxResident,
		IdleAfter:          *idleAfter,
		Logger:             logger,
		Trace:              tracer,
	})
	if err != nil {
		fatal(err)
	}

	// Install the signal handler before the listener opens: once /readyz
	// can answer 200, a SIGINT/SIGTERM must drain and run the final
	// checkpoint, never kill the process with the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Info(fmt.Sprintf("listening on %s (scheme %s)", lis.Addr(), cfg.Scheme),
		"addr", lis.Addr().String(), "scheme", string(cfg.Scheme))

	var debugSrv *http.Server
	if *debugAddr != "" {
		dlis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		debugSrv = &http.Server{Handler: obs.NewDebugMux(tracer)}
		logger.Info("debug listener on "+dlis.Addr().String(), "addr", dlis.Addr().String())
		go func() {
			if err := debugSrv.Serve(dlis); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	srv.Start()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(lis) }()

	exitCode := 0
	select {
	case s := <-sig:
		logger.Info("received signal, shutting down", "signal", s.String())
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			// A dead listener is a failure even though shutdown (and its
			// final checkpoint) still proceeds; the supervisor must see a
			// nonzero exit so it restarts the daemon.
			logger.Error("serve failed", "err", err)
			exitCode = 1
		}
	}

	// Separate deadlines: a slow HTTP drain must not eat into the final
	// checkpoint's budget.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelDrain()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Error("http shutdown failed", "err", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	stopCtx, cancelStop := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelStop()
	if err := srv.Stop(stopCtx); err != nil {
		logger.Error("stop failed", "err", err)
		exitCode = 1
	}
	logger.Info("shutdown complete")
	os.Exit(exitCode)
}

// samplerConfig builds the per-stream sampler config: from a JSON file
// when -config is given, otherwise from the scheme flags — passing only
// the options the chosen scheme accepts, so e.g. -scheme window ignores
// the default -lambda rather than rejecting it.
func samplerConfig(path, scheme string, lambda float64, n int, meanBatch, horizon float64, seed uint64) (tbs.Config, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return tbs.Config{}, err
		}
		var cfg tbs.Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			return tbs.Config{}, fmt.Errorf("config %s: %w", path, err)
		}
		if err := cfg.Validate(); err != nil {
			return tbs.Config{}, fmt.Errorf("config %s: %w", path, err)
		}
		return cfg, nil
	}
	cfg, err := tbs.Config{
		Lambda: &lambda, MaxSize: &n, MeanBatch: &meanBatch,
		Horizon: &horizon, Seed: &seed,
	}.RestrictedTo(scheme)
	if err != nil {
		return tbs.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return tbs.Config{}, err
	}
	return cfg, nil
}
