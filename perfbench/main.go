// Command perfbench is the repository's end-to-end benchmark of tbsd. It
// runs the tbsd binary built from the tree under test as a child process
// on loopback, drives one named workload at it from this single generator
// process over at most two connections (the box's nproc), checks the
// daemon's outputs against in-process references, and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},…}}
//
// Usage (run.sh builds both binaries first):
//
//	perfbench -tbsd .bench_build/tbsd -workdir .bench_build \
//	    --workload ingest --seed 1 --seconds 12 --trace 0
//
// With --trace 0 tbsd runs with -trace-ring 0 and the end-to-end metrics
// are printed. With --trace 1 the run measures the workload twice, once
// untraced and once with tbsd's default trace ring, then times calls into
// each layer's public functions from this package on the workload's own
// generated inputs, and prints the per-layer metrics; the spans it records
// around those calls and around every client request are written to
// <workdir>/spans/.
//
// Workloads, and why each was chosen:
//
//   - ingest: 16 keys, each pinned to one connection; half send canonical
//     NDJSON value rows, half x-tbs-bin frames, 5000 items per request
//     with ?batch=1000. tbsd runs -wal -wal-fsync off with the
//     checkpointer parked. An open loop at a fixed request rate, then
//     kill -9 and timed restarts that each replay exactly that phase's
//     WAL, then a closed loop on both connections. Wire decode, WAL
//     encode/write, the engine hand-off and the sampler do almost all the
//     work while models and tiering sit idle. fsync is off because at
//     this volume group-commit throughput tracks the VM's shared disk, not
//     the code; the two workloads below measure fsync with small requests.
//   - model: 8 streams, each with a kNN model (k=7, policy always) over
//     R-TBS with λ=0.07 and n=1000 — the paper's §6.2 setting — fed
//     labeled GMM rows with a regime change mid-run, WAL with group fsync.
//     Connection A sends each stream a batch with ?advance=true and then
//     reads model/stats; connection B sends small bulk predicts in an
//     open loop. Then kill -9 and timed restarts, each replaying (and so
//     rescoring and retraining on) every boundary of the open loop, and a
//     closed loop of batches. This is the only workload where ml, manage
//     and the engine's background lane dominate, and reads run beside
//     writes, so a retrain-path gain that slows predicts shows.
//   - tenants: 4000 tenants with n=100 and -max-resident 400, WAL with
//     group fsync; an open loop whose keys follow Zipf(1.1) over a seeded
//     permutation, 80% 20-item JSON ingests with ?advance=true and 20%
//     sample reads; SIGTERM and timed restarts. The working set is larger
//     than the resident bound, so hydration, checkpoint writes on
//     eviction, TailForKey and one group-commit fsync per request
//     dominate while wire and ml do little; its restart loads snapshots
//     where the others replay the WAL. 4000 tenants, not more, because
//     writing the population's checkpoint files (two fsyncs each) must
//     fit in one run.
//
// Every workload measures each end-to-end metric. The gated ones are
// tbsd's peak RSS and its costs in CPU time: for set-up (median of several
// set-ups), for each restart until /readyz answers 200 (median of several
// restarts), per item acknowledged in the closed loop and per open-loop
// request. CPU time, unlike wall time, does not count what the hypervisor
// steals, and the costs are scaled by a reference job timed between
// phases (see calib.go), so minutes in which neighbours slow the shared
// machine do not read as regressions. Wall-clock numbers — restart time,
// closed-loop items/s, and open-loop latency from each request's due
// time, of writes until they are visible (ingest acknowledgements; for
// model streams, the retrain showing in model/stats) and of all requests
// — are printed with their sample counts beside the share of CPU time
// stolen meanwhile; on the shared 2-vCPU Xeon VM the benchmark was sized
// on they moved by 30-100% IQR across ten runs of identical code, so they
// are not gated. Offered rates are constants of this package, never
// derived from a capacity measured in the same run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tbsd     string
	workdir  string
	commit   string
	tiny     bool // small sizes for the package's own test
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run, printing the report and the result line
// to stdout, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same requests")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds, split across the workload's timed phases")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tbsd tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.tbsd, "tbsd", ".bench_build/tbsd", "tbsd binary built from the tree under test")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for run data (removed after each run) and span files")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the tree under test, for provenance")
	fs.BoolVar(&cfg.tiny, "tiny", false, "tiny sizes, for the package's self-test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if _, err := os.Stat(cfg.tbsd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: tbsd binary:", err)
		return 2
	}

	b, err := newBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A signal to the benchmark must still stop the daemons it started.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		b.close()
		os.Exit(1)
	}()
	res, err := b.runWorkload(w)
	b.close()
	signal.Stop(sigc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range b.report {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workload is one traffic mix. run drives one pass against a fresh
// daemon and returns what it measured; traced passes also fill the
// in-situ layer rows.
type workload struct {
	run      func(b *bench, p *pass) error
	layers   func(b *bench) error // isolated layer calls on the workload's inputs
	setups   int                  // set-ups per trace-0 run; setup_s is their median
	restarts int                  // timed restarts per trace-0 run; recovery_s is their median
}

// Cheap set-ups repeat five times, so their median is steady; the tenants
// set-up boots a whole tenant population and repeats three times. Every
// restart replays a WAL or loads a population, so restarts repeat three
// times.
var workloads = map[string]workload{
	"ingest":  {run: runIngest, layers: ingestLayers, setups: 5, restarts: 3},
	"model":   {run: runModel, layers: modelLayers, setups: 5, restarts: 3},
	"tenants": {run: runTenants, layers: tenantLayers, setups: 3, restarts: 3},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runWorkload runs the end-to-end pass (or, traced, an untraced and a
// traced pass plus the isolated layer calls) and assembles the result.
func (b *bench) runWorkload(w workload) (*result, error) {
	b.printEnv()
	if !b.cfg.trace {
		p := b.newPass(false, b.cfg.seconds, w.setups, w.restarts)
		if err := w.run(b, p); err != nil {
			return nil, err
		}
		return p.endToEnd(b)
	}
	// Traced: the overhead compares an untraced and a traced pass of the
	// same length, each half of the measured time.
	plain := b.newPass(false, b.cfg.seconds/2, 1, 1)
	if err := w.run(b, plain); err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	traced := b.newPass(true, b.cfg.seconds/2, 1, 1)
	if err := w.run(b, traced); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	b.tracedPass = traced
	b.inSitu(traced)
	if err := w.layers(b); err != nil {
		return nil, fmt.Errorf("layer calls: %w", err)
	}
	b.overhead(plain, traced)
	if err := b.spans.write(filepath.Join(b.cfg.workdir, "spans",
		fmt.Sprintf("%s-seed%d.json", b.cfg.workload, b.cfg.seed))); err != nil {
		return nil, err
	}
	return b.perLayer(plain, traced)
}
