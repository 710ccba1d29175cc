package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// maxLagMs bounds how late the generator itself may start a request
// against its schedule (p99, beyond any wait for the connection to free
// up). A pass whose generator fell further behind measured the generator,
// not tbsd, and is rejected.
const maxLagMs = 50.0

// settle is how long the benchmark waits after /readyz turns 200 before
// it sends SIGTERM: tbsd reports ready a moment before it installs its
// signal handler, and a SIGTERM in that window kills it without the final
// checkpoint.
const settle = 100 * time.Millisecond

// pass is one measured run of a workload against fresh daemons. Costs are
// tbsd's CPU time (user+system, every thread); wall-clock numbers are
// reported beside them.
type pass struct {
	traced   bool
	seconds  float64
	setups   int
	restarts int

	setupCPU, setupWall       []float64 // per set-up: exec → end of warm-up
	recoveryCPU, recoveryWall []float64 // per restart: exec → /readyz 200
	rssKB                     int64

	closedItems float64 // items acknowledged in the closed loop
	closedSecs  float64
	closedCPU   float64 // tbsd CPU seconds over the closed loop
	closedSteal float64 // % of the machine's CPU time stolen meanwhile

	openCPU   float64 // tbsd CPU seconds over the open loop
	openReqs  int64
	openSteal float64

	writes samples // open-loop writes, due → visible, ms
	reads  samples // open-loop reads (predicts, sample reads), ms
	all    samples // every open-loop request, ms
	lag    samples // generator lag per open-loop request, ms

	attempted int64
	failed    int64

	ref []float64 // refJob CPU seconds, taken between phases

	delta, last     promSnap // traced passes: /metrics deltas summed over the timed phases, and the last scrape
	timedRequests   int64
	residentAtReady float64
}

func (b *bench) newPass(traced bool, seconds float64, setups, restarts int) *pass {
	return &pass{traced: traced, seconds: seconds, setups: setups, restarts: restarts}
}

// calibrate times refJob now; call it only while tbsd is idle.
func (p *pass) calibrate() { p.ref = append(p.ref, refCPU(3)) }

// speed scales this pass's CPU costs to the reference machine.
func (p *pass) speed() float64 { return refNominal / median(p.ref) }

// noteExit folds an exited daemon's peak RSS into the pass.
func (p *pass) noteExit(d *daemon) {
	if d.rssKB > p.rssKB {
		p.rssKB = d.rssKB
	}
}

// laneRec is one lane's share of an open loop, merged after the loop.
type laneRec struct {
	writes, reads, all, lag samples
	attempted, failed       int64
}

// openOp sends open-loop request i of a lane. write marks requests whose
// latency counts as write-to-visible; a non-nil error counts the request
// as failed.
type openOp func(lane, i int, l *lane) (write bool, err error)

// openLoop runs each lane's schedule (due offsets from a common start)
// and times every request from when it was due. A lane sends its next
// request when it is due or when the previous one returned, whichever is
// later; how much later than that the generator actually sent is its lag.
func (b *bench) openLoop(p *pass, name string, sched [maxConns][]time.Duration, op openOp) error {
	phase := b.spans.id()
	p.calibrate()
	steal := startSteal()
	cpu0 := b.cur.cpuSeconds()
	start := time.Now().Add(5 * time.Millisecond)
	var recs [maxConns]laneRec
	var wg sync.WaitGroup
	for ln := range sched {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			r := &recs[ln]
			l := b.lanes[ln]
			prevEnd := start
			for i, off := range sched[ln] {
				due := start.Add(off)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ready := due
				if prevEnd.After(ready) {
					ready = prevEnd
				}
				sent := time.Now()
				write, err := op(ln, i, l)
				end := time.Now()
				prevEnd = end
				r.attempted++
				r.lag = append(r.lag, ms(sent.Sub(ready)))
				if err != nil {
					r.failed++
					if r.failed <= 3 {
						fmt.Fprintf(stderr, "perfbench: %s lane %d request %d: %v\n", name, ln, i, err)
					}
					continue
				}
				lat := ms(end.Sub(due))
				r.all = append(r.all, lat)
				if write {
					r.writes = append(r.writes, lat)
				} else {
					r.reads = append(r.reads, lat)
				}
				b.spans.add(0, phase, name+"/request", sent, end)
			}
		}(ln)
	}
	wg.Wait()
	b.spans.add(phase, 0, name, start, time.Now())
	b.mark(name)
	p.openCPU += b.cur.cpuSeconds() - cpu0
	p.openSteal = steal.pct()
	for _, r := range recs {
		p.writes = append(p.writes, r.writes...)
		p.reads = append(p.reads, r.reads...)
		p.all = append(p.all, r.all...)
		p.lag = append(p.lag, r.lag...)
		p.attempted += r.attempted
		p.failed += r.failed
		p.openReqs += r.attempted
		p.timedRequests += r.attempted
	}
	if lag := p.lag.quantile(0.99); !b.cfg.tiny && lag > maxLagMs {
		return fmt.Errorf("%s: generator fell behind its schedule (lag p99 %.2f ms > %.0f ms)", name, lag, maxLagMs)
	}
	return nil
}

// closedOp sends closed-loop request i of a lane and returns how many
// items it acknowledged.
type closedOp func(lane, i int, l *lane) (items int, err error)

// closedLoop keeps every lane busy for dur and records the items
// acknowledged and tbsd's CPU time meanwhile.
func (b *bench) closedLoop(p *pass, name string, dur time.Duration, op closedOp) {
	phase := b.spans.id()
	p.calibrate()
	steal := startSteal()
	cpu0 := b.cur.cpuSeconds()
	start := time.Now()
	deadline := start.Add(dur)
	var items, attempted, failed [maxConns]int64
	var wg sync.WaitGroup
	for ln := range b.lanes {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			l := b.lanes[ln]
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				n, err := op(ln, i, l)
				attempted[ln]++
				if err != nil {
					failed[ln]++
					if failed[ln] <= 3 {
						fmt.Fprintf(stderr, "perfbench: %s lane %d request %d: %v\n", name, ln, i, err)
					}
					continue
				}
				items[ln] += int64(n)
				b.spans.add(0, phase, name+"/request", t0, time.Now())
			}
		}(ln)
	}
	wg.Wait()
	end := time.Now()
	b.mark(name)
	p.closedCPU += b.cur.cpuSeconds() - cpu0
	p.closedSteal = steal.pct()
	b.spans.add(phase, 0, name, start, end)
	for ln := range b.lanes {
		p.closedItems += float64(items[ln])
		p.attempted += attempted[ln]
		p.failed += failed[ln]
		p.timedRequests += attempted[ln]
	}
	p.closedSecs += end.Sub(start).Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spread returns n offsets evenly spaced at rate per second.
func spread(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return math.NaN()
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// tail reports the highest of p99, p95 and p90 that has ten samples
// beyond it (p50 if none has), with its sample count.
func (b *bench) tail(name string, s samples) {
	q := 0.5
	for _, c := range []float64{0.99, 0.95, 0.90} {
		if s.beyond(c) >= 10 {
			q = c
			break
		}
	}
	b.reportf("%-28s %12.4f ms   n=%d beyond=%d", fmt.Sprintf("%s_p%.0f_ms", name, q*100), s.quantile(q), len(s), s.beyond(q))
}

// endToEnd assembles the trace-0 result: the gated costs, then the
// wall-clock numbers the report prints beside them (see the package doc
// for why those are not gated).
func (p *pass) endToEnd(b *bench) (*result, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	k := p.speed()
	setup, recovery := median(p.setupCPU), median(p.recoveryCPU)
	cpuPerItem, cpuPerReq := p.closedCPU*1e9/p.closedItems, p.openCPU*1e6/float64(p.openReqs)
	put("setup_s", "s", setup*k)
	put("rss_peak_mb", "MB", float64(p.rssKB)/1024)
	put("recovery_cpu_s", "s", recovery*k)
	put("ingest_cpu_ns_per_item", "ns/item", cpuPerItem*k)
	put("req_cpu_us", "us", cpuPerReq*k)
	b.reportf("# CPU costs are scaled by %.4f: refJob took %.4f s of CPU (median of %d calibrations) against %.3f s nominal", k, median(p.ref), len(p.ref), refNominal)
	b.reportf("%-28s %12.4f s    tbsd CPU from exec to end of warm-up, median of %d; raw %.4f s, wall %.4f s",
		"setup_s", setup*k, len(p.setupCPU), setup, median(p.setupWall))
	b.reportf("%-28s %12.4f MB   max VmHWM over the pass's tbsd processes", "rss_peak_mb", float64(p.rssKB)/1024)
	b.reportf("%-28s %12.4f s    tbsd CPU from exec to /readyz 200, median of %d; raw %.4f s",
		"recovery_cpu_s", recovery*k, len(p.recoveryCPU), recovery)
	b.reportf("%-28s %12.2f ns/item  raw %.2f; %.3f CPU-s over %.0f closed-loop items",
		"ingest_cpu_ns_per_item", cpuPerItem*k, cpuPerItem, p.closedCPU, p.closedItems)
	b.reportf("%-28s %12.2f us   raw %.2f; %.3f CPU-s over %d open-loop requests",
		"req_cpu_us", cpuPerReq*k, cpuPerReq, p.openCPU, p.openReqs)
	b.reportf("# wall clock (report only; CPU steal %.1f%% in the open loop, %.1f%% in the closed loop)", p.openSteal, p.closedSteal)
	b.reportf("%-28s %12.4f s    restarts %v", "recovery_s", median(p.recoveryWall), p.recoveryWall)
	b.reportf("%-28s %12.1f items/s   %.0f items over %.3f s", "ingest_items_per_s", p.closedItems/p.closedSecs, p.closedItems, p.closedSecs)
	for _, c := range []struct {
		name string
		s    samples
	}{{"write", p.writes}, {"req", p.all}, {"read", p.reads}} {
		if len(c.s) == 0 {
			continue
		}
		b.reportf("%-28s %12.4f ms   n=%d beyond=%d", c.name+"_p50_ms", c.s.quantile(0.5), len(c.s), c.s.beyond(0.5))
		b.tail(c.name, c.s)
	}
	b.reportf("%-28s %12.4f ms   p99=%.4f max=%.4f n=%d", "generator_lag_p50_ms",
		p.lag.quantile(0.5), p.lag.quantile(0.99), p.lag.quantile(1), len(p.lag))
	b.reportf("%-28s %12.6f      failed=%d attempted=%d", "error_rate", float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted)
	b.reportf("# wall time per phase: %s", strings.Join(b.phases, " "))
	return &result{Correct: len(b.checks) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// addDelta folds the /metrics change between two scrapes of one daemon
// into the pass (a restart resets the counters, so each daemon's share is
// taken separately).
func (p *pass) addDelta(before, after promSnap) {
	if p.delta == nil {
		p.delta = promSnap{}
	}
	for k, v := range after {
		p.delta[k] += v - before[k]
	}
	if p.last == nil {
		p.last = promSnap{}
	}
	for k, v := range after {
		if v > p.last[k] {
			p.last[k] = v
		}
	}
}

// setLayer records one per-layer row.
func (b *bench) setLayer(name, unit string, v float64, base string) {
	b.layers[name] = layerRow{value: v, unit: unit, base: base}
}

// inSitu derives the /metrics-delta rows of a traced pass.
func (b *bench) inSitu(p *pass) {
	d := func(name string) float64 { return p.delta.sum(name) }
	ratio := func(row, unit, num, den string) {
		n, dd := d(num), d(den)
		v := 0.0
		if dd > 0 {
			v = n / dd
		}
		b.setLayer(row, unit, v, fmt.Sprintf("%s=%.0f / %s=%.0f", num, n, den, dd))
	}
	items := d("tbsd_ingested_items_total")
	b.setLayer("wal.bytes_per_item", "B/item", d("tbsd_wal_appended_bytes_total")/math.Max(items, 1),
		fmt.Sprintf("bytes=%.0f items=%.0f", d("tbsd_wal_appended_bytes_total"), items))
	ratio("wal.records_per_fsync", "ratio", "tbsd_wal_appended_records_total", "tbsd_wal_fsyncs_total")
	ratio("engine.backpressure_ratio", "ratio", "tbsd_engine_backpressure_total", "tbsd_engine_tasks_submitted_total")
	b.setLayer("engine.queue_depth_hwm", "count", p.last.max("tbsd_engine_queue_depth_hwm"),
		fmt.Sprintf("workers=%.0f", p.last.sum("tbsd_engine_workers")))
	ratio("model.retrains_per_boundary", "ratio", "tbsd_model_retrains_total", "tbsd_model_scored_batches_total")
	reqs := float64(p.timedRequests)
	b.setLayer("server.hydrations_per_req", "ratio", d("tbsd_hydrations_total")/math.Max(reqs, 1),
		fmt.Sprintf("hydrations=%.0f requests=%.0f", d("tbsd_hydrations_total"), reqs))
	b.setLayer("server.hibernations_per_req", "ratio", d("tbsd_hibernations_total")/math.Max(reqs, 1),
		fmt.Sprintf("hibernations=%.0f requests=%.0f", d("tbsd_hibernations_total"), reqs))
	for _, ks := range stageNames {
		kind, stage := ks[0], ks[1]
		// The series name as tbsd renders it, label values escaped.
		lbl := `{kind="` + obs.EscapeLabel(kind) + `",stage="` + obs.EscapeLabel(stage) + `"}`
		sum := d("tbsd_trace_stage_duration_seconds_sum" + lbl)
		cnt := d("tbsd_trace_stage_duration_seconds_count" + lbl)
		v := 0.0
		if cnt > 0 {
			v = sum / cnt * 1e6
		}
		b.setLayer("obs.stage."+kind+"."+stage+"_us", "us", v, fmt.Sprintf("traces=%.0f", cnt))
	}
	b.setLayer("server.resident_at_ready", "count", p.residentAtReady, "restarted daemon at /readyz 200")
}

// stageNames are tbsd's trace stages of the kinds the workloads exercise.
var stageNames = [][2]string{
	{"ingest", "parse"}, {"ingest", "engine_enqueue"}, {"ingest", "shard_apply"},
	{"ingest", "wal_append"}, {"ingest", "fsync_wait"}, {"ingest", "ack"},
	{"boundary", "close_batch"}, {"boundary", "score"}, {"boundary", "policy"},
	{"boundary", "retrain"}, {"boundary", "swap"},
	{"hydrate", "read_ckpt"}, {"hydrate", "restore"}, {"hydrate", "replay"}, {"hydrate", "install"},
}

// overhead compares the untraced and traced passes by tbsd CPU time per
// closed-loop item, and derives the socket share of the ingest cost.
func (b *bench) overhead(plain, traced *pass) {
	pc := plain.closedCPU * 1e9 / plain.closedItems * plain.speed()
	tc := traced.closedCPU * 1e9 / traced.closedItems * traced.speed()
	b.setLayer("obs.overhead_pct", "%", (tc/pc-1)*100,
		fmt.Sprintf("tbsd CPU per closed-loop item, scaled to the reference machine: untraced=%.1f ns (%.0f items) traced=%.1f ns (%.0f items)", pc, plain.closedItems, tc, traced.closedItems))
	raw := plain.closedCPU * 1e9 / plain.closedItems
	in := b.layers["server.ingest_ns_per_item"].value
	b.setLayer("http.ingest_ns_per_item", "ns/item", raw-in,
		fmt.Sprintf("tbsd CPU %.1f ns/item over the socket (untraced closed loop, %.0f items) minus in-process %.1f", raw, plain.closedItems, in))
}

// perLayer assembles the trace-1 result: every declared per-layer metric
// in the JSON line, and every row in the report with its base.
func (b *bench) perLayer(plain, traced *pass) (*result, error) {
	names := make([]string, 0, len(b.layers))
	for n := range b.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := b.layers[n]
		b.reportf("%-36s %14.4f %-8s %s", n, r.value, r.unit, r.base)
	}
	b.stageCrossCheck()
	m := map[string]metric{}
	for _, n := range declaredLayers {
		r, ok := b.layers[n]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", n)
		}
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v (%s)", n, r.value, r.base)
		}
		m[n] = metric{Value: r.value, Unit: r.unit}
	}
	return &result{
		Correct:   len(b.checks) == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// stageCrossCheck prints each trace-stage mean beside the isolated layer
// number that should explain it, with their ratio. Report only.
func (b *bench) stageCrossCheck() {
	b.reportf("# trace stage mean vs isolated layer call (report only)")
	for _, c := range b.crossChecks {
		st, ok1 := b.layers[c.stage]
		iso, ok2 := b.layers[c.iso]
		if !ok1 || !ok2 || st.value == 0 {
			continue
		}
		isoUs := iso.value * c.scale
		b.reportf("%-36s %12.2f us  vs %-28s x%-8g = %12.2f us  ratio %.2f",
			c.stage, st.value, c.iso, c.scale, isoUs, st.value/isoUs)
	}
}

// crossCheck pairs a stage with an isolated row; scale converts the
// isolated unit into µs per stage occurrence.
type crossCheck struct {
	stage, iso string
	scale      float64
}

func (b *bench) addCrossCheck(stage, iso string, scale float64) {
	b.crossChecks = append(b.crossChecks, crossCheck{stage, iso, scale})
}

// declaredLayers are the per-layer metrics of BENCHMARK.json: the rows
// every workload's traced run measures with a nonzero base. The rest are
// printed in the report only.
var declaredLayers = strings.Fields(`
	wire.ndjson_ns_per_item wire.bin_ns_per_item wire.labeled_ns_per_row
	server.ingest_ns_per_item http.ingest_ns_per_item server.predict_us
	server.boundary_ms server.checkpoint_pass_ms server.boot_restore_s
	server.cold_hit_p50_us server.resident_at_ready
	wal.append_ns_per_item wal.replay_ns_per_item wal.sync_p50_us wal.sync_p99_us
	wal.tail_for_key_us wal.bytes_per_item atomicfile.write_us
	core.advance_ns_per_item core.restore_us
	ml.knn_fit_us ml.knn_predict_us manage.step_us
	engine.queue_depth_hwm obs.overhead_pct
	obs.stage.ingest.parse_us obs.stage.ingest.wal_append_us
	obs.stage.ingest.fsync_wait_us obs.stage.ingest.ack_us
	obs.stage.boundary.close_batch_us
`)
