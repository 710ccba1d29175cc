package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xrand"
	"repro/tbs"
)

// The tenants workload's shape. The tenant count is sized so that writing
// the population's checkpoint files fits in one run; the resident bound
// keeps the ratio that makes the working set larger than memory. The
// offered rate is an absolute number (also in BENCHMARK.json).
const (
	tenantCount     = 4000
	tenantResident  = tenantCount / 10
	tenantLambda    = 0.07
	tenantN         = 100 // reservoir bound per tenant
	tenantItems     = 20  // items per ingest request
	tenantRate      = 100 // open-loop requests per second: about half the closed-loop capacity
	tenantIngestPct = 80  // share of requests that ingest; the rest read /sample
	tenantZipfS     = 1.1
	tenantOpenFrac  = 0.75
	tenantBodies    = 64 // distinct ingest bodies, sent in rotation
)

func tenantFlags(resident int) []string {
	return []string{"-scheme", "rtbs", "-lambda", fmt.Sprint(tenantLambda), "-n", strconv.Itoa(tenantN),
		"-wal", "-max-resident", strconv.Itoa(resident)}
}

// tenantData is the workload's generated traffic.
type tenantData struct {
	keys    []string
	zipf    *rand.Zipf
	perm    []int
	pick    *rand.Rand
	bodies  [][]byte
	fill    []byte // the body that fills each tenant's reservoir in the template (tenantN items)
	acked   []int  // acknowledged ingests per tenant
	touched []bool
	bad     atomic.Bool // a request failed; set from either lane
}

// tenantReq is one generated request.
type tenantReq struct {
	tenant int
	ingest bool
	body   []byte
}

func newTenantData(seed uint64, count int) *tenantData {
	d := &tenantData{
		keys:    make([]string, count),
		acked:   make([]int, count),
		touched: make([]bool, count),
	}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("tenant-%05d", i)
	}
	rng := xrand.New(tbs.DeriveSeed(seed, "tenants"))
	d.perm = rng.Perm(count)
	src := rand.New(rand.NewPCG(seed, tbs.DeriveSeed(seed, "tenants/zipf")))
	d.zipf = rand.NewZipf(src, tenantZipfS, 1, uint64(count-1))
	d.pick = rand.New(rand.NewPCG(seed, tbs.DeriveSeed(seed, "tenants/mix")))
	row := make([]float64, 1)
	body := func(n int) []byte {
		b := []byte{'['}
		for j := 0; j < n; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			row[0] = float64(rng.Intn(1_000_000)) / 100
			b = wire.AppendRowJSON(b, row)
		}
		return append(b, ']')
	}
	for i := 0; i < tenantBodies; i++ {
		d.bodies = append(d.bodies, body(tenantItems))
	}
	d.fill = body(tenantN)
	return d
}

// next generates the next request of the stream.
func (d *tenantData) next(i int) tenantReq {
	t := d.perm[d.zipf.Uint64()]
	if d.pick.IntN(100) < tenantIngestPct {
		return tenantReq{tenant: t, ingest: true, body: d.bodies[i%len(d.bodies)]}
	}
	return tenantReq{tenant: t}
}

// send issues one request and records an acknowledged ingest.
func (d *tenantData) send(b *bench, l *lane, r tenantReq) error {
	d.touched[r.tenant] = true
	var st int
	var resp []byte
	var err error
	if r.ingest {
		st, resp, err = l.do(http.MethodPost, b.url("/v1/streams/"+d.keys[r.tenant]+"/items?advance=true"), "application/json", r.body)
	} else {
		st, resp, err = l.do(http.MethodGet, b.url("/v1/streams/"+d.keys[r.tenant]+"/sample"), "", nil)
	}
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("status %d: %s", st, resp)
	}
	if err != nil {
		d.bad.Store(true)
		return err
	}
	if r.ingest {
		d.acked[r.tenant]++
	}
	return nil
}

// tenantPopulationSeed generates the tenant population — every tenant's
// seeding items and sampler seed — which is the same for every run; the
// run's seed drives the traffic.
const tenantPopulationSeed = 4000

// tenantTemplate returns a checkpoint directory holding the tenant
// population: one full reservoir per tenant, written by an in-process
// server that is then stopped. Writing it costs two fsyncs per tenant,
// which on a shared disk can take longer than a run, so it is built once
// per build and count, under the work directory, and every set-up copies
// it.
func (b *bench) tenantTemplate(count int) (string, error) {
	// The population is written by this binary's copy of the server and
	// read by tbsd, so a change to either rebuilds it.
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	var sums []string
	for _, bin := range []string{self, b.cfg.tbsd} {
		sum, err := fileHash(bin)
		if err != nil {
			return "", err
		}
		sums = append(sums, sum)
	}
	dir := filepath.Join(b.cfg.workdir, fmt.Sprintf("tenants-template-%d-%s", count, strings.Join(sums, "-")))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp, err := os.MkdirTemp(b.cfg.workdir, "tenants-template-tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	t0 := time.Now()
	if err := buildTenantTemplate(tmp, newTenantData(tenantPopulationSeed, count)); err != nil {
		return "", fmt.Errorf("tenant template: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	b.reportf("# built the %d-tenant template in %.1f s", count, time.Since(t0).Seconds())
	return dir, nil
}

// buildTenantTemplate seeds every tenant with one full reservoir through an
// in-process server and stops it, leaving one checkpoint file per tenant
// in dir.
func buildTenantTemplate(dir string, d *tenantData) error {
	lambda, n, seed := tenantLambda, tenantN, uint64(tenantPopulationSeed)
	srv, err := server.New(server.Options{
		Sampler:       tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n, Seed: &seed},
		CheckpointDir: dir,
		MaxStreams:    -1,
	})
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, k := range d.keys {
		if _, err := handlerCall(h, http.MethodPost, "/v1/streams/"+k+"/items?advance=true", "application/json", d.fill); err != nil {
			return fmt.Errorf("seeding: %w", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	return srv.Stop(ctx)
}

func runTenants(b *bench, p *pass) error {
	count, rate := tenantCount, float64(tenantRate)
	if b.cfg.tiny {
		count, rate = 200, 30
	}
	resident := count / 10
	flags := tenantFlags(resident)
	tpl, err := b.tenantTemplate(count)
	if err != nil {
		return err
	}
	var data *tenantData
	warm := func() error {
		data = newTenantData(b.cfg.seed, count)
		// Warm-up ends once the hibernator has trimmed the restored
		// population down to the resident bound.
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			m, err := b.scrape()
			if err != nil {
				return err
			}
			if int(m["tbsd_streams_resident"]) <= resident {
				return nil
			}
			time.Sleep(10 * time.Millisecond)
		}
		return fmt.Errorf("resident streams never dropped to %d", resident)
	}
	d, dir, err := b.setup(p, "tenants", flags, func(dir string) error { return copyDir(tpl, dir) }, warm)
	if err != nil {
		return err
	}

	// Requests are generated in one global order; each tenant is pinned to
	// lane tenant mod 2.
	openSecs := p.seconds * tenantOpenFrac
	var sched [maxConns][]time.Duration
	var reqs [maxConns][]tenantReq
	for i, off := range spread(int(openSecs*rate), rate) {
		r := data.next(i)
		ln := r.tenant % maxConns
		sched[ln] = append(sched[ln], off)
		reqs[ln] = append(reqs[ln], r)
	}
	// The closed loop continues the same generator, split by lane.
	var closed [maxConns][]tenantReq
	for i := 0; i < 20_000; i++ {
		r := data.next(len(sched[0]) + len(sched[1]) + i)
		closed[r.tenant%maxConns] = append(closed[r.tenant%maxConns], r)
	}
	before, err := b.scrapeIf(p)
	if err != nil {
		return err
	}
	if err := b.openLoop(p, "tenants/open", sched, func(ln, i int, l *lane) (bool, error) {
		r := reqs[ln][i]
		return r.ingest, data.send(b, l, r)
	}); err != nil {
		return err
	}
	b.closedLoop(p, "tenants/closed", time.Duration(p.seconds*(1-tenantOpenFrac)*float64(time.Second)), func(ln, i int, l *lane) (int, error) {
		r := closed[ln][i%len(closed[ln])]
		if err := data.send(b, l, r); err != nil || !r.ingest {
			return 0, err
		}
		return tenantItems, nil
	})
	if err := b.scrapeDelta(p, before); err != nil {
		return err
	}

	if d, err = b.restarts(p, d, "tenants", dir, flags, (*daemon).term); err != nil {
		return err
	}
	if err := checkTenants(b, data); err != nil {
		return err
	}
	return b.finish(p, d, dir)
}

// checkTenants compares every touched tenant's ingested count after the
// restart with what the generator saw acknowledged.
func checkTenants(b *bench, data *tenantData) error {
	if data.bad.Load() {
		b.checkf("tenants: requests failed; acknowledged counts are incomplete")
		return nil
	}
	return b.eachLane(func(ln int, l *lane) error {
		for t, touched := range data.touched {
			if !touched || t%maxConns != ln {
				continue
			}
			body, err := l.doOK(http.MethodGet, b.url("/v1/streams/"+data.keys[t]+"/stats"), "", nil)
			if err != nil {
				return err
			}
			var st struct {
				Ingested int `json:"ingested"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				return err
			}
			if want := tenantN + tenantItems*data.acked[t]; st.Ingested != want {
				b.checkf("tenants: %s ingested %d after restart, generator saw %d acknowledged", data.keys[t], st.Ingested, want)
			}
		}
		return nil
	})
}

// tenantLayers times each layer on the tenants workload's inputs.
func tenantLayers(b *bench) error {
	count := tenantCount
	if b.cfg.tiny {
		count = 200
	}
	tpl, err := b.tenantTemplate(count)
	if err != nil {
		return err
	}
	data := newTenantData(b.cfg.seed, count)
	lambda, n, seed := tenantLambda, tenantN, b.cfg.seed
	in := layerInputs{
		name: "tenants", rows: tenantItems, chunk: tenantItems, n: tenantN,
		streams: count / 10, resident: count / 10, keys: data.keys,
		tiered: tpl,
		stats:  "/v1/streams/" + data.keys[0] + "/stats",
		opts: server.Options{
			Sampler:    tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n, Seed: &seed},
			WALDir:     "wal",
			MaxStreams: -1,
		},
	}
	var vals []float64
	for _, body := range data.bodies {
		var items []json.RawMessage
		if err := json.Unmarshal(body, &items); err != nil {
			return err
		}
		var nd []byte
		var rows [][]float64
		for _, it := range items {
			nd = append(append(nd, it...), '\n')
			v, ok := wire.ParseValueRow(it)
			if !ok {
				return fmt.Errorf("generated item %s is not canonical", it)
			}
			vals = append(vals, v)
			rows = append(rows, vals[len(vals)-1:])
		}
		in.ndjson = append(in.ndjson, nd)
		in.bin = append(in.bin, wire.AppendFrame(nil, rows))
	}
	for i := 0; i < in.streams; i++ {
		in.requests = append(in.requests, layerReq{
			path:  "/v1/streams/" + data.keys[data.perm[i]] + "/items?advance=true",
			ctype: "application/json", body: data.bodies[i%len(data.bodies)], items: tenantItems,
		})
	}
	in.boundary = layerReq{path: "/v1/streams/" + data.keys[0] + "/items?advance=true", ctype: "application/json", body: data.bodies[0]}
	b.addCrossCheck("obs.stage.ingest.wal_append_us", "wal.append_ns_per_item", tenantItems/1e3)
	b.addCrossCheck("obs.stage.ingest.fsync_wait_us", "wal.sync_p50_us", 1)
	b.addCrossCheck("obs.stage.hydrate.restore_us", "core.restore_us", 1)
	b.addCrossCheck("obs.stage.hydrate.replay_us", "wal.tail_for_key_us", 1)
	return b.measureLayers(in)
}
