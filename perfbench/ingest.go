package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xrand"
	"repro/tbs"
)

// The ingest workload's shape. The open-loop rate is an absolute number
// (also stated in BENCHMARK.json), well under the closed-loop capacity.
const (
	ingestKeys     = 16
	ingestItems    = 5000 // items per request
	ingestBatch    = 1000 // ?batch=N boundary spacing
	ingestBodies   = 8    // distinct request bodies per key, sent in rotation
	ingestRate     = 150  // open-loop requests per second
	ingestOpenFrac = 0.5  // share of the measured seconds spent in the open loop
	ingestLambda   = 0.07
	ingestN        = 1000
)

// ingestFlags are tbsd's flags for the workload: WAL without fsync and the
// checkpointer parked, so recovery replays the whole open-loop WAL.
var ingestFlags = []string{
	"-scheme", "rtbs", "-lambda", fmt.Sprint(ingestLambda), "-n", strconv.Itoa(ingestN),
	"-wal", "-wal-fsync", "off", "-checkpoint-interval", "1h",
}

// ingestData is the workload's generated traffic: per key a rotation of
// request bodies, and each pooled row's canonical JSON for the reference.
type ingestData struct {
	keys     []string
	bin      []bool
	laneKeys [maxConns][]int
	bodies   [][][]byte // [key][body] request body
	rowJSON  [][][]byte // [key][body*ingestItems+row] canonical row text
	sent     []int      // acknowledged requests per key, in order
	bad      []bool     // a request for the key failed
}

func newIngestData(seed uint64) *ingestData {
	d := &ingestData{
		keys:    make([]string, ingestKeys),
		bin:     make([]bool, ingestKeys),
		bodies:  make([][][]byte, ingestKeys),
		rowJSON: make([][][]byte, ingestKeys),
		sent:    make([]int, ingestKeys),
		bad:     make([]bool, ingestKeys),
	}
	row := make([]float64, 1)
	frameRows := make([][]float64, ingestItems)
	for k := range d.keys {
		d.keys[k] = fmt.Sprintf("k%02d", k)
		d.bin[k] = k%2 == 1
		// Two keys of each format per lane pair, so both connections carry
		// the same mix.
		d.laneKeys[(k/2)%maxConns] = append(d.laneKeys[(k/2)%maxConns], k)
		rng := xrand.New(tbs.DeriveSeed(seed, "ingest/"+d.keys[k]))
		for bi := 0; bi < ingestBodies; bi++ {
			var body []byte
			for r := 0; r < ingestItems; r++ {
				v := float64(rng.Intn(2_000_000_000)) / 1000
				row[0] = v
				js := wire.AppendRowJSON(nil, row)
				d.rowJSON[k] = append(d.rowJSON[k], js)
				if d.bin[k] {
					frameRows[r] = []float64{v}
				} else {
					body = append(append(body, js...), '\n')
				}
			}
			if d.bin[k] {
				body = wire.AppendFrame(nil, frameRows)
			}
			d.bodies[k] = append(d.bodies[k], body)
		}
	}
	return d
}

func (d *ingestData) ctype(k int) string {
	if d.bin[k] {
		return wire.BinContentType
	}
	return "application/x-ndjson"
}

// send posts key k's next body on lane l.
func (d *ingestData) send(b *bench, l *lane, k int) error {
	body := d.bodies[k][d.sent[k]%ingestBodies]
	st, resp, err := l.do(http.MethodPost, b.url("/v1/streams/"+d.keys[k]+"/items?batch="+strconv.Itoa(ingestBatch)), d.ctype(k), body)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("status %d: %s", st, resp)
	}
	if err == nil && !bytes.Contains(resp, []byte(`"added":`+strconv.Itoa(ingestItems)+",")) {
		err = fmt.Errorf("short acknowledgement: %s", resp)
	}
	if err != nil {
		d.bad[k] = true
		return err
	}
	d.sent[k]++
	return nil
}

func runIngest(b *bench, p *pass) error {
	rate := float64(ingestRate)
	if b.cfg.tiny {
		rate = 40
	}
	data := newIngestData(b.cfg.seed)
	warm := func() error {
		for k := range data.sent {
			data.sent[k], data.bad[k] = 0, false
		}
		return b.eachLane(func(ln int, l *lane) error {
			for _, k := range data.laneKeys[ln] {
				if err := data.send(b, l, k); err != nil {
					return err
				}
			}
			return nil
		})
	}
	d, dir, err := b.setup(p, "ingest", ingestFlags, nil, warm)
	if err != nil {
		return err
	}

	// Open loop: request i goes to key i mod 16, on that key's lane.
	openSecs := p.seconds * ingestOpenFrac
	n := int(openSecs * rate)
	var sched [maxConns][]time.Duration
	var order [maxConns][]int
	for i, off := range spread(n, rate) {
		k := i % ingestKeys
		ln := (k / 2) % maxConns
		sched[ln] = append(sched[ln], off)
		order[ln] = append(order[ln], k)
	}
	before, err := b.scrapeIf(p)
	if err != nil {
		return err
	}
	if err := b.openLoop(p, "ingest/open", sched, func(ln, i int, l *lane) (bool, error) {
		return true, data.send(b, l, order[ln][i])
	}); err != nil {
		return err
	}
	if err := b.scrapeDelta(p, before); err != nil {
		return err
	}

	// kill -9, then timed restarts that each replay the open loop's WAL;
	// every key's /stats must survive byte for byte.
	statsBefore, err := b.allStats(data.keys)
	if err != nil {
		return err
	}
	if d, err = b.restarts(p, d, "ingest", dir, ingestFlags, (*daemon).kill); err != nil {
		return err
	}
	statsAfter, err := b.allStats(data.keys)
	if err != nil {
		return err
	}
	for i, k := range data.keys {
		if !bytes.Equal(statsBefore[i], statsAfter[i]) {
			b.checkf("ingest: %s /stats changed across kill -9 and recovery:\nbefore %s\nafter  %s", k, statsBefore[i], statsAfter[i])
		}
	}

	// Closed loop on both connections, each cycling its own keys.
	if before, err = b.scrapeIf(p); err != nil {
		return err
	}
	b.closedLoop(p, "ingest/closed", time.Duration(p.seconds*(1-ingestOpenFrac)*float64(time.Second)), func(ln, i int, l *lane) (int, error) {
		keys := data.laneKeys[ln]
		return ingestItems, data.send(b, l, keys[i%len(keys)])
	})
	if err := b.scrapeDelta(p, before); err != nil {
		return err
	}

	if err := checkIngestSamples(b, data); err != nil {
		return err
	}
	return b.finish(p, d, dir)
}

// checkIngestSamples compares each key's /sample with a lockstep reference:
// the tbs R-TBS sampler seeded as tbsd seeds the key, advanced over the
// same acknowledged batches. The reference samples row positions; their
// canonical text is what tbsd must return.
func checkIngestSamples(b *bench, data *ingestData) error {
	lambda, n := ingestLambda, ingestN
	base := tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n}
	idx := make([]int32, ingestBodies*ingestItems)
	for i := range idx {
		idx[i] = int32(i)
	}
	for k, key := range data.keys {
		if data.bad[k] {
			b.checkf("ingest: %s had failed requests; no reference", key)
			continue
		}
		ref, err := tbs.NewFromConfig[int32](base.WithSeed(tbs.DeriveSeed(b.cfg.seed, key)))
		if err != nil {
			return err
		}
		for c := 0; c < data.sent[k]; c++ {
			off := (c % ingestBodies) * ingestItems
			for j := 0; j < ingestItems; j += ingestBatch {
				ref.Advance(idx[off+j : off+j+ingestBatch])
			}
		}
		want := ref.Sample()
		body, err := b.lanes[0].doOK(http.MethodGet, b.url("/v1/streams/"+key+"/sample"), "", nil)
		if err != nil {
			return err
		}
		var got struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("ingest: %s /sample: %w", key, err)
		}
		if len(got.Items) != len(want) {
			b.checkf("ingest: %s /sample has %d items, reference %d", key, len(got.Items), len(want))
			continue
		}
		for i, r := range want {
			if !bytes.Equal(got.Items[i], data.rowJSON[k][r]) {
				b.checkf("ingest: %s /sample item %d is %s, reference %s", key, i, got.Items[i], data.rowJSON[k][r])
				break
			}
		}
	}
	return nil
}

// allStats reads every key's /stats verbatim.
func (b *bench) allStats(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		body, err := b.lanes[0].doOK(http.MethodGet, b.url("/v1/streams/"+k+"/stats"), "", nil)
		if err != nil {
			return nil, err
		}
		out[i] = bytes.Clone(body)
	}
	return out, nil
}

// ingestLayers times each layer on the ingest workload's inputs.
func ingestLayers(b *bench) error {
	data := newIngestData(b.cfg.seed)
	lambda, n, seed := ingestLambda, ingestN, b.cfg.seed
	in := layerInputs{
		name: "ingest", rows: ingestItems, chunk: ingestBatch, n: ingestN,
		streams: ingestKeys, resident: 1, keys: data.keys, stats: "/v1/streams/k00/stats",
		opts: server.Options{
			Sampler: tbs.Config{Scheme: "rtbs", Lambda: &lambda, MaxSize: &n, Seed: &seed},
			WALDir:  "wal", WALFsync: "off", CheckpointInterval: time.Hour,
		},
	}
	for k, key := range data.keys {
		body := data.bodies[k][0]
		if data.bin[k] {
			in.bin = append(in.bin, body)
		} else {
			in.ndjson = append(in.ndjson, body)
		}
		in.requests = append(in.requests, layerReq{
			path:  "/v1/streams/" + key + "/items?batch=" + strconv.Itoa(ingestBatch),
			ctype: data.ctype(k), body: body, items: ingestItems,
		})
	}
	in.boundary = in.requests[0]
	b.addCrossCheck("obs.stage.ingest.parse_us", "wire.ndjson_ns_per_item", ingestItems/1e3)
	b.addCrossCheck("obs.stage.ingest.wal_append_us", "wal.append_ns_per_item", ingestItems/1e3)
	return b.measureLayers(in)
}
