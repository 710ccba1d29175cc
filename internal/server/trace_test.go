package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// traceListing mirrors the GET /debug/trace/recent response shape.
type traceListing struct {
	Enabled bool `json:"enabled"`
	Count   int  `json:"count"`
	Traces  []struct {
		TraceID string `json:"traceId"`
		Kind    string `json:"kind"`
		Key     string `json:"key"`
		Status  int    `json:"status"`
		Stages  []struct {
			Stage     string `json:"stage"`
			DurMicros int64  `json:"durMicros"`
		} `json:"stages"`
	} `json:"traces"`
}

func fetchTraces(t *testing.T, baseURL, query string) traceListing {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/trace/recent" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace listing: status %d: %s", resp.StatusCode, data)
	}
	var out traceListing
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace listing: %v: %s", err, data)
	}
	return out
}

func stageSet(stages []struct {
	Stage     string `json:"stage"`
	DurMicros int64  `json:"durMicros"`
}) map[string]bool {
	set := make(map[string]bool, len(stages))
	for _, s := range stages {
		set[s.Stage] = true
	}
	return set
}

// TestIngestTraceRecordsAllStages is the tentpole acceptance check on a
// single node: one durably acknowledged ingest must leave a trace in the
// ring carrying the full parse → engine_enqueue → shard_apply →
// wal_append → fsync_wait → ack chain, on both the JSON and NDJSON
// decode paths.
func TestIngestTraceRecordsAllStages(t *testing.T) {
	opts := walOpts(t.TempDir(), 1)
	opts.Trace = obs.NewTracer(64, nil)
	h := newHarness(t, opts)

	h.do("POST", "/v1/streams/j/items?advance=true",
		[]map[string]any{{"v": 1}, {"v": 2}, {"v": 3}}, http.StatusOK, nil)
	h.mustNDJSON("n", "?advance=true", "{\"v\":1}\n{\"v\":2}\n{\"v\":3}\n")

	want := obs.StageNames(obs.KindIngest)
	for _, key := range []string{"j", "n"} {
		listing := fetchTraces(t, h.ts.URL, "?kind=ingest&key="+key)
		if !listing.Enabled || listing.Count == 0 {
			t.Fatalf("key %q: no ingest traces in ring: %+v", key, listing)
		}
		got := stageSet(listing.Traces[0].Stages)
		for _, stage := range want {
			if !got[stage] {
				t.Errorf("key %q: ingest trace missing stage %q (got %v)", key, stage, got)
			}
		}
		if listing.Traces[0].Status != http.StatusOK {
			t.Errorf("key %q: trace status = %d, want 200", key, listing.Traces[0].Status)
		}
	}

	// The batch boundary closed by ?advance=true must appear as a child
	// trace sharing the request's trace ID.
	ingest := fetchTraces(t, h.ts.URL, "?kind=ingest&key=j")
	bounds := fetchTraces(t, h.ts.URL, "?kind=boundary&key=j")
	if len(bounds.Traces) == 0 {
		t.Fatal("no boundary trace for key j")
	}
	if got, want := bounds.Traces[0].TraceID, ingest.Traces[0].TraceID; got != want {
		t.Errorf("boundary trace ID %s != ingest trace ID %s", got, want)
	}
}

// TestMetricsIncludeTraceHistograms asserts the tracer's latency
// histograms are merged into the main /metrics scrape once traffic has
// flowed.
func TestMetricsIncludeTraceHistograms(t *testing.T) {
	opts := walOpts(t.TempDir(), 2)
	opts.Trace = obs.NewTracer(64, nil)
	h := newHarness(t, opts)
	h.mustNDJSON("k", "?advance=true", "{\"v\":1}\n")

	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{
		`tbsd_trace_duration_seconds_count{kind="ingest"}`,
		`tbsd_trace_stage_duration_seconds_bucket{kind="ingest",stage="parse",le="+Inf"}`,
		`tbsd_trace_stage_duration_seconds_bucket{kind="ingest",stage="fsync_wait",le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouterTracePropagation is the cross-process acceptance check: an
// NDJSON ingest sent through tbsrouter must surface under ONE trace ID
// in both the router's ring (as a forward trace) and the owning node's
// ring (as an ingest trace with the full stage chain) — the router's
// traceparent header is what stitches them together.
func TestRouterTracePropagation(t *testing.T) {
	opts := walOpts(t.TempDir(), 3)
	opts.Trace = obs.NewTracer(64, nil)
	node := newHarness(t, opts)

	ring, err := cluster.NewRing([]cluster.Node{{Name: "a", Addr: nodeAddr(node)}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Ring:          ring,
		ProbeInterval: 5 * time.Millisecond,
		Trace:         obs.NewTracer(64, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	routeTS := httptest.NewServer(router.Handler())
	defer func() { routeTS.Close(); router.Stop() }()

	body := strings.NewReader("{\"v\":1}\n{\"v\":2}\n")
	req, err := http.NewRequest("POST", routeTS.URL+"/v1/streams/x/items?advance=true", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest through router: status %d: %s", resp.StatusCode, data)
	}

	routerSide := fetchTraces(t, routeTS.URL, "?kind=forward&key=x")
	nodeSide := fetchTraces(t, node.ts.URL, "?kind=ingest&key=x")
	if len(routerSide.Traces) == 0 {
		t.Fatal("router ring has no forward trace for key x")
	}
	if len(nodeSide.Traces) == 0 {
		t.Fatal("node ring has no ingest trace for key x")
	}
	fwd, ing := routerSide.Traces[0], nodeSide.Traces[0]
	if fwd.TraceID != ing.TraceID {
		t.Errorf("trace ID split across hops: router %s vs node %s", fwd.TraceID, ing.TraceID)
	}
	fwdStages := stageSet(fwd.Stages)
	for _, stage := range obs.StageNames(obs.KindForward) {
		if !fwdStages[stage] {
			t.Errorf("forward trace missing stage %q", stage)
		}
	}
	ingStages := stageSet(ing.Stages)
	for _, stage := range obs.StageNames(obs.KindIngest) {
		if !ingStages[stage] {
			t.Errorf("node ingest trace missing stage %q", stage)
		}
	}
}

// TestRestoreStagesRecordedOnce: hydration and adoption run through
// rebuild, and each of their stages is observed once per operation, so a
// stage histogram's mean is the per-operation cost.
func TestRestoreStagesRecordedOnce(t *testing.T) {
	sopts := tieredOptions(t, 4)
	sopts.Trace = obs.NewTracer(64, nil)
	src := newHarness(t, sopts)
	dopts := handoffOpts(t.TempDir(), 4)
	dopts.Trace = obs.NewTracer(64, nil)
	dst := newHarness(t, dopts)
	src.driveStream("k", 1, 3)
	if _, err := src.srv.HibernatePass(); err != nil {
		t.Fatal(err)
	}
	src.stats("k") // hydrates
	src.handoff("k", dst.ts.URL, http.StatusOK)

	count := func(metrics, series string) string {
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				return v
			}
		}
		return "absent"
	}
	for _, c := range []struct {
		h    *harness
		kind obs.Kind
	}{{src, obs.KindHydrate}, {dst, obs.KindAdopt}} {
		m := c.h.get("/metrics")
		kind := `kind="` + c.kind.String() + `"`
		ops := count(m, `tbsd_trace_duration_seconds_count{`+kind+`}`)
		if ops == "absent" {
			t.Fatalf("no %s trace recorded", c.kind)
		}
		for _, stage := range obs.StageNames(c.kind) {
			if got := count(m, `tbsd_trace_stage_duration_seconds_count{`+kind+`,stage="`+stage+`"}`); got != ops {
				t.Errorf("%s stage %s observed %s times in %s operations", c.kind, stage, got, ops)
			}
		}
	}
}
