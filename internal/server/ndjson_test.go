package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// postNDJSON issues a raw NDJSON ingest request.
func (h *harness) postNDJSON(path, body string) (*http.Response, []byte) {
	h.t.Helper()
	return h.post(path, "application/x-ndjson", []byte(body))
}

// TestNDJSONIngest: line-delimited values land as individual items, blank
// lines and surrounding whitespace are ignored, and ?advance closes the
// batch.
func TestNDJSONIngest(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})

	resp, data := h.postNDJSON("/v1/streams/k/items", "1\n {\"a\":2} \n\n[3,4]\n\"five\"")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Added    int    `json:"added"`
		Pending  int    `json:"pending"`
		Ingested uint64 `json:"ingested"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Added != 4 || out.Pending != 4 || out.Ingested != 4 {
		t.Fatalf("ndjson ingest: %+v, want 4 items", out)
	}

	resp, data = h.postNDJSON("/v1/streams/k/items?advance=true", "6\n7\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out2 struct {
		Added    int  `json:"added"`
		Pending  int  `json:"pending"`
		Advanced bool `json:"advanced"`
	}
	if err := json.Unmarshal(data, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Added != 2 || out2.Pending != 0 || !out2.Advanced {
		t.Fatalf("ndjson ingest+advance: %+v", out2)
	}
	if s := h.sample("k"); s.Size == 0 {
		t.Fatal("empty sample after NDJSON ingest + advance")
	}
}

// TestNDJSONInvalidLine: a malformed line yields a structured 400 naming
// the line, with earlier lines ingested.
func TestNDJSONInvalidLine(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	resp, data := h.postNDJSON("/v1/streams/k/items", "1\n2\n{broken\n4\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Error  string `json:"error"`
		Code   string `json:"code"`
		Added  int    `json:"added"`
		Line   int    `json:"line"`
		Offset int64  `json:"offset"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	// "1\n2\n" is 4 bytes, so the broken third line starts at offset 4.
	if out.Code != "bad_request" || out.Line != 3 || out.Offset != 4 || out.Added != 2 {
		t.Fatalf("invalid-line error: %+v", out)
	}
	if !strings.Contains(out.Error, "line 3") || !strings.Contains(out.Error, "offset 4") {
		t.Fatalf("error message %q lacks line/offset", out.Error)
	}
	var stats struct {
		Pending int `json:"pending"`
	}
	h.do("GET", "/v1/streams/k/stats", nil, http.StatusOK, &stats)
	if stats.Pending != 2 {
		t.Fatalf("pending = %d after partial NDJSON ingest, want 2", stats.Pending)
	}
}

// TestNDJSONMidStreamFailure: a malformed line after several accepted
// pipelined batches reports the exact line and byte offset, while the
// batches already closed stay applied.
func TestNDJSONMidStreamFailure(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	// Five good lines (offsets 0,2,4,6,8), then a broken one at offset 10.
	// With ?batch=2 the first four lines close two engine boundaries
	// before the failure; the fifth is flushed by the error path.
	resp, data := h.postNDJSON("/v1/streams/k/items?batch=2", "1\n2\n3\n4\n5\n{broken\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Code   string `json:"code"`
		Added  int    `json:"added"`
		Line   int    `json:"line"`
		Offset int64  `json:"offset"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != "bad_request" || out.Added != 5 || out.Line != 6 || out.Offset != 10 {
		t.Fatalf("mid-stream failure body: %+v, want added=5 line=6 offset=10", out)
	}
	var stats struct {
		Pending  int    `json:"pending"`
		Ingested uint64 `json:"ingested"`
		Batches  uint64 `json:"batches"`
	}
	h.do("GET", "/v1/streams/k/stats", nil, http.StatusOK, &stats)
	if stats.Ingested != 5 || stats.Batches != 2 || stats.Pending != 1 {
		t.Fatalf("after mid-stream failure: %+v, want ingested=5 batches=2 pending=1", stats)
	}
}

// TestNDJSONEscapeFallback: lines with escape sequences leave the fast
// validator's subset and must still be judged exactly as encoding/json
// does — legal escapes ingest, illegal ones 400 with position.
func TestNDJSONEscapeFallback(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	resp, data := h.postNDJSON("/v1/streams/k/items", `"a\nb"`+"\n"+`{"k\t":1}`+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legal escapes: status %d: %s", resp.StatusCode, data)
	}
	resp, data = h.postNDJSON("/v1/streams/k/items", `"ok"`+"\n"+`"bad\q"`+"\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("illegal escape: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Line   int   `json:"line"`
		Offset int64 `json:"offset"`
		Added  int   `json:"added"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Line != 2 || out.Offset != 5 || out.Added != 1 {
		t.Fatalf("illegal escape body: %+v, want line=2 offset=5 added=1", out)
	}
}

// TestNDJSONPipelinedBoundaries: ?batch=N closes a boundary every N items
// through the engine; the decay clock ends up where explicit advances
// would have put it.
func TestNDJSONPipelinedBoundaries(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	var body bytes.Buffer
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&body, "%d\n", i)
	}
	resp, data := h.postNDJSON("/v1/streams/k/items?batch=10", body.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Added      int    `json:"added"`
		Boundaries uint64 `json:"boundaries"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Added != 100 || out.Boundaries != 10 {
		t.Fatalf("pipelined ingest: %+v, want added=100 boundaries=10", out)
	}
	var stats struct {
		Pending int     `json:"pending"`
		Batches uint64  `json:"batches"`
		Now     float64 `json:"now"`
	}
	h.do("GET", "/v1/streams/k/stats", nil, http.StatusOK, &stats)
	if stats.Pending != 0 || stats.Batches != 10 || stats.Now != 10 {
		t.Fatalf("after pipelined boundaries: %+v, want pending=0 batches=10 now=10", stats)
	}
}

// TestNDJSONMatchesJSONPath: the streaming decoder and the buffered JSON
// path drive identical sampler trajectories — same items, same boundaries,
// same seed, byte-identical samples.
func TestNDJSONMatchesJSONPath(t *testing.T) {
	drive := func(ndjson bool) sampleResp {
		h := newHarness(t, Options{Sampler: rtbsConfig(7)})
		for batchNo := 1; batchNo <= 5; batchNo++ {
			items := itemBatch("k", batchNo, 25)
			if ndjson {
				var body bytes.Buffer
				for _, v := range items {
					fmt.Fprintf(&body, "%d\n", v)
				}
				resp, data := h.postNDJSON("/v1/streams/k/items?advance=true", body.String())
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, data)
				}
			} else {
				h.do("POST", "/v1/streams/k/items?advance=true", items, http.StatusOK, nil)
			}
		}
		return h.sample("k")
	}
	jsonSample := drive(false)
	ndjsonSample := drive(true)
	if !reflect.DeepEqual(jsonSample, ndjsonSample) {
		t.Fatalf("paths diverge:\n json: %+v\nndjson: %+v", jsonSample, ndjsonSample)
	}
	if jsonSample.Size == 0 {
		t.Fatal("empty sample")
	}
}

// TestOversizedRequest413: a single request that can never fit the
// open-batch cap gets a structured 413 on both wire formats; a
// transiently full batch still gets 429.
func TestOversizedRequest413(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1), MaxPendingItems: 5})

	var errOut struct {
		Code       string `json:"code"`
		LimitItems int    `json:"limitItems"`
	}
	h.do("POST", "/v1/streams/k/items", itemBatch("k", 1, 6), http.StatusRequestEntityTooLarge, &errOut)
	if errOut.Code != "batch_limit" || errOut.LimitItems != 5 {
		t.Fatalf("JSON 413 body: %+v", errOut)
	}

	resp, data := h.postNDJSON("/v1/streams/k/items", "1\n2\n3\n4\n5\n6\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("NDJSON oversized: status %d: %s", resp.StatusCode, data)
	}
	var ndErr struct {
		Code  string `json:"code"`
		Added int    `json:"added"`
	}
	if err := json.Unmarshal(data, &ndErr); err != nil {
		t.Fatal(err)
	}
	if ndErr.Code != "batch_limit" || ndErr.Added != 0 {
		t.Fatalf("NDJSON 413 body: %+v", ndErr)
	}

	// Transient fullness keeps its retryable 429.
	h.do("POST", "/v1/streams/k/items", itemBatch("k", 1, 5), http.StatusOK, nil)
	var fullErr struct {
		Code string `json:"code"`
	}
	h.do("POST", "/v1/streams/k/items", 99, http.StatusTooManyRequests, &fullErr)
	if fullErr.Code != "open_batch_full" {
		t.Fatalf("429 body: %+v", fullErr)
	}
}

// TestEngineMetricsExposed: the queue metrics appear once traffic has
// flowed through the engine.
func TestEngineMetricsExposed(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1), Shards: 2})
	h.driveStream("k", 1, 3)
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tbsd_engine_workers 2",
		"tbsd_engine_tasks_submitted_total 3",
		"tbsd_engine_tasks_completed_total 3",
		"tbsd_engine_backpressure_total",
		`tbsd_engine_queue_depth{worker="0"}`,
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
}

// TestEngineDisabled: QueueDepth < 0 falls back to inline application and
// everything still works.
func TestEngineDisabled(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1), QueueDepth: -1})
	h.driveStream("k", 1, 3)
	if s := h.sample("k"); s.Size == 0 {
		t.Fatal("empty sample with engine disabled")
	}
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(data, []byte("tbsd_engine_workers")) {
		t.Fatal("engine metrics exposed with the engine disabled")
	}
}

// TestNDJSONBadBatchParam pins the ?batch validation.
func TestNDJSONBadBatchParam(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	for _, v := range []string{"0", "-3", "x"} {
		resp, data := h.postNDJSON("/v1/streams/k/items?batch="+v, "1\n")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch=%s: status %d: %s", v, resp.StatusCode, data)
		}
	}
}
