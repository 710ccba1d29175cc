package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// postBin issues a raw x-tbs-bin ingest request.
func (h *harness) postBin(path string, body []byte) (*http.Response, []byte) {
	h.t.Helper()
	return h.post(path, wire.BinContentType, body)
}

// TestBinIngest: binary rows land as canonical JSON items — a one-float
// row as {"v":V}, a wider row as {"x":[…],"y":N} — and are sampled like
// any text-ingested item.
func TestBinIngest(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	body := wire.AppendFrame(nil, [][]float64{{7}, {1.5, 2.25, 3}})
	resp, data := h.postBin("/v1/streams/k/items?advance=true", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Added    int  `json:"added"`
		Pending  int  `json:"pending"`
		Advanced bool `json:"advanced"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Added != 2 || out.Pending != 0 || !out.Advanced {
		t.Fatalf("bin ingest: %+v, want added=2 advanced", out)
	}
	s := h.sample("k")
	if s.Size == 0 {
		t.Fatal("empty sample after binary ingest + advance")
	}
	for _, it := range s.Items {
		if got := string(it); got != `{"v":7}` && got != `{"x":[1.5,2.25],"y":3}` {
			t.Fatalf("sampled item %q is not a canonical rendered row", got)
		}
	}
}

// TestBinMatchesNDJSONPath: the same rows pushed as binary frames and as
// their canonical NDJSON text drive byte-identical sampler trajectories.
func TestBinMatchesNDJSONPath(t *testing.T) {
	rows := make([][]float64, 0, 125)
	for i := 0; i < 125; i++ {
		rows = append(rows, []float64{float64(i) + 0.5, float64(i%7) * 1.25, float64(i % 3)})
	}
	drive := func(binary bool) sampleResp {
		h := newHarness(t, Options{Sampler: rtbsConfig(7)})
		for batchNo := 0; batchNo < 5; batchNo++ {
			part := rows[batchNo*25 : (batchNo+1)*25]
			if binary {
				resp, data := h.postBin("/v1/streams/k/items?advance=true", wire.AppendFrame(nil, part))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("bin status %d: %s", resp.StatusCode, data)
				}
			} else {
				var body bytes.Buffer
				for _, row := range part {
					body.Write(wire.AppendRowJSON(nil, row))
					body.WriteByte('\n')
				}
				resp, data := h.postNDJSON("/v1/streams/k/items?advance=true", body.String())
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("ndjson status %d: %s", resp.StatusCode, data)
				}
			}
		}
		return h.sample("k")
	}
	ndjsonSample := drive(false)
	binSample := drive(true)
	if !reflect.DeepEqual(ndjsonSample, binSample) {
		t.Fatalf("paths diverge:\nndjson: %+v\n   bin: %+v", ndjsonSample, binSample)
	}
	if binSample.Size == 0 {
		t.Fatal("empty sample")
	}
}

// TestBinPipelinedBoundaries: ?batch=N works identically to NDJSON.
func TestBinPipelinedBoundaries(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{float64(i)}
	}
	resp, data := h.postBin("/v1/streams/k/items?batch=10", wire.AppendFrame(nil, rows))
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
		t.Fatalf("pipelined bin ingest: %+v, want added=100 boundaries=10", out)
	}
}

// TestBinMidStreamFailure: a corrupt second frame reports its frame
// ordinal and byte offset while the first frame's rows stay ingested.
func TestBinMidStreamFailure(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	frame1 := wire.AppendFrame(nil, [][]float64{{1}, {2}, {3}})
	body := wire.AppendFrame(append([]byte(nil), frame1...), [][]float64{{4}})
	body[len(body)-1] ^= 0xFF // corrupt second frame's payload → CRC mismatch
	resp, data := h.postBin("/v1/streams/k/items", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Code   string `json:"code"`
		Added  int    `json:"added"`
		Row    int    `json:"row"`
		Frame  int    `json:"frame"`
		Offset int64  `json:"offset"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != "bad_request" || out.Added != 3 || out.Row != 3 ||
		out.Frame != 2 || out.Offset != int64(len(frame1)) {
		t.Fatalf("bin failure body: %+v, want added=3 frame=2 offset=%d", out, len(frame1))
	}
	var stats struct {
		Pending int `json:"pending"`
	}
	h.do("GET", "/v1/streams/k/stats", nil, http.StatusOK, &stats)
	if stats.Pending != 3 {
		t.Fatalf("pending = %d after partial bin ingest, want 3", stats.Pending)
	}
}

// TestBinTruncatedBody: a frame cut mid-payload is a structured 400.
func TestBinTruncatedBody(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1)})
	body := wire.AppendFrame(nil, [][]float64{{1, 2, 3}})
	resp, data := h.postBin("/v1/streams/k/items", body[:len(body)-4])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Code   string `json:"code"`
		Frame  int    `json:"frame"`
		Offset int64  `json:"offset"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != "bad_request" || out.Frame != 1 || out.Offset != 0 {
		t.Fatalf("truncated-body 400: %+v", out)
	}
}

// TestBinOversizedBatch413: the open-batch cap speaks the same structured
// 413 as the text paths.
func TestBinOversizedBatch413(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(1), MaxPendingItems: 5})
	rows := make([][]float64, 6)
	for i := range rows {
		rows[i] = []float64{float64(i)}
	}
	resp, data := h.postBin("/v1/streams/k/items", wire.AppendFrame(nil, rows))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Code  string `json:"code"`
		Added int    `json:"added"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != "batch_limit" || out.Added != 0 {
		t.Fatalf("bin 413 body: %+v", out)
	}
}
