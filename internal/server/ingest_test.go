package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/wire"
)

// post issues a raw ingest request with the given Content-Type.
func (h *harness) post(path, ctype string, body []byte) (*http.Response, []byte) {
	h.t.Helper()
	req, err := http.NewRequest("POST", h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp, data
}

// get returns the body of a GET that must answer 200.
func (h *harness) get(path string) string {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, data)
	}
	return string(data)
}

// TestIngestFormatsAgree holds the three item formats to one set of
// request rules. The same {"v":V} rows go to three servers with the same
// seed and key: as a JSON array, as NDJSON and as x-tbs-bin frames, the
// text bodies carrying what Item.MarshalJSON renders for each binary
// row. Answers, /stats and /sample must be byte-identical; a bad ?batch
// is a 400; a malformed item reports `added` plus the format's position
// keys; and a request rejected before any item was accepted — malformed,
// a bad ?batch, or larger than the open-batch limit — leaves no stream
// behind.
func TestIngestFormatsAgree(t *testing.T) {
	rows := make([][]float64, 13)
	for i := range rows {
		rows[i] = []float64{float64(i)*1.25 - 3}
	}
	br := wire.NewBinReader()
	br.Reset(bytes.NewReader(wire.AppendFrame(nil, rows)))
	binItems, _, err := wire.NextFrameItems(br, []Item(nil))
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(binItems))
	for i, it := range binItems {
		b, err := it.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		texts[i] = string(b)
	}
	corrupt := func(frame []byte) []byte {
		frame[len(frame)-1] ^= 0xFF // payload CRC mismatch
		return frame
	}
	type format struct {
		name, ctype string
		body        func(from, to int) []byte
		malformed   []byte // two good items, then a malformed one
		firstBad    []byte // a malformed first item
		added       int    // items of malformed accepted before the failure
		position    map[string]float64
	}
	formats := []format{
		{
			name: "json", ctype: "application/json",
			body: func(from, to int) []byte {
				return []byte("[" + strings.Join(texts[from:to], ",") + "]")
			},
			malformed: []byte("[" + texts[0] + "," + texts[1] + `,{"v":]`),
			firstBad:  []byte(`[{"v":]`),
		},
		{
			name: "ndjson", ctype: "application/x-ndjson",
			body: func(from, to int) []byte {
				return []byte(strings.Join(texts[from:to], "\n") + "\n")
			},
			malformed: []byte(texts[0] + "\n" + texts[1] + "\n" + `{"v":` + "\n"),
			firstBad:  []byte(`{"v":` + "\n"),
			added:     2,
			position:  map[string]float64{"line": 3, "offset": float64(len(texts[0]) + len(texts[1]) + 2)},
		},
		{
			name: "bin", ctype: wire.BinContentType,
			body: func(from, to int) []byte { return wire.AppendFrame(nil, rows[from:to]) },
			malformed: append(wire.AppendFrame(nil, rows[:2]),
				corrupt(wire.AppendFrame(nil, rows[2:3]))...),
			firstBad: corrupt(wire.AppendFrame(nil, rows[:1])),
			added:    2,
			position: map[string]float64{"row": 2, "frame": 2, "offset": float64(len(wire.AppendFrame(nil, rows[:2])))},
		},
	}

	var ref []string // the first format's transcript
	for _, f := range formats {
		h := newHarness(t, Options{Sampler: rtbsConfig(11), MaxPendingItems: 6})
		var got []string
		for _, req := range []struct {
			path     string
			from, to int
			status   int
		}{
			{"/v1/streams/k/items?batch=2", 0, 5, http.StatusOK},
			{"/v1/streams/k/items?advance=true", 5, 9, http.StatusOK},
			{"/v1/streams/k/items?batch=3&advance=1", 9, 13, http.StatusOK},
			{"/v1/streams/k/items?batch=abc", 0, 2, http.StatusBadRequest},
			{"/v1/streams/k/items?batch=0", 0, 2, http.StatusBadRequest},
		} {
			resp, body := h.post(req.path, f.ctype, f.body(req.from, req.to))
			if resp.StatusCode != req.status {
				t.Fatalf("%s: POST %s: status %d, want %d: %s", f.name, req.path, resp.StatusCode, req.status, body)
			}
			got = append(got, string(body))
		}
		if !strings.Contains(got[0], `"boundaries":2`) {
			t.Errorf("%s: five items with ?batch=2 answered %s, want 2 boundaries", f.name, got[0])
		}
		got = append(got, h.get("/v1/streams/k/stats"), h.get("/v1/streams/k/sample"))
		if ref == nil {
			ref = got
		} else {
			for i := range got {
				if got[i] != ref[i] {
					t.Errorf("%s disagrees with %s at step %d:\n got  %s\n want %s", f.name, formats[0].name, i, got[i], ref[i])
				}
			}
		}

		// A malformed item: the items before it are accepted and the
		// error names where decoding stood.
		resp, body := h.post("/v1/streams/m/items", f.ctype, f.malformed)
		var fail map[string]any
		if err := json.Unmarshal(body, &fail); err != nil {
			t.Fatalf("%s: malformed item: %v: %s", f.name, err, body)
		}
		if status := resp.StatusCode; status != http.StatusBadRequest || fail["code"] != "bad_request" || fail["added"] != float64(f.added) {
			t.Errorf("%s: malformed item: status %d body %s, want 400 bad_request added=%d", f.name, status, body, f.added)
		}
		for k, v := range f.position {
			if fail[k] != v {
				t.Errorf("%s: malformed item: %s = %v, want %v (body %s)", f.name, k, fail[k], v, body)
			}
		}

		// Rejected before any item was accepted: no stream is created.
		before := h.get("/v1/streams")
		for _, req := range []struct {
			path   string
			body   []byte
			status int
		}{
			{"/v1/streams/fresh/items", f.firstBad, http.StatusBadRequest},
			{"/v1/streams/fresh/items?batch=abc", f.body(0, 2), http.StatusBadRequest},
			{"/v1/streams/fresh/items", f.body(0, 7), http.StatusRequestEntityTooLarge},
		} {
			if resp, body := h.post(req.path, f.ctype, req.body); resp.StatusCode != req.status {
				t.Errorf("%s: POST %s: status %d, want %d: %s", f.name, req.path, resp.StatusCode, req.status, body)
			}
		}
		if after := h.get("/v1/streams"); after != before {
			t.Errorf("%s: rejected requests changed /v1/streams from %s to %s", f.name, before, after)
		}
	}
}

// TestIngestScratchRetention pins the pool's keep/drop decision: one
// retention bound covers every reader, so a scratch whose line or frame
// buffer grew past maxPooledReaderBuf goes back to the GC.
func TestIngestScratchRetention(t *testing.T) {
	drain := func(dec itemDecoder) {
		t.Helper()
		var batch []Item
		for {
			var err error
			if batch, err = dec.fill(batch[:0], 1<<20); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	}
	rowsOf := func(payloadBytes int) [][]float64 {
		rows := make([][]float64, payloadBytes/10) // 2-byte header + one float per row
		for i := range rows {
			rows[i] = []float64{float64(i)}
		}
		return rows
	}
	for _, c := range []struct {
		name, ctype string
		body        []byte
		keep        bool
	}{
		{"json", "application/json", []byte(`[1,2,3]`), true},
		{"small lines", "application/x-ndjson", []byte("1\n2\n"), true},
		{"long line", "application/x-ndjson", []byte(`"` + strings.Repeat("x", 2*maxPooledReaderBuf) + `"` + "\n"), false},
		{"retained frame", wire.BinContentType, wire.AppendFrame(nil, rowsOf(wire.MaxRetainedFrameBytes/2)), true},
		{"copied frame within the bound", wire.BinContentType, wire.AppendFrame(nil, rowsOf(2*wire.MaxRetainedFrameBytes)), true},
		{"copied frame past the bound", wire.BinContentType, wire.AppendFrame(nil, rowsOf(2*maxPooledReaderBuf)), false},
	} {
		sc := ingestPool.New().(*ingestScratch)
		drain(sc.decoder(c.ctype, bytes.NewReader(c.body)))
		if got := sc.release(); got != c.keep {
			t.Errorf("%s: release kept=%v, want %v (line reader %v, frame buffer %d)",
				c.name, got, c.keep, sc.lr, sc.br.BufCap())
		}
	}
}
