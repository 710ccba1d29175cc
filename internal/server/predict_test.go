package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestParallelPredictDuringRetrain hammers the predict endpoint from
// many goroutines while boundaries keep retraining and swapping the
// deployed model. Run under -race this proves the atomic-pointer publish
// on the predict hot path: readers never lock against the trainer, and
// every response is served by a complete model (train size > 0, one
// prediction per query).
func TestParallelPredictDuringRetrain(t *testing.T) {
	h := newHarness(t, Options{Sampler: rtbsConfig(11), Shards: 4, RetrainWorkers: 2})
	const key = "hot"
	h.attachModel(key, map[string]any{"learner": "knn", "policy": "always"})
	h.do("POST", "/v1/streams/"+key+"/items", labeledBatch(1, 40), http.StatusOK, nil)
	h.do("POST", "/v1/streams/"+key+"/advance", nil, http.StatusOK, nil)
	// The first retrain runs on the background lane; model stats waits
	// for it, so the readers below never start before a model exists
	// (they would get 409 model_not_trained, which is not what this test
	// is about).
	h.modelStats(key)

	const (
		readers  = 8
		predicts = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: keep closing boundaries so retrains and atomic swaps churn
	// underneath the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tt := 2; tt <= 20; tt++ {
			h.do("POST", "/v1/streams/"+key+"/items", labeledBatch(tt, 40), http.StatusOK, nil)
			h.do("POST", "/v1/streams/"+key+"/advance", nil, http.StatusOK, nil)
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf(`{"x":[%d.5,%d.5]}`, g%10, g%10))
			for i := 0; i < predicts; i++ {
				resp, err := http.Post(h.ts.URL+"/v1/streams/"+key+"/model/predict",
					"application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("predict: status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkPredict measures the predict hot path end to end (HTTP +
// atomic model load + KNN scan), in parallel — the configuration the
// atomic.Pointer publish exists for.
func BenchmarkPredict(b *testing.B) {
	srv, err := New(Options{Sampler: rtbsConfig(11), Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer srv.Stop(b.Context())
	// Train once via direct handler calls, then benchmark predicts.
	h := &benchHarness{handler: srv.Handler()}
	h.must(b, "PUT", "/v1/streams/bench/model", `{"learner":"knn","policy":"always"}`)
	h.must(b, "POST", "/v1/streams/bench/items", labeledBody(1, 200))
	h.must(b, "POST", "/v1/streams/bench/advance", "")
	// Stats waits out the (possibly background) first train, so the
	// deployed pointer is non-nil before the clock starts.
	h.must(b, "GET", "/v1/streams/bench/model/stats", "")

	query := []byte(`{"x":[5.1,4.9]}`)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req, _ := http.NewRequest("POST", "/v1/streams/bench/model/predict", bytes.NewReader(query))
			rw := &discardResponseWriter{header: make(http.Header)}
			h.handler.ServeHTTP(rw, req)
			if rw.status != http.StatusOK {
				b.Fatalf("predict: status %d", rw.status)
			}
		}
	})
}

// benchHarness drives the handler without a TCP listener so the
// benchmark measures the server, not the loopback stack.
type benchHarness struct{ handler http.Handler }

func (h *benchHarness) must(b *testing.B, method, path, body string) {
	b.Helper()
	req, _ := http.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rw := &discardResponseWriter{header: make(http.Header)}
	h.handler.ServeHTTP(rw, req)
	if rw.status != http.StatusOK {
		b.Fatalf("%s %s: status %d", method, path, rw.status)
	}
}

func labeledBody(t, size int) string {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i := 0; i < size; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		class := i % 2
		fmt.Fprintf(&buf, `{"x":[%d.%d,%d.%d],"y":%d}`, class*10, (t*31+i*17)%100, class*10, (t*13+i*7)%100, class)
	}
	buf.WriteByte(']')
	return buf.String()
}

type discardResponseWriter struct {
	header http.Header
	status int
}

func (d *discardResponseWriter) Header() http.Header { return d.header }
func (d *discardResponseWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return len(p), nil
}
func (d *discardResponseWriter) WriteHeader(status int) { d.status = status }
