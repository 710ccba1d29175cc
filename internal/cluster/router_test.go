package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// echoNode is a fake tbsd node: it records every request body it sees
// and answers JSON naming itself, so tests can assert both placement and
// that bodies stream through the router intact.
type echoNode struct {
	name string
	ts   *httptest.Server

	mu     sync.Mutex
	bodies map[string][]byte // method+path -> last body
	ctypes map[string]string // method+path -> last Content-Type
}

func newEchoNode(t *testing.T, name string) *echoNode {
	t.Helper()
	n := &echoNode{name: name, bodies: make(map[string][]byte), ctypes: make(map[string]string)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/streams", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"streams": []string{name + "-s1", name + "-s2"}})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		n.mu.Lock()
		n.bodies[r.Method+" "+r.URL.RequestURI()] = body
		n.ctypes[r.Method+" "+r.URL.RequestURI()] = r.Header.Get("Content-Type")
		n.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"node": name, "path": r.URL.Path})
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func (n *echoNode) addr() string { return strings.TrimPrefix(n.ts.URL, "http://") }

func (n *echoNode) body(methodAndURI string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.bodies[methodAndURI]
	return b, ok
}

// testCluster wires three echo nodes behind a router.
type testCluster struct {
	nodes  map[string]*echoNode
	ring   *Ring
	router *Router
	ts     *httptest.Server
}

func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	c := &testCluster{nodes: make(map[string]*echoNode)}
	var members []Node
	for _, name := range []string{"a", "b", "c"} {
		n := newEchoNode(t, name)
		c.nodes[name] = n
		members = append(members, Node{Name: name, Addr: n.addr()})
	}
	ring, err := NewRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.ring = ring
	c.router, err = NewRouter(RouterOptions{
		Ring:          ring,
		ProbeInterval: 5 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ts = httptest.NewServer(c.router.Handler())
	t.Cleanup(func() { c.ts.Close(); c.router.Stop() })
	return c
}

func (c *testCluster) get(t *testing.T, path string, wantStatus int) map[string]any {
	t.Helper()
	return c.req(t, http.MethodGet, path, "", wantStatus)
}

func (c *testCluster) req(t *testing.T, method, path, body string, wantStatus int) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, data)
	}
	var out map[string]any
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
	return out
}

// TestRouterForwardsToOwner: every key's request lands on exactly the
// node the ring places it on, with query string intact.
func TestRouterForwardsToOwner(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		owner := c.ring.Owner(key).Name
		out := c.req(t, http.MethodPost, "/v1/streams/"+key+"/items?advance=true", `[1,2,3]`, http.StatusOK)
		if got := out["node"]; got != owner {
			t.Fatalf("key %q served by %v, ring owner is %s", key, got, owner)
		}
		uri := "POST /v1/streams/" + key + "/items?advance=true"
		body, ok := c.nodes[owner].body(uri)
		if !ok {
			t.Fatalf("owner %s never saw %s", owner, uri)
		}
		if string(body) != `[1,2,3]` {
			t.Fatalf("body arrived as %q", body)
		}
	}
}

// TestRouterStreamsNDJSON: a multi-line NDJSON body flows through the
// router byte-for-byte.
func TestRouterStreamsNDJSON(t *testing.T) {
	c := newTestCluster(t)
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, `{"v":%d}`+"\n", i)
	}
	key, body := "nd-stream", b.String()
	owner := c.ring.Owner(key).Name
	c.req(t, http.MethodPost, "/v1/streams/"+key+"/items", body, http.StatusOK)
	got, ok := c.nodes[owner].body("POST /v1/streams/" + key + "/items")
	if !ok {
		t.Fatalf("owner %s never saw the ingest", owner)
	}
	if string(got) != body {
		t.Fatalf("NDJSON body corrupted in transit: %d bytes arrived, %d sent", len(got), len(body))
	}
}

// TestRouterForwardsBinaryUninspected: an x-tbs-bin frame body — CRC
// framing, bytes outside ASCII, embedded zeros — reaches the key's owner
// byte-for-byte with its Content-Type intact. The router must never
// sniff, decode, or re-encode ingest bodies; binary clients depend on it.
func TestRouterForwardsBinaryUninspected(t *testing.T) {
	c := newTestCluster(t)
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{float64(i) / 8, -float64(i * 3)}
	}
	body := wire.AppendFrame(nil, rows[:128])
	body = wire.AppendFrame(body, rows[128:])
	key := "bin-stream"
	owner := c.ring.Owner(key).Name
	req, err := http.NewRequest(http.MethodPost, c.ts.URL+"/v1/streams/"+key+"/items?batch=128", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.BinContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	uri := "POST /v1/streams/" + key + "/items?batch=128"
	got, ok := c.nodes[owner].body(uri)
	if !ok {
		t.Fatalf("owner %s never saw the binary ingest", owner)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("binary body corrupted in transit: %d bytes arrived, %d sent", len(got), len(body))
	}
	c.nodes[owner].mu.Lock()
	ct := c.nodes[owner].ctypes[uri]
	c.nodes[owner].mu.Unlock()
	if ct != wire.BinContentType {
		t.Fatalf("Content-Type arrived as %q, want %q", ct, wire.BinContentType)
	}
}

// TestRouterDownNode503: once the prober marks a node down, requests for
// its keys answer a structured 503 naming the owner instead of dialing a
// dead address.
func TestRouterDownNode503(t *testing.T) {
	c := newTestCluster(t)
	c.router.Start()
	// Kill node b and wait for the prober to notice.
	c.nodes["b"].ts.Close()
	waitFor(t, "b marked down", func() bool { return !c.router.Prober().Healthy("b") })

	// Find a key owned by b.
	key := ""
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("find-%d", i)
		if c.ring.Owner(k).Name == "b" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key maps to node b")
	}
	out := c.get(t, "/v1/streams/"+key+"/stats", http.StatusServiceUnavailable)
	if out["code"] != "node_down" {
		t.Errorf("code = %v, want node_down", out["code"])
	}
	if out["node"] != "b" || out["key"] != key {
		t.Errorf("error must name the owner and key, got %v", out)
	}

	// Keys owned by surviving nodes keep working.
	for i := 0; ; i++ {
		k := fmt.Sprintf("alive-%d", i)
		if owner := c.ring.Owner(k).Name; owner != "b" {
			out := c.get(t, "/v1/streams/"+k+"/stats", http.StatusOK)
			if out["node"] != owner {
				t.Errorf("surviving key routed to %v, want %s", out["node"], owner)
			}
			break
		}
	}
}

// TestRouterUnreachable502: a node the prober still trusts but that
// refuses connections yields a structured 502 (and feeds the failure
// back into the prober).
func TestRouterUnreachable502(t *testing.T) {
	ring, err := NewRing([]Node{{Name: "dead", Addr: "127.0.0.1:1"}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterOptions{Ring: ring, FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/streams/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["code"] != "node_unreachable" || out["node"] != "dead" {
		t.Errorf("error body %v must carry code node_unreachable and the node name", out)
	}
	// The second failed forward trips FailThreshold via ReportFailure.
	resp2, err := http.Get(ts.URL + "/v1/streams/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if rt.Prober().Healthy("dead") {
		t.Error("forward failures must feed the prober: node should be down now")
	}
	// Third request short-circuits to 503 without dialing.
	resp3, err := http.Get(ts.URL + "/v1/streams/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("down node should answer 503, got %d", resp3.StatusCode)
	}
}

// TestRouterListFanout merges every node's stream list and flags partial
// results when a node is down.
func TestRouterListFanout(t *testing.T) {
	c := newTestCluster(t)
	c.router.Start()
	out := c.get(t, "/v1/streams", http.StatusOK)
	if out["partial"] != false {
		t.Errorf("all nodes up, partial = %v", out["partial"])
	}
	if got := out["count"].(float64); got != 6 {
		t.Errorf("count = %v, want 6 (2 per node)", got)
	}

	c.nodes["c"].ts.Close()
	waitFor(t, "c marked down", func() bool { return !c.router.Prober().Healthy("c") })
	out = c.get(t, "/v1/streams", http.StatusOK)
	if out["partial"] != true {
		t.Errorf("with c down, partial = %v", out["partial"])
	}
	failed, _ := out["failedNodes"].([]any)
	if len(failed) != 1 || failed[0] != "c" {
		t.Errorf("failedNodes = %v, want [c]", failed)
	}
	if got := out["count"].(float64); got != 4 {
		t.Errorf("count = %v, want 4 from the survivors", got)
	}
}

// TestRouterReadyzAndNodes: readyz flips ready once every node has been
// probed; /cluster/nodes reports membership and health.
func TestRouterReadyzAndNodes(t *testing.T) {
	c := newTestCluster(t)
	// Before Start the prober has never probed: 503.
	out := c.get(t, "/readyz", http.StatusServiceUnavailable)
	if out["ready"] != false {
		t.Errorf("unprobed router reports ready = %v", out["ready"])
	}
	c.router.Start()
	waitFor(t, "router ready", func() bool {
		resp, err := http.Get(c.ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	out = c.get(t, "/cluster/nodes", http.StatusOK)
	nodes, _ := out["nodes"].([]any)
	if len(nodes) != 3 {
		t.Fatalf("nodes = %v, want 3 entries", out["nodes"])
	}

	resp, err := http.Get(c.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200 always", resp.StatusCode)
	}
}

// TestRouterHandoffUpdatesRouting: POST /cluster/handoff drives the
// source node's handoff endpoint and re-routes the key afterwards.
func TestRouterHandoffUpdatesRouting(t *testing.T) {
	c := newTestCluster(t)
	c.router.Start()

	key := "moving-stream"
	source := c.ring.Owner(key).Name
	var target string
	for _, n := range []string{"a", "b", "c"} {
		if n != source {
			target = n
			break
		}
	}
	// The echo node answers 200 to the /handoff POST like a real source.
	out := c.req(t, http.MethodPost, "/cluster/handoff?key="+key+"&to="+target, "", http.StatusOK)
	if out["moved"] != true || out["from"] != source || out["to"] != target {
		t.Fatalf("handoff response %v, want moved from %s to %s", out, source, target)
	}
	// The source must have been asked with the target's advertised URL.
	uri := "POST /v1/streams/" + key + "/handoff?target=" +
		"http%3A%2F%2F" + strings.ReplaceAll(c.nodes[target].addr(), ":", "%3A")
	if _, ok := c.nodes[source].body(uri); !ok {
		t.Errorf("source %s never saw the handoff request %q", source, uri)
	}
	// Requests for the key now route to the target, overriding the ring.
	res := c.get(t, "/v1/streams/"+key+"/stats", http.StatusOK)
	if res["node"] != target {
		t.Errorf("post-handoff request served by %v, want %s", res["node"], target)
	}

	// Handoff to the current owner is a no-op.
	out = c.req(t, http.MethodPost, "/cluster/handoff?key="+key+"&to="+target, "", http.StatusOK)
	if out["moved"] != false {
		t.Errorf("re-handoff to the same node should be moved:false, got %v", out)
	}
	// Unknown target name is a 400.
	out = c.req(t, http.MethodPost, "/cluster/handoff?key="+key+"&to=ghost", "", http.StatusBadRequest)
	if out["code"] != "unknown_node" {
		t.Errorf("code = %v, want unknown_node", out["code"])
	}
}

// TestRouterMetrics: the endpoint renders router counters, per-node
// health gauges, and the forward latency as a Prometheus histogram whose
// count is tbsrouter_forwarded_total; no series carries a per-process
// quantile label.
func TestRouterMetrics(t *testing.T) {
	c := newTestCluster(t)
	c.get(t, "/v1/streams/some-key/stats", http.StatusOK)
	c.get(t, "/v1/streams/other-key/stats", http.StatusOK)
	resp, err := http.Get(c.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"tbsrouter_requests_total",
		"tbsrouter_forwarded_total 2",
		`tbsrouter_node_up{node="a"}`,
		`tbsrouter_forward_latency_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	var buckets []uint64
	var lastBucket, count string
	for _, line := range strings.Split(text, "\n") {
		name, val, _ := strings.Cut(line, " ")
		switch {
		case strings.HasPrefix(name, "tbsrouter_forward_latency_seconds_bucket{"):
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || (len(buckets) > 0 && n < buckets[len(buckets)-1]) {
				t.Errorf("bucket line %q is not a cumulative count", line)
			}
			buckets = append(buckets, n)
			lastBucket = name
		case name == "tbsrouter_forward_latency_seconds_count":
			count = val
		}
	}
	if len(buckets) != obs.HistFiniteBuckets+1 || lastBucket != `tbsrouter_forward_latency_seconds_bucket{le="+Inf"}` {
		t.Errorf("%d bucket lines ending in %q, want %d ending in le=\"+Inf\"", len(buckets), lastBucket, obs.HistFiniteBuckets+1)
	}
	if count != "2" {
		t.Errorf("tbsrouter_forward_latency_seconds_count = %q, want 2", count)
	}
	if strings.Contains(text, `stat="`) {
		t.Errorf("metrics output carries a stat label:\n%s", text)
	}
}
