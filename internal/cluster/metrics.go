package cluster

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// nodeCounters is one backend's per-node traffic tally.
type nodeCounters struct {
	forwarded atomic.Uint64
	errors    atomic.Uint64
}

// RouterMetrics aggregates the router's observability counters. All
// counters are atomics and the latency a lock-free obs.Histogram, so the
// forward hot path takes no lock beyond the per-node map's.
type RouterMetrics struct {
	requests      atomic.Uint64 // client requests accepted
	forwardErrors atomic.Uint64 // transport failures talking to a node
	unavailable   atomic.Uint64 // rejected up front: owner marked down
	fanouts       atomic.Uint64 // cluster-wide fan-out requests (list)
	handoffs      atomic.Uint64 // migrations driven to completion
	handoffErrors atomic.Uint64
	responseBytes atomic.Uint64
	// forwardLat times every request successfully proxied to a node; its
	// count is tbsrouter_forwarded_total.
	forwardLat obs.Histogram

	mu     sync.Mutex
	byNode map[string]*nodeCounters
}

// NewRouterMetrics builds the counter set for the given members.
func NewRouterMetrics(nodes []Node) *RouterMetrics {
	m := &RouterMetrics{byNode: make(map[string]*nodeCounters, len(nodes))}
	for _, n := range nodes {
		m.byNode[n.Name] = &nodeCounters{}
	}
	return m
}

// node returns the per-node tally, lazily creating one for names outside
// the initial membership (defensive; override targets are ring members).
func (m *RouterMetrics) node(name string) *nodeCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.byNode[name]
	if c == nil {
		c = &nodeCounters{}
		m.byNode[name] = c
	}
	return c
}

// ObserveRequest records one client request reaching the router.
func (m *RouterMetrics) ObserveRequest() { m.requests.Add(1) }

// ObserveForward records one completed proxy round trip.
func (m *RouterMetrics) ObserveForward(node string, respBytes int64, d time.Duration) {
	m.responseBytes.Add(uint64(respBytes))
	m.forwardLat.Observe(d)
	m.node(node).forwarded.Add(1)
}

// ObserveForwardError records a transport failure against a node.
func (m *RouterMetrics) ObserveForwardError(node string) {
	m.forwardErrors.Add(1)
	m.node(node).errors.Add(1)
}

// ObserveUnavailable records one request rejected because its owner is
// marked down (the degraded-routing 503).
func (m *RouterMetrics) ObserveUnavailable() { m.unavailable.Add(1) }

// ObserveFanout records one cluster-wide fan-out request.
func (m *RouterMetrics) ObserveFanout() { m.fanouts.Add(1) }

// ObserveHandoff records one migration attempt driven by the router.
func (m *RouterMetrics) ObserveHandoff(ok bool) {
	if ok {
		m.handoffs.Add(1)
	} else {
		m.handoffErrors.Add(1)
	}
}

// WriteTo renders the counters in Prometheus text format. Node health is
// passed in by the caller (the prober owns it) so RouterMetrics stays a
// pure accumulator.
func (m *RouterMetrics) WriteTo(w io.Writer, status []NodeStatus) error {
	var b []byte
	line := func(format string, args ...any) {
		b = fmt.Appendf(b, format+"\n", args...)
	}

	line("tbsrouter_requests_total %d", m.requests.Load())
	line("tbsrouter_forwarded_total %d", m.forwardLat.Count())
	line("tbsrouter_forward_errors_total %d", m.forwardErrors.Load())
	line("tbsrouter_unavailable_total %d", m.unavailable.Load())
	line("tbsrouter_fanouts_total %d", m.fanouts.Load())
	line("tbsrouter_handoffs_total %d", m.handoffs.Load())
	line("tbsrouter_handoff_errors_total %d", m.handoffErrors.Load())
	line("tbsrouter_response_bytes_total %d", m.responseBytes.Load())

	b = m.forwardLat.AppendProm(b, "tbsrouter_forward_latency_seconds", "")

	line("tbsrouter_nodes %d", len(status))
	for _, st := range status {
		up := 0
		if st.Healthy {
			up = 1
		}
		// Node names come from operator config, so escape them the
		// Prometheus way (%q would produce Go, not Prometheus, escapes).
		name := obs.EscapeLabel(st.Node.Name)
		line(`tbsrouter_node_up{node="%s"} %d`, name, up)
		line(`tbsrouter_node_probes_total{node="%s"} %d`, name, st.Probes)
		line(`tbsrouter_node_probe_failures_total{node="%s"} %d`, name, st.Failures)
		c := m.node(st.Node.Name)
		line(`tbsrouter_node_forwarded_total{node="%s"} %d`, name, c.forwarded.Load())
		line(`tbsrouter_node_forward_errors_total{node="%s"} %d`, name, c.errors.Load())
	}

	_, err := w.Write(b)
	return err
}
