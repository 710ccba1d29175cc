// Package metriclintbad seeds exposition-format violations: bad names,
// bad units, duplicate series, unescaped dynamic labels, and quantile
// gauges.
package metriclintbad

import "fmt"

func line(b []byte, format string, args ...any) []byte {
	return fmt.Appendf(b, format+"\n", args...)
}

func badNames(b []byte, n int) []byte {
	b = line(b, "requests_total %d", n)      // want `must start with tbsd_ or tbsrouter_`
	b = line(b, "tbsd_Requests_total %d", n) // want `is not snake_case`
	b = line(b, "tbsd_req__count %d", n)     // want `is not snake_case`
	return b
}

func badUnits(b []byte, v float64) []byte {
	b = line(b, "tbsd_req_latency_ms %g", v)   // want `non-base unit "_ms"`
	b = line(b, "tbsd_heap_kb %g", v)          // want `non-base unit "_kb"`
	b = line(b, "tbsd_compact_duration %g", v) // want `needs a base-unit suffix`
	b = line(b, "tbsd_sync_time_total %g", v)  // want `needs a base-unit suffix`
	return b
}

func duplicateSeries(b []byte, n int) []byte {
	b = line(b, "tbsd_items_total %d", n)
	b = line(b, "tbsd_items_total %d", n+1) // want `emitted more than once`
	return b
}

func unescapedVerb(b []byte, node string, up int) []byte {
	return line(b, `tbsd_node_up{node="%s"} %d`, node, up) // want `label "node" must flow through obs.EscapeLabel`
}

func unquotedVerb(b []byte, node string, up int) []byte {
	return line(b, `tbsd_node_up{node=%s} %d`, node, up) // want `label "node" value %s is unquoted`
}

func unescapedConcat(node string) string {
	return `tbsd_node_up{node="` + node + `"} 1` // want `label "node" must flow through obs.EscapeLabel`
}

// The retired latency helper shape: a dynamic metric name with a
// per-process quantile label.
func latShape(b []byte, name string, mean float64) []byte {
	b = line(b, "%s{stat=%q} %g", name, "mean", mean)      // want `per-process quantile gauges do not aggregate across nodes`
	b = line(b, `tbsd_fsync_seconds{stat="p99"} %g`, mean) // want `per-process quantile gauges do not aggregate across nodes`
	return b
}

type histo struct{}

func (histo) AppendProm(b []byte, name string, labels []byte) []byte { return b }

func badAppendProm(b []byte, h histo, daemon string) []byte {
	b = h.AppendProm(b, "tbsd_flush_latency_ms", nil) // want `non-base unit "_ms"`
	b = h.AppendProm(b, daemon+"_apply_micros", nil)  // want `non-base unit "_micros"`
	return b
}
