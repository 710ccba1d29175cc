// Package metriclintok pins metriclint's negative space: the renderer
// idioms from internal/server, internal/cluster, and internal/obs that
// must stay silent. Each case began life as a would-be false positive
// during the analyzer's bring-up against the real tree.
package metriclintok

import (
	"fmt"
	"strconv"
)

// EscapeLabel stands in for obs.EscapeLabel — the analyzer matches the
// callee by name.
func EscapeLabel(s string) string { return s }

func line(b []byte, format string, args ...any) []byte {
	return fmt.Appendf(b, format+"\n", args...)
}

func goodNames(b []byte, n int, v float64) []byte {
	b = line(b, "tbsd_items_total %d", n)
	b = line(b, "tbsrouter_forward_errors_total %d", n)
	b = line(b, "tbsd_flush_latency_seconds %g", v)
	b = line(b, "tbsd_heap_bytes %d", n)
	// The runtime-bridge metrics keep their standard client prefixes.
	b = line(b, "go_gc_pause_seconds %g", v)
	b = line(b, "process_resident_memory_bytes %d", n)
	return b
}

// Dynamic labels through EscapeLabel, directly or via a single
// assignment (the cluster node-metrics shape).
func escapedLabels(b []byte, nodeName string, up int) []byte {
	b = line(b, `tbsrouter_node_up{node="%s"} %d`, EscapeLabel(nodeName), up)
	name := EscapeLabel(nodeName)
	b = line(b, `tbsrouter_node_healthy{node="%s"} %d`, name, up)
	return b
}

// Non-string verbs format to label-safe characters (the shard-gauge
// shape uses fmt.Sprint of an int).
func numericLabels(b []byte, shard int, n int) []byte {
	b = line(b, `tbsd_shard_streams{shard="%d"} %d`, shard, n)
	b = line(b, `tbsd_shard_streams_v2{shard="%s"} %d`, fmt.Sprint(shard), n)
	b = line(b, `tbsd_shard_streams_v3{shard="%s"} %d`, strconv.Itoa(shard), n)
	return b
}

// The same bare name in different functions is two renderers, not a
// duplicate registration.
func renderA(b []byte, n int) []byte { return line(b, "tbsd_ready %d", n) }
func renderB(b []byte, n int) []byte { return line(b, "tbsd_ready %d", n) }

// Repeated names with label blocks are distinct series.
func labeledSeries(b []byte, n int) []byte {
	b = line(b, `tbsd_wal_records_total{kind="append"} %d`, n)
	b = line(b, `tbsd_wal_records_total{kind="advance"} %d`, n)
	return b
}

// The histogram bucket shape: labels built by byte-append, never by
// string concatenation.
func bucketShape(b []byte, le float64, count uint64) []byte {
	b = append(b, `tbsd_stage_seconds_bucket{le="`...)
	b = strconv.AppendFloat(b, le, 'g', -1, 64)
	b = append(b, `"} `...)
	b = strconv.AppendUint(b, count, 10)
	return append(b, '\n')
}

// Log lines that happen to end in a verb are not exposition lines: a
// single-word name with no label block never looks like a metric.
func logging(n int, path string) {
	fmt.Printf("checkpoint %d\n", n)
	fmt.Printf("listening on %s\n", path)
	fmt.Printf("read: %v\n", n)
}
