//go:build !race

package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"testing"
)

// TestWALAppendZeroAlloc extends the ingest pipeline's steady-state
// allocation contract (core.TestIngestHotPathZeroAlloc) through the
// journaling stage: encoding and writing an item-append record reuses the
// pooled encode buffer, so a WAL-enabled hot path still costs zero
// allocations per operation once buffers have warmed. (Excluded under
// -race: the detector's instrumentation perturbs allocation accounting.)
func TestWALAppendZeroAlloc(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const batch = 256
	items := make([]json.RawMessage, batch)
	for i := range items {
		items[i] = json.RawMessage(fmt.Sprintf(`{"sensor":%d,"v":%d}`, i%64, i))
	}
	// Warm the pooled encode buffer up to the record size.
	for i := 0; i < 8; i++ {
		if _, err := AppendItems(l, "hot-stream", items); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := AppendItems(l, "hot-stream", items); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state WAL append allocates %.2f times per record, want 0", avg)
	}

	// The boundary record path shares the contract.
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := l.AppendRecord(TypeBatchBoundary, "hot-stream", nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state boundary append allocates %.2f times per record, want 0", avg)
	}
}

// TestRecordCheckZeroAlloc: the record check that log scans run on every
// frame, including the frames they pass over, allocates nothing.
func TestRecordCheckZeroAlloc(t *testing.T) {
	items := make([]json.RawMessage, 256)
	for i := range items {
		items[i] = json.RawMessage(fmt.Sprintf(`{"sensor":%d,"v":%d}`, i%64, i))
	}
	payload := appendPayloadHeader(nil, 1, TypeItemAppend, "hot-stream")
	payload = binary.AppendUvarint(payload, uint64(len(items)))
	for _, it := range items {
		payload = binary.AppendUvarint(payload, uint64(len(it)))
		payload = append(payload, it...)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := checkRecord(payload); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("record check allocates %.2f times per record, want 0", avg)
	}
}
