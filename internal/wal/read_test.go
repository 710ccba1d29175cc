package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// appended is what a test wrote for one record, to hold reads against.
type appended struct {
	lsn   uint64
	typ   Type
	key   string
	items [][]byte
	data  []byte
}

// appendRandom journals n records over keys, with item counts and sizes
// drawn from rng so that frames of one key are smaller and larger than
// those of the others: a tail scan then reads kept frames both into the
// buffer it shares and into fresh ones.
func appendRandom(t *testing.T, l *Log, rng *rand.Rand, keys []string, n int) []appended {
	t.Helper()
	var out []appended
	for i := 0; i < n; i++ {
		key := keys[rng.Intn(len(keys))]
		a := appended{typ: TypeItemAppend, key: key}
		var err error
		switch rng.Intn(5) {
		case 0:
			a.typ = TypeBatchBoundary
			a.lsn, err = l.AppendRecord(a.typ, key, nil)
		case 1:
			a.typ = TypeModelAttach
			a.data = []byte(fmt.Sprintf(`{"learner":"knn","k":%d}`, rng.Intn(100)))
			a.lsn, err = l.AppendRecord(a.typ, key, a.data)
		default:
			for j, m := 0, rng.Intn(12); j < m; j++ {
				a.items = append(a.items, bytes.Repeat([]byte{byte('a' + i%26)}, rng.Intn(300)))
			}
			a.lsn, err = AppendItems(l, key, a.items)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// sameRecord reports how r differs from what was appended, or "".
func sameRecord(r Record, a appended) string {
	if r.LSN != a.lsn || r.Type != a.typ || r.Key != a.key {
		return fmt.Sprintf("record %d %v %q, want %d %v %q", r.LSN, r.Type, r.Key, a.lsn, a.typ, a.key)
	}
	if !bytes.Equal(r.Data, a.data) {
		return fmt.Sprintf("record %d: data %q, want %q", r.LSN, r.Data, a.data)
	}
	if len(r.Items) != len(a.items) {
		return fmt.Sprintf("record %d: %d items, want %d", r.LSN, len(r.Items), len(a.items))
	}
	for i := range r.Items {
		if !bytes.Equal(r.Items[i], a.items[i]) {
			return fmt.Sprintf("record %d: item %d = %q, want %q", r.LSN, i, r.Items[i], a.items[i])
		}
	}
	return ""
}

// grown keeps the appends of TestKeptRecordsStayIntact observable.
var grown []byte

// TestKeptRecordsStayIntact: records returned by Replay and TailForKey
// alias their frame buffers, so holding them must be safe. Every kept
// item still equals what was appended after later frames were read,
// after the log is closed, and after an append to each item, which must
// never write into its neighbour.
func TestKeptRecordsStayIntact(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: SyncOff, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	want := appendRandom(t, l, rand.New(rand.NewSource(1)), keys, 300)
	if l.Stats().Segments < 3 {
		t.Fatalf("test needs several segments, got %d", l.Stats().Segments)
	}

	var kept [][]Record
	kept = append(kept, collect(t, l))
	for _, key := range keys {
		recs, err := l.TailForKey(key, 0)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, recs)
	}
	byLSN := make(map[uint64]appended, len(want))
	for _, a := range want {
		byLSN[a.lsn] = a
	}
	check := func(when string) {
		t.Helper()
		for _, recs := range kept {
			for _, r := range recs {
				if diff := sameRecord(r, byLSN[r.LSN]); diff != "" {
					t.Fatalf("%s: %s", when, diff)
				}
			}
		}
	}
	if len(kept[0]) != len(want) {
		t.Fatalf("Replay returned %d records, want %d", len(kept[0]), len(want))
	}
	check("after the scans")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")
	for _, recs := range kept {
		for _, r := range recs {
			for _, it := range r.Items {
				grown = append(it, "!!!!!!!!!!!!!!!!"...)
			}
			if r.Data != nil {
				grown = append(r.Data, "!!!!!!!!!!!!!!!!"...)
			}
		}
	}
	check("after an append to every item")
}

// TestTailForKeyMatchesReplay: a key's tail is Replay filtered to the
// key and to LSNs past afterLSN, over tiny rotating segments and with a
// torn frame at the end of the log, for every afterLSN class: zero,
// inside the log, on either side of a segment boundary, at the last
// record and past it.
func TestTailForKeyMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, err := Open(Options{Dir: t.TempDir(), Fsync: SyncOff, SegmentBytes: int64(256 + rng.Intn(2048))})
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"k0", "k1", "k2", "k3"}
		want := appendRandom(t, l, rng, keys, 40+rng.Intn(80))
		if l.Stats().Segments < 2 {
			t.Fatalf("seed %d: test needs several segments", seed)
		}
		if rng.Intn(2) == 0 {
			// An append in flight: half a frame at the end of the active
			// segment, which every read must treat as the end of the log.
			l.mu.Lock()
			path := l.segments[len(l.segments)-1].path
			l.mu.Unlock()
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			frame := appendPayloadHeader(appendFrameHeader(nil), l.LastLSN()+1, TypeBatchBoundary, "k0")
			frame = finishFrame(frame, 0)
			if _, err := f.Write(frame[:len(frame)-1-rng.Intn(len(frame)-1)]); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		all := collect(t, l)
		if len(all) != len(want) {
			t.Fatalf("seed %d: Replay returned %d records, want %d", seed, len(all), len(want))
		}
		last := want[len(want)-1].lsn
		l.mu.Lock()
		boundary := l.segments[1+rng.Intn(len(l.segments)-1)].first
		l.mu.Unlock()
		afters := []uint64{0, uint64(rng.Intn(int(last))), boundary - 1, boundary, last, last + 1}
		for _, key := range keys {
			for _, after := range afters {
				got, err := l.TailForKey(key, after)
				if err != nil {
					t.Fatalf("seed %d: TailForKey(%s, %d): %v", seed, key, after, err)
				}
				var exp []appended
				for i, r := range all {
					if r.Key == key && r.LSN > after {
						if diff := sameRecord(r, want[i]); diff != "" {
							t.Fatalf("seed %d: Replay: %s", seed, diff)
						}
						exp = append(exp, want[i])
					}
				}
				if len(got) != len(exp) {
					t.Fatalf("seed %d: TailForKey(%s, %d) returned %d records, want %d", seed, key, after, len(got), len(exp))
				}
				for i := range got {
					if diff := sameRecord(got[i], exp[i]); diff != "" {
						t.Fatalf("seed %d: TailForKey(%s, %d): %s", seed, key, after, diff)
					}
				}
			}
		}
		l.Close()
	}
}
