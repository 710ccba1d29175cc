package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"unsafe"
)

// FuzzDecodeRecord throws arbitrary bytes at the record check and
// decoder: they must never panic, and an accepted item-append must
// re-encode to an equivalent record (no silent reinterpretation). The
// check must accept exactly what a straightforward copying decoder
// accepts, and decodeRecord must then return that decoder's record, with
// every item and Data inside the payload and its capacity equal to its
// length, so that a kept item can never be grown into its neighbour.
func FuzzDecodeRecord(f *testing.F) {
	// Seed with valid payloads of every type.
	seed := func(lsn uint64, t Type, key string, body func([]byte) []byte) {
		buf := appendPayloadHeader(nil, lsn, t, key)
		if body != nil {
			buf = body(buf)
		}
		f.Add(buf)
	}
	seed(1, TypeItemAppend, "k", func(b []byte) []byte {
		b = binary.AppendUvarint(b, 2)
		for _, it := range [][]byte{[]byte(`{"a":1}`), []byte(`7`)} {
			b = binary.AppendUvarint(b, uint64(len(it)))
			b = append(b, it...)
		}
		return b
	})
	seed(2, TypeBatchBoundary, "stream", nil)
	seed(3, TypeModelAttach, "m", func(b []byte) []byte {
		return append(b, `{"learner":"knn"}`...)
	})
	seed(4, TypeStreamDelete, "gone", nil)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, payload []byte) {
		want, werr := referenceDecode(payload)
		h, err := checkRecord(payload)
		if (err == nil) != (werr == nil) {
			t.Fatalf("check and reference decoder disagree: %v vs %v", err, werr)
		}
		if err != nil {
			return
		}
		rec := decodeRecord(payload, h)
		if rec.LSN != want.LSN || rec.Type != want.Type || rec.Key != want.Key ||
			!bytes.Equal(rec.Data, want.Data) || len(rec.Items) != len(want.Items) {
			t.Fatalf("decoded %+v, reference %+v", rec, want)
		}
		for i, b := range append(rec.Items, rec.Data) {
			if i < len(want.Items) && !bytes.Equal(b, want.Items[i]) {
				t.Fatalf("item %d = %q, reference %q", i, b, want.Items[i])
			}
			if len(b) == 0 {
				continue
			}
			if cap(b) != len(b) {
				t.Fatalf("decoded slice has cap %d for len %d", cap(b), len(b))
			}
			if !inside(b, payload) {
				t.Fatal("decoded slice lies outside the payload")
			}
		}
		if rec.Type < TypeItemAppend || rec.Type > TypeSampleRead {
			t.Fatalf("decoder accepted unknown type %d", rec.Type)
		}
		if rec.Type == TypeItemAppend {
			// Accepted records must survive a re-encode/decode round trip.
			buf := appendPayloadHeader(nil, rec.LSN, rec.Type, rec.Key)
			buf = binary.AppendUvarint(buf, uint64(len(rec.Items)))
			for _, it := range rec.Items {
				buf = binary.AppendUvarint(buf, uint64(len(it)))
				buf = append(buf, it...)
			}
			h2, err := checkRecord(buf)
			if err != nil {
				t.Fatalf("re-encode of accepted record fails its check: %v", err)
			}
			rec2 := decodeRecord(buf, h2)
			if rec2.LSN != rec.LSN || rec2.Key != rec.Key || len(rec2.Items) != len(rec.Items) {
				t.Fatalf("round trip diverged: %+v vs %+v", rec, rec2)
			}
		}
	})
}

// referenceDecode is a straightforward decoder that copies every field:
// the log's decoder before checking and decoding were split.
func referenceDecode(payload []byte) (Record, error) {
	var r Record
	lsn, n := binary.Uvarint(payload)
	if n <= 0 {
		return r, errors.New("bad LSN varint")
	}
	payload = payload[n:]
	if len(payload) < 1 {
		return r, errors.New("missing type byte")
	}
	t := Type(payload[0])
	payload = payload[1:]
	if t < TypeItemAppend || t > TypeSampleRead {
		return r, errors.New("unknown type")
	}
	keyLen, n := binary.Uvarint(payload)
	if n <= 0 || keyLen > uint64(len(payload[n:])) {
		return r, errors.New("bad key length")
	}
	payload = payload[n:]
	r.LSN, r.Type, r.Key = lsn, t, string(payload[:keyLen])
	payload = payload[keyLen:]
	if t != TypeItemAppend {
		if len(payload) > 0 {
			r.Data = append([]byte(nil), payload...)
		}
		return r, nil
	}
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload[n:])) {
		return r, errors.New("bad item count")
	}
	payload = payload[n:]
	for i := uint64(0); i < count; i++ {
		itemLen, n := binary.Uvarint(payload)
		if n <= 0 || itemLen > uint64(len(payload[n:])) {
			return r, errors.New("bad item length")
		}
		r.Items = append(r.Items, append([]byte(nil), payload[n:n+int(itemLen)]...))
		payload = payload[n+int(itemLen):]
	}
	if len(payload) != 0 {
		return r, errors.New("trailing bytes")
	}
	return r, nil
}

// inside reports whether b is a subslice of p.
func inside(b, p []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return start >= lo && start+uintptr(len(b)) <= lo+uintptr(len(p))
}

// FuzzReadFrame feeds arbitrary byte streams to the frame scanner: it
// must yield frames or errors, never panic, and must only accept a frame
// whose CRC matches.
func FuzzReadFrame(f *testing.F) {
	valid := appendFrameHeader(nil)
	valid = appendPayloadHeader(valid, 1, TypeBatchBoundary, "k")
	valid = finishFrame(valid, 0)
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // torn tail
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		offset := 0
		var buf []byte // reused across frames, as a scan reuses it
		for {
			payload, n, err := readFrame(br, buf)
			if err != nil {
				return // io.EOF or a framing error; both fine
			}
			buf = payload
			// The scanner claimed this frame is intact: verify the CRC
			// really covers what it returned.
			if offset+frameHeaderSize > len(data) {
				t.Fatal("frame accepted beyond the input")
			}
			want := binary.LittleEndian.Uint32(data[offset+4:])
			if crc32.Checksum(payload, crcTable) != want {
				t.Fatal("accepted frame fails its own CRC")
			}
			offset += int(n)
		}
	})
}
