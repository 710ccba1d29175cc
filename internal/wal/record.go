package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Type tags one WAL record. The set mirrors the server's durable state
// transitions: every state change the server acknowledges to a client is
// journaled as exactly one of these before the acknowledgement goes out.
// Two types survive only in older logs (TypeRetrainSwap, TypeSampleRead):
// they stay decodable, and replay skips them.
type Type uint8

const (
	// TypeItemAppend carries items accepted into a stream's open batch.
	TypeItemAppend Type = 1
	// TypeBatchBoundary marks one closed batch boundary for a stream; the
	// items of the batch are the item-appends since the previous boundary.
	TypeBatchBoundary Type = 2
	// TypeModelAttach carries the normalized model spec attached to a
	// stream (replacing any previous model).
	TypeModelAttach Type = 3
	// TypeModelDetach marks a model removal.
	TypeModelDetach Type = 4
	// TypeRetrainSwap marked a completed retrain deployment, carrying the
	// stream's retrain ordinal. tbsd no longer writes it: replay
	// recomputes every retrain from the boundary sequence. It stays
	// decodable so older logs still open, and replay skips it.
	TypeRetrainSwap Type = 5
	// TypeStreamDelete marks a stream deletion; replay drops the stream
	// and every record journaled for it before this point.
	TypeStreamDelete Type = 6
	// TypeSampleRead marked one realized sample fetch, when an R-TBS
	// realization drew from the sampler's RNG. tbsd no longer writes it:
	// a realization is a function of the state, so a read changes
	// nothing. It stays decodable so older logs still open, and replay
	// skips it.
	TypeSampleRead Type = 7
)

func (t Type) String() string {
	switch t {
	case TypeItemAppend:
		return "item-append"
	case TypeBatchBoundary:
		return "batch-boundary"
	case TypeModelAttach:
		return "model-attach"
	case TypeModelDetach:
		return "model-detach"
	case TypeRetrainSwap:
		return "retrain-swap"
	case TypeStreamDelete:
		return "stream-delete"
	case TypeSampleRead:
		return "sample-read"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Record is one decoded WAL record. Items and Data alias one buffer per
// record, which the log never reuses, so a caller may keep them: a kept
// item pins its record's buffer.
type Record struct {
	LSN  uint64
	Type Type
	Key  string
	// Items holds the item payloads of a TypeItemAppend record.
	Items [][]byte
	// Data holds the body of every other record type that carries one
	// (model spec JSON for TypeModelAttach, the big-endian retrain ordinal
	// for TypeRetrainSwap).
	Data []byte
}

// Frame layout:
//
//	[4B little-endian payload length][4B CRC32-IEEE of payload][payload]
//
// Payload layout:
//
//	uvarint LSN | 1B type | uvarint keyLen | key |
//	  TypeItemAppend:  uvarint count, then per item: uvarint len | bytes
//	  everything else: remaining payload bytes are Data
const frameHeaderSize = 8

// maxPayloadBytes bounds one record. The largest legitimate record is one
// NDJSON ingest chunk (≤4096 items within a ≤32MB request body), so 64MB
// is far above anything the server writes while still letting the decoder
// reject a garbage length prefix before allocating.
const maxPayloadBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.IEEE)

// encBufPool recycles record-encode buffers across appends, keeping the
// WAL encode path allocation-free in steady state (the ingest hot path's
// zero-alloc contract extends through journaling).
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 8<<10)
		return &b
	},
}

// appendFrameHeader reserves space for the frame header; the caller fills
// it with finishFrame once the payload is complete.
//
//tbs:zeroalloc
func appendFrameHeader(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// finishFrame writes the length and CRC over the payload that follows the
// header at offset start.
//
//tbs:zeroalloc
func finishFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// appendPayloadHeader encodes the fields every record shares.
//
//tbs:zeroalloc
func appendPayloadHeader(buf []byte, lsn uint64, t Type, key string) []byte {
	buf = binary.AppendUvarint(buf, lsn)
	buf = append(buf, byte(t))
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	return append(buf, key...)
}

// header locates the fields of a payload that checkRecord accepted. It
// holds offsets rather than slices, so it also reads a copy of that
// payload.
type header struct {
	lsn   uint64
	typ   Type
	key   int // the key is payload[key:body]
	body  int // Data, or the item count and the items of a TypeItemAppend
	count int
}

// checkRecord checks one frame payload without decoding it: the LSN
// varint, the type, the key length and, for an item-append, every item
// length and the absence of trailing bytes. It is the one place that
// bounds-checks a payload, it allocates nothing on an accepted payload,
// and it must never panic on arbitrary input (it is fuzzed).
//
//tbs:zeroalloc
func checkRecord(payload []byte) (header, error) {
	var h header
	lsn, n := binary.Uvarint(payload)
	if n <= 0 {
		return h, errBadLSN
	}
	if n >= len(payload) {
		return h, recordErr(lsn, "missing type byte")
	}
	t := Type(payload[n])
	if t < TypeItemAppend || t > TypeSampleRead {
		return h, recordErr(lsn, "unknown type %d", uint8(t))
	}
	keyLen, m := binary.Uvarint(payload[n+1:])
	if m <= 0 || keyLen > uint64(len(payload)-n-1-m) {
		return h, recordErr(lsn, "bad key length")
	}
	h.lsn, h.typ = lsn, t
	h.key = n + 1 + m
	h.body = h.key + int(keyLen)
	if t != TypeItemAppend {
		return h, nil
	}
	rest := payload[h.body:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > uint64(len(rest)-n) {
		// Each item costs at least one length byte, so count can never
		// exceed the remaining payload size.
		return h, recordErr(lsn, "bad item count")
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		itemLen, n := binary.Uvarint(rest)
		if n <= 0 || itemLen > uint64(len(rest)-n) {
			return h, recordErr(lsn, "bad length for item %d", i)
		}
		rest = rest[n+int(itemLen):]
	}
	if len(rest) != 0 {
		return h, recordErr(lsn, "%d trailing bytes after %d items", len(rest), count)
	}
	h.count = int(count)
	return h, nil
}

var errBadLSN = errors.New("wal: record: bad LSN varint")

// recordErr describes why record lsn was rejected. It formats outside
// checkRecord, which must not allocate on an accepted payload.
func recordErr(lsn uint64, format string, args ...any) error {
	return fmt.Errorf("wal: record %d: %s", lsn, fmt.Sprintf(format, args...))
}

// decodeRecord decodes a payload that checkRecord accepted as h, and
// trusts that check instead of repeating it. Items and Data alias the
// payload, each sliced with its capacity equal to its length, so the
// record owns the payload from here on and an append to one item cannot
// write into its neighbour.
func decodeRecord(payload []byte, h header) Record {
	r := Record{LSN: h.lsn, Type: h.typ, Key: string(payload[h.key:h.body])}
	b := payload[h.body:len(payload):len(payload)]
	if h.typ != TypeItemAppend {
		if len(b) > 0 {
			r.Data = b
		}
		return r
	}
	_, w := binary.Uvarint(b) // the item count
	b = b[w:]
	r.Items = make([][]byte, h.count)
	for i := range r.Items {
		n, w := binary.Uvarint(b)
		end := w + int(n)
		r.Items[i] = b[w:end:end]
		b = b[end:]
	}
	return r
}
