package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// Type tags one WAL record. The set mirrors the server's durable state
// transitions: everything the server acknowledges to a client (or lets a
// client observe, in the case of RNG-consuming sample reads) is journaled
// as exactly one of these before the acknowledgement goes out.
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
	// TypeSampleRead marks one realized sample fetch on a scheme whose
	// realization consumes RNG draws (R-TBS); replay re-draws so the
	// stream's stochastic process stays identical.
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

// Record is one decoded WAL record.
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

// decodeRecord parses one frame payload. It must never panic on arbitrary
// input (the decoder is fuzzed): every length is bounds-checked before
// use.
func decodeRecord(payload []byte) (Record, error) {
	var r Record
	lsn, n := binary.Uvarint(payload)
	if n <= 0 {
		return r, fmt.Errorf("wal: record: bad LSN varint")
	}
	payload = payload[n:]
	if len(payload) < 1 {
		return r, fmt.Errorf("wal: record %d: missing type byte", lsn)
	}
	t := Type(payload[0])
	payload = payload[1:]
	if t < TypeItemAppend || t > TypeSampleRead {
		return r, fmt.Errorf("wal: record %d: unknown type %d", lsn, uint8(t))
	}
	keyLen, n := binary.Uvarint(payload)
	if n <= 0 || keyLen > uint64(len(payload[n:])) {
		return r, fmt.Errorf("wal: record %d: bad key length", lsn)
	}
	payload = payload[n:]
	r.LSN = lsn
	r.Type = t
	r.Key = string(payload[:keyLen])
	payload = payload[keyLen:]

	if t != TypeItemAppend {
		if len(payload) > 0 {
			r.Data = append([]byte(nil), payload...)
		}
		return r, nil
	}
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload[n:])) {
		// Each item costs at least one length byte, so count can never
		// exceed the remaining payload size — reject before allocating.
		return r, fmt.Errorf("wal: record %d: bad item count", lsn)
	}
	payload = payload[n:]
	r.Items = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		itemLen, n := binary.Uvarint(payload)
		if n <= 0 || itemLen > uint64(len(payload[n:])) {
			return r, fmt.Errorf("wal: record %d: bad length for item %d", lsn, i)
		}
		payload = payload[n:]
		r.Items = append(r.Items, append([]byte(nil), payload[:itemLen]...))
		payload = payload[itemLen:]
	}
	if len(payload) != 0 {
		return r, fmt.Errorf("wal: record %d: %d trailing bytes after %d items", lsn, len(payload), count)
	}
	return r, nil
}
