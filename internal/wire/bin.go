package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// BinContentType negotiates the compact binary ingest framing.
const BinContentType = "application/x-tbs-bin"

// Frame layout, reusing the write-ahead log's record idiom
// (internal/wal/record.go): an 8-byte header of [4B LE payload length]
// [4B LE CRC-32 (IEEE) of payload], then the payload. The payload is a
// uvarint row count followed by rows, each a 2-byte row header — the
// float count n (1 ≤ n ≤ MaxBinRowFloats) as a CANONICAL two-byte
// uvarint [0x80|n&0x7f, n>>7] — and n little-endian IEEE-754 float64s.
// A one-float row is a value row; n ≥ 2 is a labeled row whose last
// float is the label (see AppendRowJSON). NaN and infinities are
// rejected at decode so every row renders to valid JSON.
//
// The two-byte row header is deliberate, not an encoding accident: its
// first byte always has the high bit set, while the first byte of any
// valid JSON value is ASCII (< 0x80). A row — header plus floats — can
// therefore live verbatim alongside JSON text items and remain
// self-describing from its first byte, which is what lets the server
// store binary rows unrendered and defer all JSON materialization to
// the consumers that actually read them (see BinItemJSON). The decoder
// rejects one-byte row headers to keep that invariant airtight.
const (
	binHeaderSize = 8

	// BinRowHeaderSize is the canonical row header width: the float
	// count as a forced two-byte uvarint whose first byte is ≥ 0x80.
	BinRowHeaderSize = 2

	// MaxBinPayloadBytes bounds a single frame so a corrupt length
	// prefix cannot force a huge allocation.
	MaxBinPayloadBytes = 8 << 20

	// MaxBinRowFloats bounds one row's width (and fits the two-byte
	// header: 4096 < 2¹⁴).
	MaxBinRowFloats = 4096

	// MaxRetainedFrameBytes is the zero-copy cutoff for NextFrameItems:
	// frames with payloads up to this size transfer ownership to the
	// caller, so row slices alias the wire buffer with no copy at all.
	// The bound exists because a surviving sample row pins its whole
	// frame — with 64KB frames a 1000-row reservoir pins at most ~64MB
	// worst case — while oversized frames are decoded into caller-interned
	// copies instead.
	MaxRetainedFrameBytes = 64 << 10
)

var binCRCTable = crc32.MakeTable(crc32.IEEE)

// BinError reports a malformed binary stream with enough position data
// for a structured 400 body: the 1-based frame ordinal and the absolute
// byte offset of that frame's first byte.
type BinError struct {
	Frame  int
	Offset int64
	Reason string
}

func (e *BinError) Error() string {
	return fmt.Sprintf("x-tbs-bin frame %d at offset %d: %s", e.Frame, e.Offset, e.Reason)
}

// AppendFrame encodes rows as one frame. Row widths and NaN/Inf are the
// caller's responsibility on the encode side; the decoder enforces them.
func AppendFrame(dst []byte, rows [][]float64) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		n := uint64(len(row))
		dst = append(dst, 0x80|byte(n&0x7f), byte(n>>7))
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	payload := dst[start+binHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, binCRCTable))
	return dst
}

// BinReader decodes a stream of frames row by row. All scratch (payload
// buffer, row slice) is held inside the reader and reused, so after the
// first frames decoding allocates nothing. Reset repoints a pooled
// reader at a new stream.
type BinReader struct {
	r        io.Reader
	payload  []byte
	pos      int
	rowsLeft uint64
	vals     []float64
	frame    int
	frameOff int64
	off      int64
	hdr      [binHeaderSize]byte
}

// NewBinReader builds an empty reader; call Reset before use.
func NewBinReader() *BinReader { return &BinReader{} }

// Reset points the reader at a new stream and rewinds all state.
func (br *BinReader) Reset(r io.Reader) {
	br.r = r
	br.pos, br.rowsLeft = 0, 0
	br.payload = br.payload[:0]
	br.frame, br.frameOff, br.off = 0, 0, 0
}

// BufCap reports the payload buffer's capacity — pools use it to drop
// readers that kept a buffer past their retention bound after an
// oversized frame. Retained frames leave none behind (NextFrameItems).
func (br *BinReader) BufCap() int { return cap(br.payload) }

// Frame reports the 1-based ordinal of the current frame.
func (br *BinReader) Frame() int { return br.frame }

// FrameOffset reports the absolute byte offset of the current frame.
func (br *BinReader) FrameOffset() int64 { return br.frameOff }

// NextRow returns the next row's floats. The slice aliases internal
// scratch and is valid only until the next call. err is io.EOF at a
// clean end of stream, a *BinError for malformed input, or the
// underlying reader's error verbatim (so body-limit errors keep their
// type for HTTP status mapping).
//
//tbs:zeroalloc
func (br *BinReader) NextRow() ([]float64, error) {
	raw, err := br.NextRowBytes()
	if err != nil {
		return nil, err
	}
	n := len(raw) / 8
	if cap(br.vals) < n {
		br.vals = make([]float64, n)
	}
	br.vals = br.vals[:n]
	for i := range br.vals {
		br.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return br.vals, nil
}

// NextRowBytes is the copy-free form of NextRow: it returns the row's
// floats as their raw 8n little-endian bytes, aliasing the frame buffer
// (valid only until the next call). Non-finite floats are rejected here,
// so every returned row renders to valid JSON.
//
//tbs:zeroalloc
func (br *BinReader) NextRowBytes() ([]byte, error) {
	for br.rowsLeft == 0 {
		if err := br.readFrame(); err != nil {
			return nil, err
		}
	}
	br.rowsLeft--
	item, err := br.nextItem()
	if err != nil {
		return nil, err
	}
	return item[BinRowHeaderSize:], nil
}

// nextItem consumes one row and returns it in item form — the canonical
// two-byte header plus the float bytes, aliasing the frame buffer. The
// caller has already accounted rowsLeft.
//
//tbs:zeroalloc
func (br *BinReader) nextItem() ([]byte, error) {
	if len(br.payload)-br.pos < BinRowHeaderSize {
		return nil, br.errf("truncated row header")
	}
	b0 := br.payload[br.pos]
	if b0 < 0x80 {
		// A one-byte varint here would make the row's first byte ASCII
		// and break the binary-vs-JSON first-byte invariant.
		return nil, br.errf("non-canonical row header (first byte %#02x < 0x80)", b0)
	}
	n := uint64(b0&0x7f) | uint64(br.payload[br.pos+1])<<7
	if n == 0 || n > MaxBinRowFloats {
		return nil, br.errf("row float count %d outside [1,%d]", n, MaxBinRowFloats)
	}
	end := br.pos + BinRowHeaderSize + int(n)*8
	if end > len(br.payload) {
		return nil, br.errf("row overruns frame payload")
	}
	item := br.payload[br.pos:end]
	br.pos = end
	for i := BinRowHeaderSize; i < len(item); i += 8 {
		// Exponent bits all set means NaN or ±Inf; neither has a JSON
		// rendering.
		if bits := binary.LittleEndian.Uint64(item[i:]); bits&0x7FF0000000000000 == 0x7FF0000000000000 {
			return nil, br.errf("non-finite float64 in row")
		}
	}
	if br.rowsLeft == 0 && br.pos != len(br.payload) {
		return nil, br.errf("%d trailing bytes after last row", len(br.payload)-br.pos)
	}
	return item, nil
}

// NextFrameItems decodes the next whole frame, appending one sub-slice
// per row to items: the row verbatim in item form (two-byte header plus
// float bytes), aliasing the frame's payload buffer. Every row is fully
// validated (canonical header, width bounds, finiteness, trailing
// bytes). When retained is true — payloads up to MaxRetainedFrameBytes —
// buffer ownership transfers to the caller: the slices stay valid
// forever and the reader allocates afresh for the next frame, so small
// frames decode with zero copies. Otherwise the slices are valid only
// until the next frame and the caller must copy what it keeps. On a
// malformed row the rows appended so far are good — the caller commits
// them and reports the error for the row after. err is io.EOF at a
// clean end of stream.
//
// This is the hot bulk-ingest entry point: because rows arrive already
// in self-describing item form, the server stores these bytes directly
// and never renders JSON for items the sampler will discard.
func NextFrameItems[T ~[]byte](br *BinReader, items []T) (_ []T, retained bool, err error) {
	for br.rowsLeft == 0 {
		if err := br.readFrame(); err != nil {
			return items, false, err
		}
	}
	payload := br.payload
	retained = len(payload) <= MaxRetainedFrameBytes
	if retained {
		// Ownership moves to the returned slices; drop the reader's
		// reference so the next frame gets a fresh buffer.
		br.payload = nil
	}
	// The row loop is nextItem inlined: one bounds check, the canonical
	// two-byte header, and a finiteness pass, with no call per row.
	pos := br.pos
	for br.rowsLeft > 0 {
		br.rowsLeft--
		if len(payload)-pos < BinRowHeaderSize {
			br.pos = pos
			return items, retained, br.errf("truncated row header")
		}
		b0 := payload[pos]
		if b0 < 0x80 {
			br.pos = pos
			return items, retained, br.errf("non-canonical row header (first byte %#02x < 0x80)", b0)
		}
		n := uint64(b0&0x7f) | uint64(payload[pos+1])<<7
		if n == 0 || n > MaxBinRowFloats {
			br.pos = pos
			return items, retained, br.errf("row float count %d outside [1,%d]", n, MaxBinRowFloats)
		}
		end := pos + BinRowHeaderSize + int(n)*8
		if end > len(payload) {
			br.pos = pos
			return items, retained, br.errf("row overruns frame payload")
		}
		for i := pos + BinRowHeaderSize; i < end; i += 8 {
			if bits := binary.LittleEndian.Uint64(payload[i:]); bits&0x7FF0000000000000 == 0x7FF0000000000000 {
				br.pos = pos
				return items, retained, br.errf("non-finite float64 in row")
			}
		}
		items = append(items, T(payload[pos:end:end]))
		pos = end
	}
	br.pos = pos
	if pos != len(payload) {
		return items, retained, br.errf("%d trailing bytes after last row", len(payload)-pos)
	}
	return items, retained, nil
}

func (br *BinReader) readFrame() error {
	br.frameOff = br.off
	n, err := io.ReadFull(br.r, br.hdr[:])
	if n == 0 && err == io.EOF {
		return io.EOF
	}
	br.frame++
	br.off += int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return br.errf("truncated frame header (%d of %d bytes)", n, binHeaderSize)
		}
		return err
	}
	length := binary.LittleEndian.Uint32(br.hdr[:4])
	sum := binary.LittleEndian.Uint32(br.hdr[4:])
	if length == 0 {
		return br.errf("empty frame payload")
	}
	if length > MaxBinPayloadBytes {
		return br.errf("frame payload %d exceeds limit %d", length, MaxBinPayloadBytes)
	}
	if cap(br.payload) < int(length) {
		br.payload = make([]byte, length)
	}
	br.payload = br.payload[:length]
	n, err = io.ReadFull(br.r, br.payload)
	br.off += int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return br.errf("truncated frame payload (%d of %d bytes)", n, length)
		}
		return err
	}
	if got := crc32.Checksum(br.payload, binCRCTable); got != sum {
		return br.errf("payload CRC mismatch (got %08x, want %08x)", got, sum)
	}
	rows, sz := binary.Uvarint(br.payload)
	if sz <= 0 {
		return br.errf("bad row-count varint")
	}
	if rows == 0 {
		return br.errf("frame with zero rows")
	}
	// Each row needs at least one varint byte and one 8-byte float.
	if rows > uint64(len(br.payload)-sz)/9 {
		return br.errf("row count %d impossible for %d payload bytes", rows, length)
	}
	br.pos = sz
	br.rowsLeft = rows
	return nil
}

func (br *BinReader) errf(format string, args ...any) error {
	return &BinError{Frame: br.frame, Offset: br.frameOff, Reason: fmt.Sprintf(format, args...)}
}
