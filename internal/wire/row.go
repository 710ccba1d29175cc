package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// The row parsers decode the two canonical ingest shapes — value rows
// `{"v":N}` and labeled rows `{"x":[N,…],"y":N}` — without
// encoding/json. They are deliberately strict: keys in canonical order,
// no escapes, no extra members. Anything else reports ok=false, which
// means "fall back to the general decoder", never "the input is bad";
// callers keep exactly the old semantics for the long tail. Numbers
// decode to the bits encoding/json would return.

// ParseValueRow decodes `{"v":N}` (JSON whitespace allowed anywhere the
// grammar allows it) and returns the value.
//
//tbs:zeroalloc
func ParseValueRow(b []byte) (v float64, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	i, ok = expectKey(b, i+1, 'v')
	if !ok {
		return 0, false
	}
	v, i, ok = parseNumberAt(b, i)
	if !ok {
		return 0, false
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '}' || skipSpace(b, i+1) != len(b) {
		return 0, false
	}
	return v, true
}

// ParseLabeledRow decodes `{"x":[N,…],"y":N}`, appending features to x
// (pass a reused x[:0] slice for allocation-free steady state). The
// returned slice replaces the argument, as with append.
//
//tbs:zeroalloc
func ParseLabeledRow(b []byte, x []float64) ([]float64, float64, bool) {
	x = x[:0]
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return x, 0, false
	}
	i, ok := expectKey(b, i+1, 'x')
	if !ok || i >= len(b) || b[i] != '[' {
		return x, 0, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			var f float64
			if f, i, ok = parseNumberAt(b, i); !ok {
				return x, 0, false
			}
			x = append(x, f)
			i = skipSpace(b, i)
			if i >= len(b) {
				return x, 0, false
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return x, 0, false
			}
			i = skipSpace(b, i+1)
		}
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ',' {
		return x, 0, false
	}
	i, ok = expectKey(b, i+1, 'y')
	if !ok {
		return x, 0, false
	}
	var y float64
	if y, i, ok = parseNumberAt(b, i); !ok {
		return x, 0, false
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '}' || skipSpace(b, i+1) != len(b) {
		return x, 0, false
	}
	return x, y, true
}

// expectKey consumes optional whitespace, the member key `"k"`, optional
// whitespace and the colon, returning the position of the value (after
// its leading whitespace).
//
//tbs:zeroalloc
func expectKey(b []byte, i int, k byte) (int, bool) {
	i = skipSpace(b, i)
	if len(b)-i < 3 || b[i] != '"' || b[i+1] != k || b[i+2] != '"' {
		return i, false
	}
	i = skipSpace(b, i+3)
	if i >= len(b) || b[i] != ':' {
		return i, false
	}
	return skipSpace(b, i+1), true
}

// parseNumberAt scans one JSON number token at i and decodes it: on the
// exact fast path when it can, else with strconv, one token at a time,
// so a full-precision float does not send its whole row to the general
// decoder.
//
//tbs:zeroalloc
func parseNumberAt(b []byte, i int) (float64, int, bool) {
	j, v := validateNumber(b, i)
	if v != Valid {
		return 0, i, false
	}
	f, ok := ParseFloat(b[i:j])
	if !ok {
		if f, ok = parseFloatStrconv(b[i:j]); !ok {
			return 0, i, false
		}
	}
	return f, j, true
}

// parseFloatStrconv decodes a validated JSON number token with
// strconv.ParseFloat, the parser encoding/json itself uses, so the value
// is the one the general decoder would produce. A strconv error (a range
// error such as 1e400) declines: the row then reaches encoding/json,
// which rejects it, so the accepted language is unchanged.
//
// It does not allocate for tokens up to 32 bytes, which covers every
// shortest-form float64 rendering (at most 24 bytes): go build
// -gcflags=-m reports that string(b) does not escape, so the conversion
// uses a stack buffer, and TestParseLabeledRowFullPrecisionZeroAlloc
// measures 0 allocations per 17-digit row. Longer tokens and the error
// path allocate; both are rare and the error path is cold.
func parseFloatStrconv(b []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}

// AppendRowJSON renders a decoded binary row as canonical restricted-
// grammar JSON: one float becomes a value row `{"v":V}`, n ≥ 2 floats
// become a labeled row whose last element is the label. The output is
// valid JSON by construction, so binary and NDJSON ingest produce
// interchangeable stream state (checkpoints, samples, WAL records).
//
//tbs:zeroalloc
func AppendRowJSON(dst []byte, vals []float64) []byte {
	switch len(vals) {
	case 0:
		return dst
	case 1:
		dst = append(dst, `{"v":`...)
		dst = AppendFloat(dst, vals[0])
		return append(dst, '}')
	}
	dst = append(dst, `{"x":[`...)
	for i, v := range vals[:len(vals)-1] {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendFloat(dst, v)
	}
	dst = append(dst, `],"y":`...)
	dst = AppendFloat(dst, vals[len(vals)-1])
	return append(dst, '}')
}

// MaxRowRenderBytes bounds AppendRowRawJSON's output for a raw row of
// len(raw) bytes (n = len(raw)/8 floats): structural bytes plus one
// maximal float rendering per value. strconv's shortest form of any
// float64 fits in 24 bytes; 26 leaves margin for the separator.
func MaxRowRenderBytes(rawLen int) int { return 16 + 26*(rawLen/8) }

// IsBinItem reports whether an item's bytes are a binary row in item
// form rather than JSON text. The two-byte row header's first byte
// always has the high bit set, and the first byte of any valid JSON
// value is ASCII, so the first byte alone decides.
func IsBinItem(item []byte) bool { return len(item) > 0 && item[0] >= 0x80 }

// SplitBinItem validates an item-form binary row — the canonical
// two-byte header plus 8n float bytes, exactly as NextFrameItems
// produced it — and returns the float bytes.
func SplitBinItem(item []byte) (raw []byte, err error) {
	if len(item) < BinRowHeaderSize+8 {
		return nil, fmt.Errorf("wire: binary item too short (%d bytes)", len(item))
	}
	n := uint64(item[0]&0x7f) | uint64(item[1])<<7
	if n == 0 || n > MaxBinRowFloats {
		return nil, fmt.Errorf("wire: binary item float count %d outside [1,%d]", n, MaxBinRowFloats)
	}
	raw = item[BinRowHeaderSize:]
	if uint64(len(raw)) != n*8 {
		return nil, fmt.Errorf("wire: binary item has %d float bytes, header says %d floats", len(raw), n)
	}
	return raw, nil
}

// BinItemJSON renders an item-form binary row as its canonical JSON
// text. This is the deferred half of the binary ingest path: rows are
// stored verbatim off the wire and only pay for JSON rendering here,
// when a consumer (sample read, checkpoint, handoff, model scoring)
// actually needs text — never for the items sampling discards.
func BinItemJSON(item []byte) ([]byte, error) {
	raw, err := SplitBinItem(item)
	if err != nil {
		return nil, err
	}
	return AppendRowRawJSON(make([]byte, 0, MaxRowRenderBytes(len(raw))), raw), nil
}

// BinItemFloats decodes an item-form binary row into floats, appending
// to vals. Consumers that want numbers (model scoring) skip the text
// round-trip entirely.
func BinItemFloats(item []byte, vals []float64) ([]float64, error) {
	raw, err := SplitBinItem(item)
	if err != nil {
		return nil, err
	}
	for i := 0; i+8 <= len(raw); i += 8 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
	}
	return vals, nil
}

// AppendRowRawJSON renders a row directly from its wire bytes — 8n
// little-endian float64s as returned by NextRowBytes — with the same
// canonical output as AppendRowJSON. Decoding and rendering fuse into
// one pass so the hot binary ingest loop writes item text exactly once,
// straight into the caller's arena.
func AppendRowRawJSON(dst, raw []byte) []byte {
	switch n := len(raw) / 8; n {
	case 0:
		return dst
	case 1:
		dst = append(dst, `{"v":`...)
		dst = AppendFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		return append(dst, '}')
	default:
		dst = append(dst, `{"x":[`...)
		for i := 0; i < n-1; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:])))
		}
		dst = append(dst, `],"y":`...)
		dst = AppendFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(raw[(n-1)*8:])))
		return append(dst, '}')
	}
}
