package server

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Content-Type application/x-ndjson streams one JSON value per line.
// Unlike the buffered JSON body it never materializes the whole body and
// never reflects through json.Unmarshal: the wire.LineReader scans
// chunked reads for newlines directly, wire.Validate judges each line
// with the hand-rolled subset validator (falling back to json.Valid only
// for escapes and deep nesting, so accepted inputs are byte-for-byte the
// same set), and the reader and batch buffers recycle across requests —
// per-item cost is a newline scan, a subset-validity scan and one arena
// copy, with zero allocations at steady state.

// isNDJSON reports whether the Content-Type selects the NDJSON decoder.
func isNDJSON(ct string) bool {
	return contentTypeIs(ct, "application/x-ndjson") ||
		contentTypeIs(ct, "application/ndjson")
}

// lineValid reports whether one trimmed line is valid JSON: the fast
// subset validator answers directly for the shapes ingest traffic uses;
// Unknown (escapes, extreme nesting) defers to the reference validator
// so the accepted language is exactly encoding/json's.
func lineValid(line []byte) bool {
	switch wire.Validate(line) {
	case wire.Valid:
		return true
	case wire.Invalid:
		return false
	}
	return json.Valid(line)
}

// ndjsonDecoder interns each valid line into its arena. Blank lines and
// surrounding whitespace are skipped. Its failure position is the
// 1-based line and that line's absolute byte offset.
type ndjsonDecoder struct {
	lr    *wire.LineReader
	arena itemArena
	line  int   // number of the last line read
	off   int64 // byte offset of that line, or where a read failed
}

func (d *ndjsonDecoder) fill(batch []Item, want int) ([]Item, error) {
	for len(batch) < want {
		line, off, err := d.lr.Next()
		if err != nil {
			if err != io.EOF {
				d.off = d.lr.Offset()
			}
			return batch, err
		}
		d.line++
		d.off = off
		if line = wire.TrimSpace(line); len(line) == 0 {
			continue
		}
		if !lineValid(line) {
			return batch, fmt.Errorf("line %d (byte offset %d) is not valid JSON", d.line, off)
		}
		batch = append(batch, d.arena.intern(line))
	}
	return batch, nil
}

func (d *ndjsonDecoder) position(_ error, extra map[string]any) {
	extra["line"] = d.line
	extra["offset"] = d.off
}
