package server

import (
	"errors"
	"strings"

	"repro/internal/wire"
)

// POST /v1/streams/{key}/items with Content-Type application/x-tbs-bin is
// the compact binary ingest path: CRC-framed little-endian float64 rows
// (see internal/wire/bin.go for the frame layout). Rows are NOT rendered
// to JSON here: each row stays verbatim in self-describing wire item
// form (two-byte header + float bytes) and flows through the engine,
// sampler, WAL and checkpoints as opaque bytes. Frames up to
// wire.MaxRetainedFrameBytes are zero-copy — the decoder hands the
// payload buffer itself to the server and row items alias it directly —
// while oversized frames' rows are copied into the request arena. JSON
// text — a one-float row as {"v":V}, n ≥ 2 floats as {"x":[…],"y":N} —
// is produced lazily by Item.MarshalJSON only when a consumer reads the
// item. Temporally-biased sampling discards the overwhelming majority of
// items, so the hot path's per-row cost is a bounds/finiteness check and
// one small memcpy; parsing and formatting happen only for survivors.
// The cluster router forwards these bodies verbatim, so bulk loaders and
// node-to-node forwarding skip text entirely.

// contentTypeIs reports whether the Content-Type header's media type
// (parameters and padding ignored) equals want.
func contentTypeIs(ct, want string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), want)
}

// isBin reports whether the Content-Type selects the binary decoder.
func isBin(ct string) bool { return contentTypeIs(ct, wire.BinContentType) }

// binDecoder takes the body a frame at a time: wire.NextFrameItems
// validates every row of the frame and appends it to the batch verbatim
// in self-describing item form — no number parsing, no JSON rendering.
// Small frames are retained outright (the rows keep aliasing the frame's
// payload buffer, zero copies); oversized frames get their rows interned
// into the arena before the buffer is reused. Its failure position is
// the rows decoded so far, plus the 1-based frame and that frame's
// absolute byte offset.
type binDecoder struct {
	br    *wire.BinReader
	arena itemArena
	rows  int
}

func (d *binDecoder) fill(batch []Item, want int) ([]Item, error) {
	for len(batch) < want {
		n0 := len(batch)
		var retained bool
		var err error
		batch, retained, err = wire.NextFrameItems(d.br, batch)
		if !retained {
			for i := n0; i < len(batch); i++ {
				batch[i] = d.arena.intern(batch[i])
			}
		}
		d.rows += len(batch) - n0
		if err != nil {
			return batch, err
		}
	}
	return batch, nil
}

// position reports a decode error's own frame; other failures report
// where decoding stood.
func (d *binDecoder) position(err error, extra map[string]any) {
	extra["row"] = d.rows
	var be *wire.BinError
	if errors.As(err, &be) {
		extra["frame"] = be.Frame
		extra["offset"] = be.Offset
	} else {
		extra["frame"] = d.br.Frame()
		extra["offset"] = d.br.FrameOffset()
	}
}
