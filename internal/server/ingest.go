package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

const (
	// ingestChunkItems bounds how many decoded items accumulate before
	// being appended to the stream's open batch, so one huge request
	// turns into a few batched critical sections rather than one giant
	// deferred append.
	ingestChunkItems = 4096

	// maxAlignedChunkItems caps how far the chunk stretches to meet a
	// ?batch=N boundary exactly. When the chunk and the boundary
	// coincide, every flush finds the stream's pending slice empty and the
	// batch array transfers to the engine by adoption (see
	// entry.appendMode) instead of an element-by-element copy.
	maxAlignedChunkItems = 4 * ingestChunkItems

	// maxPooledReaderBuf is the retention bound for pooled decoder
	// scratch: a scratch whose line or frame buffer grew past this on an
	// oversized line or frame is dropped rather than pinned in the pool.
	maxPooledReaderBuf = 4 * wire.DefaultLineBufSize

	// arenaChunkBytes is the allocation unit for decoded item bytes: one
	// allocation per chunk of items instead of one per item. Chunks are
	// owned by the items interned into them (they flow into the open
	// batch and then the sampler), so they are NOT pooled — and because a
	// single long-lived reservoir survivor pins its whole chunk, the
	// chunk is kept small: with 4KB chunks a 1000-item R-TBS reservoir
	// pins at most ~4MB per stream in the worst case, while ingest still
	// amortizes to well under one allocation per item.
	arenaChunkBytes = 4 << 10
)

// itemDecoder is one wire format's half of the ingest loop.
type itemDecoder interface {
	// fill appends decoded items to batch until it holds at least want,
	// or the body ends (io.EOF) or fails. Items appended before an error
	// are well-formed, and the loop accepts them.
	fill(batch []Item, want int) ([]Item, error)
	// position adds the format's error-position keys to a failure body:
	// where decoding stood when the request failed.
	position(err error, extra map[string]any)
}

// itemArena interns decoded bytes into large shared chunks. Earlier
// items keep pointing into retired chunks (the chunks stay reachable
// through them); only the allocation granularity changes.
type itemArena struct{ cur []byte }

func (a *itemArena) intern(b []byte) Item {
	if cap(a.cur)-len(a.cur) < len(b) {
		a.cur = make([]byte, 0, max(arenaChunkBytes, len(b)))
	}
	start := len(a.cur)
	a.cur = append(a.cur, b...)
	return Item(a.cur[start:len(a.cur):len(a.cur)])
}

// ingestScratch is the loop's recyclable per-request state: the chunk
// under construction and the streaming formats' readers. The chunk grows
// to what its traffic needs, and the line reader is made on first use.
type ingestScratch struct {
	batch []Item
	lr    *wire.LineReader
	br    *wire.BinReader
}

var ingestPool = sync.Pool{
	New: func() any { return &ingestScratch{br: wire.NewBinReader()} },
}

// decoder returns the decoder the Content-Type selects.
func (sc *ingestScratch) decoder(ct string, body io.Reader) itemDecoder {
	switch {
	case isNDJSON(ct):
		if sc.lr == nil {
			sc.lr = wire.NewLineReader(0)
		}
		sc.lr.Reset(body)
		return &ndjsonDecoder{lr: sc.lr}
	case isBin(ct):
		sc.br.Reset(body)
		return &binDecoder{br: sc.br}
	}
	return &jsonDecoder{body: body}
}

// release drops the finished request's body and any items decoded but
// not accepted, and reports whether the scratch may return to the pool:
// one retention bound covers every reader's buffer.
func (sc *ingestScratch) release() bool {
	clear(sc.batch)
	sc.batch = sc.batch[:0]
	sc.br.Reset(nil)
	if sc.lr != nil {
		sc.lr.Reset(nil)
		if sc.lr.BufCap() > maxPooledReaderBuf {
			return false
		}
	}
	return sc.br.BufCap() <= maxPooledReaderBuf
}

// jsonDecoder is the buffered format. The whole body is read and judged
// by encoding/json before any item is handed out, so a malformed body
// accepts nothing and has no position to report. A JSON array is bulk
// (one item per element); any other value is one item. To ingest one
// item that is itself an array, wrap it in an array.
type jsonDecoder struct {
	body  io.Reader // nil once read
	items []Item    // decoded, not yet handed to the loop
}

func (d *jsonDecoder) fill(batch []Item, want int) ([]Item, error) {
	if d.body != nil {
		body, err := io.ReadAll(d.body)
		if d.body = nil; err != nil {
			return batch, err
		}
		if !json.Valid(body) {
			return batch, errors.New("body is not valid JSON")
		}
		// Only an array is bulk: null would also unmarshal into a nil
		// slice. An array decodes into d.items while it is still nil —
		// given a reused slice, encoding/json would hand back the stale
		// elements in its spare capacity, and Item.UnmarshalJSON would
		// append into their bytes, which a sampler may still hold.
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '[' {
			d.items = []Item{Item(body)}
		} else if err := json.Unmarshal(body, &d.items); err != nil {
			return batch, err
		}
	}
	n := min(want-len(batch), len(d.items))
	batch = append(batch, d.items[:n]...)
	if d.items = d.items[n:]; len(d.items) == 0 {
		return batch, io.EOF
	}
	return batch, nil
}

func (d *jsonDecoder) position(error, map[string]any) {}

// handleItems is one ingest loop over three wire formats, switched on
// Content-Type: application/x-ndjson (ndjson.go), application/x-tbs-bin
// (bin.go), and anything else as one buffered JSON body. A decoder hides
// only its wire format; the loop owns ?batch and ?advance, chunked
// appends, pipelined boundaries, stage attribution, stream creation, the
// durability wait and the answer, so the formats obey one set of request
// rules. Items are appended in chunks as they decode, so on a failure
// the earlier items HAVE been ingested; the structured error reports how
// many (`added`) and the format's position keys. With ?batch=N a
// boundary closes every N items while the rest of the body is still
// decoding; with ?advance=true the open batch is closed at the end.
//
//tbs:walbeforeack
func (s *Server) handleItems(w http.ResponseWriter, r *http.Request) {
	key, ok := streamKey(w, r)
	if !ok || s.movedGuard(w, key) {
		return
	}
	q := r.URL.Query()
	every, chunk := 0, ingestChunkItems
	if v := q.Get("batch"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest,
				errorBody("bad_request", "batch must be a positive integer", nil))
			return
		}
		every = n
		if n <= maxAlignedChunkItems {
			chunk = n
		}
	}
	advance := q.Get("advance") == "1" || q.Get("advance") == "true"

	tr := s.opts.Trace.StartFromRequest(r, obs.KindIngest, key)
	sc := ingestPool.Get().(*ingestScratch)
	defer func() {
		if sc.release() {
			ingestPool.Put(sc)
		}
	}()
	dec := sc.decoder(r.Header.Get("Content-Type"), http.MaxBytesReader(w, r.Body, maxBodyBytes))

	var (
		// e is acquired at the first append, so a request rejected before
		// any item is accepted creates no stream.
		e                             *entry
		added, sinceAdv, pending      int
		boundaries, ingested, batches uint64
		maxLSN                        uint64 // newest journal record to sync before answering
		acquireDur, appendDur, enqDur time.Duration
	)
	defer func() {
		if e != nil {
			e.unpin()
		}
	}()
	acquire := func() (err error) {
		t0 := time.Now()
		e, err = s.acquireStream(key)
		acquireDur += time.Since(t0)
		return err
	}
	// appendChunk commits the first n batched items. A whole-batch flush
	// offers the array for adoption (the aligned fast path); a prefix
	// flush — a binary frame spanning several chunks — appends a copy and
	// shifts the remainder down.
	appendChunk := func(n int) error {
		if n == 0 {
			return nil
		}
		if limit := s.opts.MaxPendingItems; limit > 0 && n > limit {
			// No amount of advancing makes an oversized chunk fit; it is
			// rejected before the stream is acquired, so it creates none.
			return fmt.Errorf("%w: %d items, limit %d; split the request", errRequestTooLarge, n, limit)
		}
		if e == nil {
			if err := acquire(); err != nil {
				return err
			}
		}
		whole := n == len(sc.batch)
		t0 := time.Now()
		p, ing, lsn, adopted, err := e.appendMode(sc.batch[:n], s.opts.MaxPendingItems, whole)
		appendDur += time.Since(t0)
		if err != nil {
			return err
		}
		pending, ingested, maxLSN = p, ing, max(maxLSN, lsn)
		added += n
		sinceAdv += n
		switch {
		case adopted:
			// The engine took the array wholesale; draw a replacement from
			// the recycle pool (stocked by applyBatch after each apply), or
			// make one the size of the chunk just adopted.
			if sc.batch = acquireBatchSlice(); sc.batch == nil {
				sc.batch = make([]Item, 0, n)
			}
		case whole:
			sc.batch = sc.batch[:0]
		default:
			sc.batch = append(sc.batch[:0], sc.batch[n:]...)
		}
		if every > 0 && sinceAdv >= every {
			// Pipelined batch boundary: the shard worker applies it while
			// the rest of the body decodes, and its journal record rides
			// the final sync. Its trace is a root, not a child of tr —
			// child traces would each want tr concurrently with this
			// loop; the enqueue time is accumulated here instead.
			t0 := time.Now()
			maxLSN = max(maxLSN, s.advanceAsync(e))
			enqDur += time.Since(t0)
			boundaries++
			sinceAdv, pending = 0, 0
		}
		return nil
	}
	decodeAll := func() error {
		for {
			var derr error
			sc.batch, derr = dec.fill(sc.batch, chunk)
			for len(sc.batch) >= chunk {
				if err := appendChunk(chunk); err != nil {
					return err
				}
			}
			if derr != nil {
				// Items decoded before a failure are accepted too; the
				// decode error outranks a failure to flush them. The final
				// flush can complete a ?batch=N boundary: with N larger
				// than the chunk no in-loop flush sees it.
				ferr := appendChunk(len(sc.batch))
				if derr == io.EOF {
					return ferr
				}
				return derr
			}
		}
	}

	// Stage attribution is chunk-grained, never per item: a time.Now()
	// pair per item would cost more than the decode itself. Parse time
	// is the loop's total minus what went to acquiring the stream
	// (hydration included), appends and boundaries.
	loopStart := time.Now()
	err := decodeAll()
	tr.StageDur(obs.StageWALAppend, loopStart, appendDur)
	if enqDur > 0 {
		tr.StageDur(obs.StageEnqueue, loopStart, enqDur)
	}
	tr.StageDur(obs.StageParse, loopStart, time.Since(loopStart)-acquireDur-appendDur-enqDur)
	s.metrics.ObserveIngest(added)
	if err == nil && e == nil {
		// An empty request that succeeds still names its stream.
		if err = acquire(); err == nil {
			pending, ingested, _ = e.counters()
		}
	}
	if err == nil && advance {
		var lsn uint64
		if _, batches, _, lsn, err = s.advanceWait(e, tr); err == nil {
			maxLSN = max(maxLSN, lsn)
			boundaries++
			pending = 0
		}
	}
	// One durability wait answers the request, success or failure: every
	// chunk and boundary journaled above is covered by a sync to the
	// newest LSN (group commit amortizes the fsyncs across concurrent
	// requests). A failure body acknowledges its `added` items too, so
	// they are synced as well; the primary error wins that response.
	fsyncStart := time.Now()
	serr := s.syncWAL(maxLSN)
	tr.StageSince(obs.StageFsyncWait, fsyncStart)
	if err != nil {
		status, code, extra := s.ingestFailure(err)
		body := errorBody(code, err.Error(), extra)
		body["added"] = added
		dec.position(err, body)
		respond(tr, w, status, body)
		return
	}
	if serr != nil {
		s.fail(tr, w, serr)
		return
	}
	resp := map[string]any{
		"key":      key,
		"added":    added,
		"pending":  pending,
		"ingested": ingested,
	}
	if advance {
		resp["advanced"] = true
		resp["batches"] = batches
	}
	if boundaries > 0 {
		resp["boundaries"] = boundaries
	}
	respond(tr, w, http.StatusOK, resp)
}
