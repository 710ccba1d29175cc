// Package wal is the per-server write-ahead log closing tbsd's
// crash-window data-loss hole: every acknowledged state transition
// (ingest chunk, batch boundary, model attach/detach, stream delete) is
// appended to an append-only, length-prefixed, CRC32-framed segment log
// and made durable before the acknowledgement, so a kill -9 loses at most
// the last un-fsynced group instead of up to a full checkpoint interval.
// Sample reads change no state and journal nothing.
//
// Layout: the log is a directory of segment files named by the LSN of
// their first record (0000000000000001.wal, …). Records carry explicit,
// strictly sequential LSNs; a torn tail in the newest segment (the
// expected artifact of a crash mid-write) is detected by the framing and
// truncated on open, while corruption anywhere else fails loudly.
//
// Durability is policy-driven: "always" fsyncs every append, "off" never
// fsyncs (the OS page cache still survives a process kill, only power
// loss leaks), and "group" — the default — batches concurrent appenders
// behind one fsync: an appender writes its record under the append lock,
// then waits on the group-commit path where a single leader syncs the
// file and releases every waiter whose record the sync covered. The
// snapshot checkpointer is the log's compaction step: once a stream's
// state through LSN n is durably checkpointed, segments wholly below the
// minimum such n across streams are deleted (streams with no live
// records — snapshot already covering their newest journaled LSN — are
// excluded from that minimum, so idle tenants cannot pin the log).
//
// Besides boot-time Replay, the log serves targeted tails: TailForKey
// collects one stream's records after a given LSN, skipping sealed
// segments wholly below the cutoff. Stream handoff ships such a tail to
// the adopting node, and memory tiering replays one on a cold hit whose
// stub journaled past its checkpoint. Every read goes through one frame
// loop: each record it returns aliases a buffer of its own, and the
// frames it passes over are checked, not decoded, in one shared buffer.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Fsync policies.
const (
	SyncGroup  = "group"  // one fsync covers every record written since the last
	SyncAlways = "always" // fsync under the append lock, per record
	SyncOff    = "off"    // never fsync; durability = OS page cache
)

// ErrPoisoned is returned by Append/Sync after a write or sync error has
// poisoned the log. Journaling stops at the first error so the log stays
// a consistent prefix of the operation sequence — replay then converges
// to the exact state at the poison point, and the snapshot checkpointer
// remains the backstop for everything after it.
var ErrPoisoned = errors.New("wal: log poisoned by an earlier write error")

const (
	segmentSuffix              = ".wal"
	defaultSegmentBytes        = 64 << 20
	firstLSN            uint64 = 1
)

// Options configures Open.
type Options struct {
	// Dir is the segment directory; created if missing.
	Dir string
	// Fsync is the durability policy: SyncGroup (default), SyncAlways or
	// SyncOff.
	Fsync string
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64MB).
	SegmentBytes int64
}

func (o *Options) setDefaults() error {
	if o.Dir == "" {
		return errors.New("wal: Dir is required")
	}
	if o.Fsync == "" {
		o.Fsync = SyncGroup
	}
	switch o.Fsync {
	case SyncGroup, SyncAlways, SyncOff:
	default:
		return fmt.Errorf("wal: unknown fsync policy %q (want group, always or off)", o.Fsync)
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return nil
}

// segment is one on-disk segment file.
type segment struct {
	path  string
	first uint64 // LSN of the first record (records are sequential)
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Records           uint64 // records appended this process
	Bytes             uint64 // frame bytes appended this process
	Fsyncs            uint64 // FsyncLatency's count
	AppendErrors      uint64
	Segments          int
	TruncatedSegments uint64 // segments removed by compaction
	LastLSN           uint64
	SyncedLSN         uint64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	opts Options

	// mu serializes LSN assignment, frame writes and rotation, so the
	// on-disk record order is exactly the order appenders acquired the
	// lock in — which the server aligns with its per-stream apply order.
	mu       sync.Mutex
	f        *os.File
	segments []segment
	segSize  int64
	nextLSN  uint64
	written  uint64 // highest LSN handed to the OS
	poisoned error

	// Group-commit state: syncMu guards syncedLSN and the single-leader
	// flag; waiters park on cond until a leader's fsync covers their LSN.
	syncMu  sync.Mutex
	cond    *sync.Cond
	synced  uint64
	syncing bool

	// Counters, guarded by mu; fsyncLat is lock-free.
	records      uint64
	bytes        uint64
	appendErrors uint64
	truncated    uint64
	fsyncLat     obs.Histogram
}

// Open scans dir, truncates any torn tail off the newest segment, and
// positions the log for appending. Call Replay before the first Append to
// drive recovery.
func Open(opts Options) (*Log, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, segments: segs, nextLSN: firstLSN}
	l.cond = sync.NewCond(&l.syncMu)
	if len(segs) == 0 {
		if err := l.openSegment(firstLSN); err != nil {
			return nil, err
		}
		l.synced = 0
		return l, nil
	}
	last := segs[len(segs)-1]
	validEnd, lastLSN, err := scan(segs[len(segs)-1:], nil, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, err
	} else if fi.Size() > validEnd {
		// Torn tail from a crash mid-write: drop the partial frame so the
		// next append starts on a clean boundary.
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.segSize = validEnd
	l.nextLSN = lastLSN + 1
	l.written = lastLSN
	// Everything already on disk predates this process; treat it as
	// synced (a crash cannot lose it to our buffers).
	l.synced = lastLSN
	return l, nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%016x%s", first, segmentSuffix)
}

func listSegments(dir string) ([]segment, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue // foreign file
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// openSegment creates a fresh active segment whose first record will be
// lsn.
func (l *Log) openSegment(lsn uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(lsn)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segSize = 0
	l.segments = append(l.segments, segment{path: f.Name(), first: lsn})
	return nil
}

// readBufferBytes sizes a scan's read buffer: large enough that one read
// moves many frames, and small enough that it costs little to allocate
// next to a short log and stays in cache while frames are copied out.
const readBufferBytes = 64 << 10

// scan reads the frames of segs in order. It is the one loop that reads
// the log, for Open, Replay and TailForKey. Every frame's length, CRC,
// record shape and LSN are checked, and nothing else is decoded: keep
// picks the records to return (nil keeps none), and only those are
// decoded and passed to fn. A returned record owns its buffer; the frames
// not returned share one. A bad frame ends the scan cleanly in the last
// segment (a torn tail) and is an error in any other. end and last are
// the offset after the last good frame of the last segment and its LSN
// (the segment's first LSN minus one when it holds none).
func scan(segs []segment, keep func(lsn uint64, key []byte) bool, fn func(Record) error) (end int64, last uint64, err error) {
	var br *bufio.Reader
	var buf []byte
	for i, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return 0, 0, err
		}
		if br == nil {
			br = bufio.NewReaderSize(f, readBufferBytes)
		} else {
			br.Reset(f)
		}
		end, last = 0, seg.first-1
		for {
			payload, n, err := readFrame(br, buf)
			var h header
			if err == nil {
				buf = payload
				h, err = checkRecord(payload)
			}
			if err == nil && h.lsn != last+1 {
				err = fmt.Errorf("LSN %d where %d expected", h.lsn, last+1)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				if i == len(segs)-1 {
					return end, last, nil
				}
				return 0, 0, fmt.Errorf("wal: %s at offset %d: %w", seg.path, end, err)
			}
			end += n
			last = h.lsn
			if keep == nil || !keep(h.lsn, payload[h.key:h.body]) {
				continue
			}
			if cap(payload) > len(payload) {
				payload = bytes.Clone(payload) // it sits in the shared buffer
			} else {
				buf = nil // the record takes the buffer
			}
			if err := fn(decodeRecord(payload, h)); err != nil {
				f.Close()
				return 0, 0, err
			}
		}
		f.Close()
	}
	return end, last, nil
}

// readFrame reads one [len][crc][payload] frame into buf, or into a
// fresh buffer of the payload's length when buf is too small. io.EOF
// means a clean end of segment; every other error means a torn or
// corrupt frame.
func readFrame(br *bufio.Reader, buf []byte) (payload []byte, frameLen int64, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("torn frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxPayloadBytes {
		return nil, 0, fmt.Errorf("implausible frame length %d", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, fmt.Errorf("torn frame payload: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return nil, 0, fmt.Errorf("frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	return payload, frameHeaderSize + int64(n), nil
}

// Replay streams every record on disk, in LSN order, through fn. It is
// meant to run once, after Open and before the first Append; fn errors
// abort the replay. A torn tail in the newest segment ends the replay
// cleanly; corruption in any older segment (or mid-segment) is an error —
// silently skipping acknowledged records would be worse than failing
// boot.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	_, _, err := scan(segs, func(uint64, []byte) bool { return true }, fn)
	return err
}

// TailForKey returns every record for key with LSN > afterLSN, in LSN
// order — the migration export: a stream handoff ships the stream's
// checkpoint envelope plus this tail, so the target can replay anything
// the envelope's WalLSN does not cover. Stream rehydration replays the
// same tail on a cold hit when the stub journaled past its checkpoint.
// The scan skips whole segments the afterLSN already covers, and it
// checks but does not decode the frames of other keys. It may run on a
// live log; a torn or half-written frame at the very tail (a concurrent
// append in flight) ends the scan cleanly, which is safe because the
// caller has frozen the exported stream — records still being written
// belong to other keys.
func (l *Log) TailForKey(key string, afterLSN uint64) ([]Record, error) {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	newest := l.nextLSN - 1
	l.mu.Unlock()
	if afterLSN >= newest {
		// The caller has already seen every record in the log.
		return nil, nil
	}
	// A sealed segment's records end where the next begins, so every
	// segment before the one holding afterLSN+1 holds nothing to return.
	for len(segs) > 1 && segs[1].first <= afterLSN+1 {
		segs = segs[1:]
	}
	var out []Record
	_, _, err := scan(segs,
		func(lsn uint64, k []byte) bool { return lsn > afterLSN && string(k) == key },
		func(r Record) error { out = append(out, r); return nil })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendItems journals one item-append record. The generic item type
// (anything backed by []byte, e.g. json.RawMessage) lets the server pass
// its batch slices without a per-call conversion allocation.
//
//tbs:zeroalloc
func AppendItems[T ~[]byte](l *Log, key string, items []T) (uint64, error) {
	bufp := encBufPool.Get().(*[]byte)
	buf := appendFrameHeader((*bufp)[:0])
	// The LSN is assigned under the append lock, but the varint must be
	// encoded before the frame is finished — so encode the whole payload
	// with a placeholder-free layout by locking first.
	l.mu.Lock()
	if err := l.poisoned; err != nil {
		l.mu.Unlock()
		encBufPool.Put(bufp)
		return 0, err
	}
	lsn := l.nextLSN
	buf = appendPayloadHeader(buf, lsn, TypeItemAppend, key)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(len(it)))
		buf = append(buf, it...)
	}
	buf = finishFrame(buf, 0)
	err := l.appendLocked(buf)
	l.mu.Unlock()
	*bufp = buf[:0]
	encBufPool.Put(bufp)
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendRecord journals one record of any non-item type with an opaque
// body.
//
//tbs:zeroalloc
func (l *Log) AppendRecord(t Type, key string, data []byte) (uint64, error) {
	bufp := encBufPool.Get().(*[]byte)
	buf := appendFrameHeader((*bufp)[:0])
	l.mu.Lock()
	if err := l.poisoned; err != nil {
		l.mu.Unlock()
		encBufPool.Put(bufp)
		return 0, err
	}
	lsn := l.nextLSN
	buf = appendPayloadHeader(buf, lsn, t, key)
	buf = append(buf, data...)
	buf = finishFrame(buf, 0)
	err := l.appendLocked(buf)
	l.mu.Unlock()
	*bufp = buf[:0]
	encBufPool.Put(bufp)
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// appendLocked writes one finished frame, handling rotation, the
// always-fsync policy and poisoning. Caller holds l.mu.
func (l *Log) appendLocked(frame []byte) error {
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.poison(err)
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		// A short write leaves a torn frame at the tail; poisoning stops
		// all journaling here so the valid prefix stays the recovery
		// point.
		l.poison(err)
		return err
	}
	l.segSize += int64(len(frame))
	l.written = l.nextLSN
	l.nextLSN++
	l.records++
	l.bytes += uint64(len(frame))
	if l.opts.Fsync == SyncAlways {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			l.poison(err)
			return err
		}
		l.observeFsync(time.Since(start), l.written)
	}
	return nil
}

// rotateLocked seals the active segment (fsyncing it unless the policy is
// off — a sealed segment must never lose acknowledged records to a later
// power cut) and opens the next one.
func (l *Log) rotateLocked() error {
	if l.opts.Fsync != SyncOff {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.observeFsync(time.Since(start), l.written)
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.nextLSN)
}

// poison records the first fatal error; all later appends fail fast with
// ErrPoisoned so the on-disk log stays a consistent prefix.
func (l *Log) poison(err error) {
	l.appendErrors++
	if l.poisoned == nil {
		l.poisoned = fmt.Errorf("%w (first error: %v)", ErrPoisoned, err)
	}
}

// observeFsync records one fsync latency and advances the durable
// watermark.
func (l *Log) observeFsync(d time.Duration, upto uint64) {
	l.fsyncLat.Observe(d)
	l.syncMu.Lock()
	if upto > l.synced {
		l.synced = upto
	}
	l.cond.Broadcast()
	l.syncMu.Unlock()
}

// Sync blocks until the record at lsn is durable under the configured
// policy. Under "group" the first waiter becomes the fsync leader for
// everything written so far; concurrent waiters whose records that sync
// covers return without issuing their own — the group commit that keeps
// fsync count per acknowledged request well below one under load.
func (l *Log) Sync(lsn uint64) error {
	if l.opts.Fsync == SyncOff {
		// Never durable beyond the page cache, by configuration.
		return nil
	}
	// Under "always" the append already fsynced, so the loop below returns
	// without electing a leader; only "group" waiters ever sync here.
	l.syncMu.Lock()
	for l.synced < lsn {
		if !l.syncing {
			l.syncing = true
			l.syncMu.Unlock()

			l.mu.Lock()
			err := l.poisoned
			target := l.written
			f := l.f
			l.mu.Unlock()
			if err != nil {
				l.syncMu.Lock()
				l.syncing = false
				l.cond.Broadcast()
				l.syncMu.Unlock()
				return err
			}
			start := time.Now()
			serr := f.Sync()
			if errors.Is(serr, os.ErrClosed) {
				// The handle was captured outside the append lock, and a
				// rotation (or Close) sealed that segment in between.
				// Rotation fsyncs the old file before closing it and
				// advances the durable watermark, so nothing is lost —
				// loop and re-check instead of poisoning on the stale
				// handle (a genuinely closed log surfaces ErrPoisoned at
				// the next leader election).
				l.syncMu.Lock()
				l.syncing = false
				l.cond.Broadcast()
				continue
			}
			if serr != nil {
				l.mu.Lock()
				l.poison(serr)
				l.mu.Unlock()
				l.syncMu.Lock()
				l.syncing = false
				l.cond.Broadcast()
				l.syncMu.Unlock()
				return serr
			}
			l.observeFsync(time.Since(start), target)
			l.syncMu.Lock()
			l.syncing = false
			l.cond.Broadcast()
			continue
		}
		// A leader is in flight: wait it out, then re-check coverage. If
		// the leader failed (poisoned the log), the next trip around the
		// loop elects this waiter leader and it returns the error itself —
		// never touch l.mu here, it is taken while holding syncMu's
		// counterpart on the append path.
		l.cond.Wait()
	}
	l.syncMu.Unlock()
	return nil
}

// LastLSN returns the highest LSN appended (0 before the first append).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// TruncateBefore removes segments every record of which has LSN < lsn —
// the compaction step driven by a completed checkpoint pass. The active
// segment is never removed. Returns the number of segments deleted.
func (l *Log) TruncateBefore(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 1 {
		// A segment's records end where the next segment begins.
		if l.segments[1].first > lsn {
			break
		}
		if err := os.Remove(l.segments[0].path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
		l.truncated++
	}
	// When even the active segment is wholly below the watermark, seal it
	// and drop it too: otherwise a long-lived active segment (64MB by
	// default) pins every compacted record on disk, and tail scans —
	// handoff export, cold-miss rehydration — keep re-decoding traffic
	// that every checkpoint has already made redundant.
	if len(l.segments) == 1 && l.f != nil && l.poisoned == nil &&
		l.nextLSN > l.segments[0].first && l.nextLSN <= lsn {
		if err := l.rotateLocked(); err != nil {
			// Same contract as a rotation failing under append: the log's
			// file state is no longer coherent, so stop journaling here.
			l.poison(err)
			return removed, err
		}
		if err := os.Remove(l.segments[0].path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
		l.truncated++
	}
	return removed, nil
}

// Close seals the log: a final fsync (per policy) and file close. Appends
// after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.opts.Fsync != SyncOff && l.poisoned == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.poison(errors.New("log closed"))
	return err
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{
		Records:           l.records,
		Bytes:             l.bytes,
		Fsyncs:            l.fsyncLat.Count(),
		AppendErrors:      l.appendErrors,
		Segments:          len(l.segments),
		TruncatedSegments: l.truncated,
		LastLSN:           l.written,
	}
	l.mu.Unlock()
	l.syncMu.Lock()
	st.SyncedLSN = l.synced
	l.syncMu.Unlock()
	return st
}

// FsyncLatency is the histogram of every fsync this process issued: a
// group commit's leader sync, an "always" append's sync, and the seal of
// a rotated segment.
func (l *Log) FsyncLatency() *obs.Histogram { return &l.fsyncLat }
