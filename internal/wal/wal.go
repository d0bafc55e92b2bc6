// Package wal is the durable write-ahead log behind tkdserver's ingest
// path. A log is a directory of segment files, each a sequence of framed
// records:
//
//	u32 LE payload length | u32 LE CRC32C(payload) | payload
//
// The payload's first byte is the record type (see record.go). Appends go
// to the newest segment; when it passes Options.SegmentBytes the segment is
// synced and a new one starts, so segment boundaries are durability
// barriers regardless of the fsync policy.
//
// Durability is the fsync policy's contract: SyncAlways fsyncs before every
// append returns (an acked record survives kill -9), SyncNone leaves flushing
// to the operating system (bulk loads and tests). A failed write or fsync
// permanently poisons the log: the kernel may have dropped the dirty pages
// the failed fsync covered, so retrying the sync could report success for
// data that never reached disk — every later operation returns the original
// error and the caller must treat the log as lost.
//
// Open scans the existing segments before accepting appends. A torn tail —
// an incomplete or CRC-broken final frame at the very end of the final
// segment, the signature of a crash mid-write — is truncated away and
// every earlier record is kept. Anything else that fails to parse is
// mid-log corruption: records after the damage may be acked writes, so the
// scan refuses to open the log (ErrCorrupt) rather than silently dropping
// them.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Policy selects when appends are fsynced.
type Policy int

const (
	// SyncAlways fsyncs before every append returns: an acked record is on
	// disk. The slowest and the only policy whose ack means durable.
	SyncAlways Policy = iota
	// SyncNone never fsyncs between segment rotations: an ack means the
	// bytes reached the kernel, nothing more.
	SyncNone
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == SyncAlways {
		return "always"
	}
	return "none"
}

// ParsePolicy resolves a policy name as spelled on the tkdserver -fsync flag.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always or none)", s)
	}
}

// File is the writable handle a Log appends through; *os.File satisfies it.
// The indirection exists for fault injection (see waltest.Chaos).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS creates segment files. The zero value of osFS is the default;
// waltest.Chaos replaces it with seeded faults.
type FS interface {
	Create(path string) (File, error)
}

type osFS struct{}

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}

// Options tunes a Log.
type Options struct {
	// Policy selects the fsync policy; the zero value is SyncAlways.
	Policy Policy
	// SegmentBytes rotates to a new segment file once the current one
	// passes this size; <= 0 defaults to 4 MiB.
	SegmentBytes int64
	// FS overrides segment-file creation (fault injection); nil uses the
	// operating system.
	FS FS
}

// ErrCorrupt marks mid-log corruption found by the open-time scan: damage
// that is not a torn tail, with records (possibly acked) beyond it. The log
// refuses to open rather than guess.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// castagnoli is the CRC32C table; the same polynomial storage systems use
// for frame checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Recovery summarizes what the open-time scan found.
type Recovery struct {
	// Rows are the decoded row records, oldest first — every row ever
	// acked into this log (both sides of the last checkpoint).
	Rows []Row
	// Checkpoint is the last checkpoint record; HasCheckpoint reports
	// whether one was found. Rows[:Checkpoint.Rows] were covered by the
	// epoch publish the checkpoint recorded; the suffix is acked but
	// unpublished.
	Checkpoint    Checkpoint
	HasCheckpoint bool
	// TruncatedBytes is the size of the torn tail dropped from the final
	// segment (0 for a clean log).
	TruncatedBytes int64
	// Segments is how many segment files the scan walked.
	Segments int
}

// Log is an append-only segment log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      File   // current segment; nil until the first append after Open
	seq    uint64 // sequence number of the current (or next) segment
	size   int64  // bytes written to the current segment
	dirty  bool   // bytes written since the last fsync
	err    error  // poison: first write/sync failure, permanent
	closed bool

	appends atomic.Int64 // row records appended (this process)
	fsyncs  atomic.Int64 // fsyncs issued (this process)
}

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

// parseSegmentName extracts the sequence number; ok is false for files that
// are not segments (editor droppings, temp files) so the scan skips them.
func parseSegmentName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%016d.seg", &seq); err != nil {
		return 0, false
	}
	if name != segmentName(seq) {
		return 0, false
	}
	return seq, true
}

// Open creates dir if needed, scans any existing segments (recovering
// acked records, truncating a torn tail, rejecting mid-log corruption with
// ErrCorrupt) and returns a log ready to append after the recovered data.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{Segments: len(seqs)}
	var rowsSeen uint64
	for i, seq := range seqs {
		final := i == len(seqs)-1
		path := filepath.Join(dir, segmentName(seq))
		truncated, err := scanSegment(path, final, func(payload []byte) error {
			switch RecordType(payload) {
			case recRow:
				row, err := DecodeRow(payload)
				if err != nil {
					return err
				}
				rec.Rows = append(rec.Rows, row)
				rowsSeen++
			case recCheckpoint:
				cp, err := DecodeCheckpoint(payload)
				if err != nil {
					return err
				}
				// A checkpoint claims to cover a prefix of the row records;
				// the scan must have seen at least that many rows, or some
				// acked row vanished without tearing a frame. Seeing MORE
				// rows than the checkpoint covers is normal: appends land
				// between the publisher snapshotting its batch and its
				// checkpoint frame reaching the log, and those rows are
				// simply part of the replay suffix.
				if cp.Rows > rowsSeen {
					return fmt.Errorf("%w: checkpoint covers %d rows but %d were recovered before it", ErrCorrupt, cp.Rows, rowsSeen)
				}
				rec.Checkpoint, rec.HasCheckpoint = cp, true
			default:
				return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, RecordType(payload))
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
		}
		rec.TruncatedBytes += truncated
	}
	l := &Log{dir: dir, opts: opts}
	if n := len(seqs); n > 0 {
		// Appends continue in a fresh segment: the recovered tail keeps the
		// exact bytes the scan validated, and a restart never interleaves
		// new frames into a file another process may still have mapped.
		l.seq = seqs[n-1] + 1
	} else {
		l.seq = 1
	}
	return l, rec, nil
}

// listSegments returns the segment sequence numbers in dir, ascending, and
// verifies they are contiguous — a missing middle segment is whole-file
// corruption and must not silently drop its records.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			return nil, fmt.Errorf("%w: segment %d follows segment %d", ErrCorrupt, seqs[i], seqs[i-1])
		}
	}
	return seqs, nil
}

// maxRecord bounds one frame's payload. A length field past it is garbage
// (torn or corrupt), never a legitimate record.
const maxRecord = 16 << 20

// scanSegment walks one segment's frames, handing each valid payload to h.
// For the final segment a torn tail — an incomplete frame, or a CRC-broken
// frame that runs exactly to end of file — is truncated off and its size
// returned; anything else unparseable is ErrCorrupt. Non-final segments
// were sealed by the rotation fsync, so any damage in them is ErrCorrupt.
func scanSegment(path string, final bool, h func(payload []byte) error) (truncated int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := 0
	truncateAt := func(at int) (int64, error) {
		if !final {
			return 0, fmt.Errorf("%w: damaged frame at offset %d of a sealed segment", ErrCorrupt, at)
		}
		if err := os.Truncate(path, int64(at)); err != nil {
			return 0, fmt.Errorf("truncating torn tail: %w", err)
		}
		return int64(len(b) - at), nil
	}
	for off < len(b) {
		if len(b)-off < frameHeader {
			return truncateAt(off) // header itself is torn
		}
		n := binary.LittleEndian.Uint32(b[off:])
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if n == 0 || n > maxRecord {
			return truncateAt(off) // length is garbage: a torn (often zero-filled) tail
		}
		end := off + frameHeader + int(n)
		if end > len(b) {
			return truncateAt(off) // payload is torn
		}
		payload := b[off+frameHeader : end]
		if crc32.Checksum(payload, castagnoli) != sum {
			if final && end == len(b) {
				// The final frame's bytes are complete but wrong: a crash
				// mid-write can leave the full length on disk with the
				// payload only partially persisted. Nothing follows it, so
				// it cannot be an acked record another record built on.
				return truncateAt(off)
			}
			return 0, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		if err := h(payload); err != nil {
			return 0, err
		}
		off = end
	}
	return 0, nil
}

// AppendRow logs one row record, fsyncing first when the policy is
// SyncAlways — a nil return then means the row is on disk.
func (l *Log) AppendRow(r Row) error { return l.AppendRows([]Row{r}) }

// AppendRows logs a batch of row records: the very frames AppendRow writes,
// laid end to end, handed to the segment in one write and — under SyncAlways
// — made durable by one fsync, so an ack costs one disk flush however many
// rows it covers. A nil return means every row is logged (on disk, under
// SyncAlways). On error the log is poisoned and none of the batch is
// acknowledged; some prefix of its frames may have reached the file, and
// recovery replays whatever prefix survived, as it would after a crash
// mid-batch.
func (l *Log) AppendRows(rows []Row) error {
	payloads := make([][]byte, len(rows))
	for i, r := range rows {
		payloads[i] = EncodeRow(r)
	}
	if err := l.append(payloads, l.opts.Policy == SyncAlways); err != nil {
		return err
	}
	l.appends.Add(int64(len(rows)))
	return nil
}

// AppendCheckpoint logs a checkpoint record and fsyncs regardless of
// policy: a checkpoint that is not durable would let a crash replay rows
// into an epoch that followers already fetched.
func (l *Log) AppendCheckpoint(cp Checkpoint) error {
	return l.append([][]byte{EncodeCheckpoint(cp)}, true)
}

// append frames the payloads into the current segment through one buffer —
// one write, unless a segment fills up on the way: a frame never spans
// segments, so the buffer is flushed and the segment rotated first.
func (l *Log) append(payloads [][]byte, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	var buf []byte
	for _, payload := range payloads {
		if at := l.size + int64(len(buf)); l.f != nil && at > 0 && at+frameHeader+int64(len(payload)) > l.opts.SegmentBytes {
			if err := l.writeLocked(buf); err != nil {
				return err
			}
			buf = buf[:0]
			if err := l.rotateLocked(); err != nil {
				return err
			}
		}
		if l.f == nil {
			f, err := l.opts.FS.Create(filepath.Join(l.dir, segmentName(l.seq)))
			if err != nil {
				l.err = fmt.Errorf("wal: creating segment: %w", err)
				return l.err
			}
			l.f, l.size = f, 0
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
		buf = append(buf, payload...)
	}
	if err := l.writeLocked(buf); err != nil {
		return err
	}
	if sync {
		return l.syncLocked()
	}
	return nil
}

// writeLocked writes b fully or poisons the log: after a partial write the
// segment tail is torn, and anything appended past it would sit beyond
// damage the recovery scan must reject.
func (l *Log) writeLocked(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, err := l.f.Write(b)
	l.size += int64(n)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.err = fmt.Errorf("wal: segment write failed: %w", err)
		return l.err
	}
	l.dirty = true
	return nil
}

// syncLocked fsyncs the current segment. Failure poisons the log: the
// kernel may have dropped the very pages the failed fsync covered, so
// retrying could claim durability for lost bytes.
func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync failed: %w", err)
		return l.err
	}
	l.dirty = false
	l.fsyncs.Add(1)
	return nil
}

// rotateLocked seals the current segment (fsync, so sealed segments are a
// durability barrier under every policy) and arranges the next append to
// start a fresh one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: sealing segment: %w", err)
		return l.err
	}
	l.f = nil
	l.seq++
	return nil
}

// Sync forces an fsync of the current segment under any policy; the drain
// path calls it so logged-but-unpublished rows survive a shutdown.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Err reports the poison error, nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Appends reports the row records appended through this handle.
func (l *Log) Appends() int64 { return l.appends.Load() }

// Fsyncs reports the fsyncs issued through this handle.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close fsyncs (best effort on a poisoned log) and closes the current
// segment. The log accepts no further appends.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeLocked()
}

func (l *Log) closeLocked() error {
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// Remove closes the log and deletes its segment files and directory — the
// dataset-eviction path. The poison state is irrelevant: the data is being
// discarded either way.
func (l *Log) Remove() error {
	l.mu.Lock()
	_ = l.closeLocked()
	l.mu.Unlock()
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	// Remove the directory only if nothing foreign lives in it.
	if err := os.Remove(l.dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		if empty, _ := isEmptyDir(l.dir); empty {
			return err
		}
	}
	return nil
}

func isEmptyDir(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	return len(entries) == 0, nil
}
