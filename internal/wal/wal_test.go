package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frame wraps one payload in the on-disk record framing.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	copy(out[frameHeader:], payload)
	return out
}

func testRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			ID:     string(rune('a'+i%26)) + "-row",
			Values: []float64{float64(i), math.NaN(), float64(i) * 0.5},
		}
	}
	for i := range rows {
		rows[i].ID = rows[i].ID + string(rune('0'+i%10))
	}
	return rows
}

func sameRows(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("row %d: id %q, want %q", i, got[i].ID, want[i].ID)
		}
		if len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("row %d: %d values, want %d", i, len(got[i].Values), len(want[i].Values))
		}
		for d := range want[i].Values {
			g, w := got[i].Values[d], want[i].Values[d]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("row %d dim %d: %v, want %v", i, d, g, w)
			}
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rows) != 0 || rec.HasCheckpoint {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	rows := testRows(7)
	for _, r := range rows[:5] {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	cp := Checkpoint{Rows: 5, Epoch: 3, Fingerprint: 0xdeadbeef}
	if err := l.AppendCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[5:] {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Appends(); got != 7 {
		t.Fatalf("Appends() = %d, want 7", got)
	}
	if l.Fsyncs() == 0 {
		t.Fatal("SyncAlways issued no fsyncs")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rec2.Rows, rows)
	if !rec2.HasCheckpoint || rec2.Checkpoint != cp {
		t.Fatalf("checkpoint = %+v (has=%v), want %+v", rec2.Checkpoint, rec2.HasCheckpoint, cp)
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean log truncated %d bytes", rec2.TruncatedBytes)
	}
}

func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment bound forces a rotation every couple of records.
	l, _, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(25)
	for _, r := range rows {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected several segments, got %d", len(seqs))
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rec.Rows, rows)
	if rec.Segments != len(seqs) {
		t.Fatalf("recovery walked %d segments, want %d", rec.Segments, len(seqs))
	}
}

func TestWALAppendsAfterReopenStartFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRow(Row{ID: "one", Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.AppendRow(Row{ID: "two", Values: []float64{2}}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	seqs, _ := listSegments(dir)
	if len(seqs) != 2 {
		t.Fatalf("want 2 segments after reopen+append, got %d", len(seqs))
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rows) != 2 || rec.Rows[0].ID != "one" || rec.Rows[1].ID != "two" {
		t.Fatalf("recovered %+v", rec.Rows)
	}
}

func TestWALPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"always", SyncAlways}, {"none", SyncNone}} {
		p, err := ParsePolicy(tc.in)
		if err != nil || p != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, p, err)
		}
		if p.String() != tc.in {
			t.Fatalf("Policy(%q).String() = %q", tc.in, p.String())
		}
	}
	// "interval" was a policy once; it is refused like any other unknown
	// name, with the valid ones listed.
	for _, bad := range []string{"sometimes", "interval"} {
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), "always or none") {
			t.Fatalf("ParsePolicy(%q) = %v, want an error listing the valid names", bad, err)
		}
	}
}

func TestWALFsyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(ChaosConfig{Seed: 1, SyncErrP: 1})
	l, _, err := Open(dir, Options{Policy: SyncAlways, FS: c})
	if err != nil {
		t.Fatal(err)
	}
	first := l.AppendRow(Row{ID: "a", Values: []float64{1}})
	if first == nil {
		t.Fatal("append succeeded through a failing fsync")
	}
	second := l.AppendRow(Row{ID: "b", Values: []float64{2}})
	if second == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if second.Error() != first.Error() {
		t.Fatalf("poison error changed: %v vs %v", first, second)
	}
	if err := l.Err(); err == nil {
		t.Fatal("Err() nil on a poisoned log")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded on a poisoned log")
	}
	if c.Counts().SyncErrors == 0 {
		t.Fatal("chaos counted no sync errors")
	}
	l.Close()
}

// A short write poisons the log and leaves a torn tail the next open
// truncates away without losing earlier records.
func TestWALShortWritePoisons(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	good := testRows(3)
	for _, r := range good {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	c := NewChaos(ChaosConfig{Seed: 7, ShortWriteP: 1})
	l2, rec, err := Open(dir, Options{Policy: SyncNone, FS: c})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rec.Rows, good)
	if err := l2.AppendRow(Row{ID: "torn", Values: []float64{9}}); err == nil {
		t.Fatal("append succeeded through a short write")
	}
	if err := l2.AppendRow(Row{ID: "after", Values: []float64{10}}); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if c.Counts().ShortWrites == 0 {
		t.Fatal("chaos counted no short writes")
	}
	l2.Close()

	_, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rec3.Rows, good) // the torn record is gone, the good ones survive
}

// The crash cut point: bytes past the cut silently vanish, modelling page
// cache loss. Recovery keeps exactly the rows that were fully persisted.
func TestWALCrashCutPoint(t *testing.T) {
	rows := testRows(6)
	// First measure the clean layout to pick a cut inside row 4.
	clean := t.TempDir()
	l, _, err := Open(clean, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64 // cumulative frame end offsets
	var total int64
	for _, r := range rows {
		total += int64(frameHeader + len(EncodeRow(r)))
		offsets = append(offsets, total)
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	cases := []struct {
		keep     int64
		wantRows int
	}{
		{offsets[2], 3},     // cut exactly after row 2: crash-after-sync shape
		{offsets[3] + 5, 4}, // cut mid-frame of row 4: crash-before-sync shape
	}
	for i, tc := range cases {
		dir := t.TempDir()
		c := NewChaos(ChaosConfig{Seed: 3, CutAfterBytes: tc.keep})
		l, _, err := Open(dir, Options{Policy: SyncNone, FS: c})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := l.AppendRow(r); err != nil {
				t.Fatalf("cut-point writes must look successful, got %v", err)
			}
		}
		l.Close()
		if c.Counts().CutBytes == 0 {
			t.Fatal("chaos dropped no bytes")
		}
		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("case %d: recovery failed: %v", i, err)
		}
		sameRows(t, rec.Rows, rows[:tc.wantRows])
	}
}

// lastSegment returns the path of the highest-numbered segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
}

// The torn-write truncation matrix: a log of N rows is truncated at every
// byte offset inside the final record's frame, and recovery must keep the
// first N-1 rows and never error or panic — a torn tail is an expected
// crash artifact, not corruption.
func TestWALTornTailTruncationMatrix(t *testing.T) {
	rows := testRows(5)
	build := func() string {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{Policy: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := l.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	ref := build()
	seg := lastSegment(t, ref)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := frameHeader + len(EncodeRow(rows[len(rows)-1]))
	boundary := len(full) - lastFrame // end of the second-to-last record

	for cut := boundary; cut <= len(full); cut++ {
		dir := build()
		if err := os.Truncate(lastSegment(t, dir), int64(cut)); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, len(full), err)
		}
		want := rows[:len(rows)-1]
		if cut == len(full) {
			want = rows
		}
		sameRows(t, rec.Rows, want)
		if cut < len(full) && rec.TruncatedBytes != int64(cut-boundary) {
			t.Fatalf("cut at %d: truncated %d bytes, want %d", cut, rec.TruncatedBytes, cut-boundary)
		}
		// The recovered log must accept appends after any torn tail.
		if err := l.AppendRow(Row{ID: "post", Values: []float64{1}}); err != nil {
			t.Fatalf("cut at %d: recovered log rejected append: %v", cut, err)
		}
		l.Close()
	}
}

// Damage before the final frame is mid-log corruption: records beyond it
// may be acked writes, so the open must refuse instead of dropping them.
func TestWALMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(4)
	for _, r := range rows {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := lastSegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeader+2] ^= 0xff // flip a byte inside the first record's payload
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// Damage in a sealed (non-final) segment is corruption even at its tail:
// the rotation fsync made that segment a durability barrier.
func TestWALSealedSegmentDamageRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRows(12) {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seqs, _ := listSegments(dir)
	if len(seqs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(seqs))
	}
	first := filepath.Join(dir, segmentName(seqs[0]))
	fi, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(first, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// A missing middle segment means whole files of acked records vanished.
func TestWALSegmentGapRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRows(12) {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seqs, _ := listSegments(dir)
	if len(seqs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(seqs))
	}
	if err := os.Remove(filepath.Join(dir, segmentName(seqs[1]))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// A checkpoint covering FEWER rows than precede it in the log is not
// corruption: the publisher snapshots its batch, and appends that land
// before its checkpoint frame reaches the log belong to the replay suffix.
// (cmd/tkdserver's TestKillUnderLoad hits this interleaving constantly.)
func TestWALCheckpointBehindAppendsAccepted(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(3)
	for _, r := range rows[:2] {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	// The publisher took row 0 as its batch; rows 1..2 raced ahead of its
	// checkpoint frame.
	cp := Checkpoint{Rows: 1, Epoch: 2, Fingerprint: 0xfeed}
	if err := l.AppendCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRow(rows[2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rec.Rows, rows)
	if !rec.HasCheckpoint || rec.Checkpoint != cp {
		t.Fatalf("checkpoint = %+v (has=%v), want %+v", rec.Checkpoint, rec.HasCheckpoint, cp)
	}
}

// A checkpoint claiming a row count the scan did not see is corruption.
func TestWALCheckpointRowMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	seg = append(seg, frame(EncodeRow(Row{ID: "a", Values: []float64{1}}))...)
	seg = append(seg, frame(EncodeCheckpoint(Checkpoint{Rows: 5, Epoch: 1, Fingerprint: 2}))...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestWALRemove(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "ds")
	l, _, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRow(Row{ID: "x", Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Remove left %s behind (%v)", dir, err)
	}
	if err := l.AppendRow(Row{ID: "y", Values: []float64{2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Remove = %v, want ErrClosed", err)
	}
}

func TestWALCloseIdempotent(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRecordCodecs(t *testing.T) {
	r := Row{ID: "obj-1", Values: []float64{1.5, math.NaN(), -3}}
	got, err := DecodeRow(EncodeRow(r))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, []Row{got}, []Row{r})
	cp := Checkpoint{Rows: 42, Epoch: 7, Fingerprint: 0xabc}
	got2, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err != nil || got2 != cp {
		t.Fatalf("checkpoint round trip = %+v, %v", got2, err)
	}
	if _, err := DecodeRow(EncodeCheckpoint(cp)); err == nil {
		t.Fatal("DecodeRow accepted a checkpoint payload")
	}
	if _, err := DecodeCheckpoint(EncodeRow(r)); err == nil {
		t.Fatal("DecodeCheckpoint accepted a row payload")
	}
	if _, err := DecodeRow([]byte{recRow, 0xff}); err == nil {
		t.Fatal("DecodeRow accepted a truncated payload")
	}
}

// countingFS counts the Write calls its files see.
type countingFS struct{ writes int }

type countingFile struct {
	*os.File
	fs *countingFS
}

func (fs *countingFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.writes++
	return f.File.Write(p)
}

// TestWALAppendRowsBatch: a batch is the same bytes as its rows appended one
// by one — format, and so every old log and the fuzz corpus, untouched — but
// one write and, under SyncAlways, one fsync for the lot; under SyncNone, no
// fsync at all.
func TestWALAppendRowsBatch(t *testing.T) {
	rows := testRows(20)
	oneByOne := t.TempDir()
	l, _, err := Open(oneByOne, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Fsyncs() != 20 || l.Appends() != 20 {
		t.Fatalf("row by row: %d fsyncs, %d appends; want 20 / 20", l.Fsyncs(), l.Appends())
	}
	l.Close()
	want, err := os.ReadFile(lastSegment(t, oneByOne))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		policy Policy
		fsyncs int64
	}{{SyncAlways, 1}, {SyncNone, 0}} {
		dir := t.TempDir()
		fs := &countingFS{}
		l, _, err := Open(dir, Options{Policy: tc.policy, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
		if l.Fsyncs() != tc.fsyncs || l.Appends() != 20 || fs.writes != 1 {
			t.Fatalf("%v: one 20-row batch cost %d fsyncs, %d writes and counted %d appends; want %d / 1 / 20",
				tc.policy, l.Fsyncs(), fs.writes, l.Appends(), tc.fsyncs)
		}
		l.Close()
		got, err := os.ReadFile(lastSegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%v: a batch does not leave the bytes its rows leave one by one", tc.policy)
		}
		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, rec.Rows, rows)
	}
}

// TestWALAppendRowsRotatesInsideABatch: a frame never spans segments, so a
// batch larger than a segment is cut at frame boundaries — sealed segments
// behind it — and replays whole.
func TestWALAppendRowsRotatesInsideABatch(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(25)
	if err := l.AppendRows(rows[:13]); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRows(rows[13:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) < 3 {
		t.Fatalf("expected several segments, got %d (err %v)", len(seqs), err)
	}
	for _, seq := range seqs {
		if fi, err := os.Stat(filepath.Join(dir, segmentName(seq))); err != nil || fi.Size() > 128 {
			t.Fatalf("segment %d is %d bytes, over the 128-byte bound (err %v)", seq, fi.Size(), err)
		}
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rec.Rows, rows)
}

// TestWALAppendRowsTornBatchReplaysPrefix: a write that fails part-way
// through a batch poisons the log and acknowledges nothing; the bytes that
// did land are whole frames plus a torn tail, which the next open truncates,
// leaving a prefix of the batch — never a row out of order, never a row
// after a gap.
func TestWALAppendRowsTornBatchReplaysPrefix(t *testing.T) {
	rows := testRows(20)
	for seed := uint64(1); seed <= 6; seed++ {
		dir := t.TempDir()
		c := NewChaos(ChaosConfig{Seed: seed, ShortWriteP: 1})
		l, _, err := Open(dir, Options{Policy: SyncAlways, FS: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendRows(rows); err == nil {
			t.Fatal("batch succeeded through a short write")
		}
		if l.Appends() != 0 || l.Fsyncs() != 0 {
			t.Fatalf("a failed batch counted %d appends and %d fsyncs", l.Appends(), l.Fsyncs())
		}
		if err := l.AppendRows(rows[:1]); err == nil {
			t.Fatal("poisoned log accepted a batch")
		}
		l.Close()
		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		if len(rec.Rows) >= len(rows) {
			t.Fatalf("seed %d: recovered all %d rows of a batch whose write failed", seed, len(rec.Rows))
		}
		sameRows(t, rec.Rows, rows[:len(rec.Rows)])
	}
}
