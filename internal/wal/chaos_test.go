package wal_test

// The tests that drive a log through the seeded fault injector. They live in
// the external test package because waltest imports wal.

import (
	"testing"

	"repro/internal/wal"
	"repro/internal/wal/waltest"
)

func TestWALFsyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	c := waltest.NewChaos(waltest.ChaosConfig{Seed: 1, SyncErrP: 1})
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways, FS: c})
	if err != nil {
		t.Fatal(err)
	}
	first := l.AppendRow(wal.Row{ID: "a", Values: []float64{1}})
	if first == nil {
		t.Fatal("append succeeded through a failing fsync")
	}
	second := l.AppendRow(wal.Row{ID: "b", Values: []float64{2}})
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
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	good := wal.TestRows(3)
	for _, r := range good {
		if err := l.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	c := waltest.NewChaos(waltest.ChaosConfig{Seed: 7, ShortWriteP: 1})
	l2, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone, FS: c})
	if err != nil {
		t.Fatal(err)
	}
	wal.SameRows(t, rec.Rows, good)
	if err := l2.AppendRow(wal.Row{ID: "torn", Values: []float64{9}}); err == nil {
		t.Fatal("append succeeded through a short write")
	}
	if err := l2.AppendRow(wal.Row{ID: "after", Values: []float64{10}}); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if c.Counts().ShortWrites == 0 {
		t.Fatal("chaos counted no short writes")
	}
	l2.Close()

	_, rec3, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wal.SameRows(t, rec3.Rows, good) // the torn record is gone, the good ones survive
}

// The crash cut point: bytes past the cut silently vanish, modelling page
// cache loss. Recovery keeps exactly the rows that were fully persisted.
func TestWALCrashCutPoint(t *testing.T) {
	rows := wal.TestRows(6)
	// First measure the clean layout to pick a cut inside row 4.
	clean := t.TempDir()
	l, _, err := wal.Open(clean, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64 // cumulative frame end offsets
	var total int64
	for _, r := range rows {
		total += int64(wal.FrameHeader + len(wal.EncodeRow(r)))
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
		c := waltest.NewChaos(waltest.ChaosConfig{Seed: 3, CutAfterBytes: tc.keep})
		l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone, FS: c})
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
		_, rec, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("case %d: recovery failed: %v", i, err)
		}
		wal.SameRows(t, rec.Rows, rows[:tc.wantRows])
	}
}

// TestWALAppendRowsTornBatchReplaysPrefix: a write that fails part-way
// through a batch poisons the log and acknowledges nothing; the bytes that
// did land are whole frames plus a torn tail, which the next open truncates,
// leaving a prefix of the batch — never a row out of order, never a row
// after a gap.
func TestWALAppendRowsTornBatchReplaysPrefix(t *testing.T) {
	rows := wal.TestRows(20)
	for seed := uint64(1); seed <= 6; seed++ {
		dir := t.TempDir()
		c := waltest.NewChaos(waltest.ChaosConfig{Seed: seed, ShortWriteP: 1})
		l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways, FS: c})
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
		_, rec, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		if len(rec.Rows) >= len(rows) {
			t.Fatalf("seed %d: recovered all %d rows of a batch whose write failed", seed, len(rec.Rows))
		}
		wal.SameRows(t, rec.Rows, rows[:len(rec.Rows)])
	}
}
