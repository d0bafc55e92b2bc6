package tkd

import (
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
)

// Incremental epoch publication. AppendRows folds a batch of new objects
// into the previous epoch's artifacts instead of rebuilding them: the binned
// bitmap index is column-patched (bitmapidx.AppendRows) and the MaxScore
// queue recomputed tree-free from the patched index, so a small append
// publishes in O(delta · columns + N·d) instead of the O(N · columns)
// rebuild — with answers identical to a from-scratch build. The Dataset
// additionally keeps an append lineage (epoch → row count → fingerprint) so
// a replication leader can ship only the rows a follower is missing; any
// non-append mutation cuts the lineage and followers fall back to a full
// epoch transfer.

// Row is one object of an AppendRows batch; Missing (NaN) marks unobserved
// values.
type Row = data.Row

// maxLineage bounds the append lineage ring. A follower more than this many
// append-publishes behind full-syncs instead; at the serving layer's publish
// cadence that means "offline for a while", where a full transfer is the
// right call anyway.
const maxLineage = 16

// epochRecord is one lineage entry: after epoch, the data was rows rows long
// and hashed to fp.
type epochRecord struct {
	epoch uint64
	rows  int
	fp    uint64
}

// AppendRows appends a batch of objects and immediately publishes the next
// epoch, incrementally when possible. It reports whether the publish was
// incremental (the previous epoch's binned index was patched rather than
// rebuilt); either way the new epoch's queue and binned index are ready when
// the call returns, and queries in flight finish on the old epoch. A sharded
// dataset's epoch holds no binned index of its own — its shards index their
// slices, at the first query — so there only the coordinator's queue is built
// and patched is false. Rows follow Append's rules. On error nothing is
// published and the dataset is unchanged.
func (d *Dataset) AppendRows(rows []Row) (patched bool, err error) {
	return d.appendRows(appendSpec{rows: rows})
}

// appendSpec parameterizes appendRows: at > 0 assigns the published epoch
// number (the follower path); verify checks the appended data's fingerprint
// against wantFP before publishing; requireBase demands the current epoch be
// exactly (baseEpoch, baseFP) — the delta-apply precondition.
type appendSpec struct {
	rows        []Row
	at          uint64
	wantFP      uint64
	verify      bool
	baseEpoch   uint64
	baseFP      uint64
	requireBase bool
}

func (d *Dataset) appendRows(sp appendSpec) (patched bool, err error) {
	if len(sp.rows) == 0 {
		return false, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	base := d.cur.Load()
	if sp.requireBase {
		if base == nil || base.epoch != sp.baseEpoch {
			return false, fmt.Errorf("tkd: delta base epoch %d does not match the current epoch", sp.baseEpoch)
		}
		if fp := base.ds.Fingerprint(); fp != sp.baseFP {
			return false, fmt.Errorf("tkd: delta base fingerprint %016x does not match %016x", sp.baseFP, fp)
		}
	}

	if base == nil {
		// Staging is dirty: publish it first so there is a frozen base to
		// extend.
		base = d.publishLocked()
	}

	// Extend off to the side, in O(batch): the extension appends behind the
	// frozen rows in their own backing array (data.Dataset.Extend — readers
	// of the base epoch never look past its length) and continues the base's
	// fingerprint chain over the batch alone — once the base has folded its
	// own rows, which the first append after a load pays if no reader has.
	// The base rows are never touched, so a mid-batch validation error or a
	// fingerprint mismatch discards the extension with no state change.
	next := base.ds.Extend(len(sp.rows))
	for _, r := range sp.rows {
		if _, err := next.Append(r.ID, r.Values); err != nil {
			return false, err
		}
	}
	next.Seal()
	fp := next.Fingerprint()
	if sp.verify && fp != sp.wantFP {
		return false, fmt.Errorf("tkd: appended data fingerprint %016x does not match expected %016x", fp, sp.wantFP)
	}

	// Incremental path: patch the published binned index and rebuild the
	// MaxScore queue from it. The value-granular bitmap (a BIG-only artifact)
	// is dropped and rebuilds lazily. A patch keeps the base's bin layout, so
	// an append that takes a rule-laid-out dataset past one kernel block
	// rebuilds instead, leaving the small-N floor for 2 · Eq. (8).
	sharded := d.topo.Load() != nil
	relayout := base.part.Bins() == nil && bitmapidx.LeavesFloor(base.ds.Len(), next.Len())
	var pre core.Pre
	if old := base.part.Built().Binned; old != nil && !sharded && !relayout {
		if ix, ok := bitmapidx.AppendRows(old, next); ok {
			pre = core.Pre{Queue: core.BuildMaxScoreQueueFromIndex(ix), Binned: ix}
			patched = true
		}
	}
	ns := d.newSnapshot(d.nextEpochLocked(sp.at), next, base.part.Bins(), pre)
	d.staging = next
	d.shared = true
	d.cur.Store(ns)
	base.release()
	if !patched {
		// Rebuild path: pay the artifact build now so the publish is complete
		// either way, mirroring the patch path — on a sharded dataset the
		// shards' indexes and the queue merged from them.
		ns.prepare(core.NeedQueue | core.NeedBinned)
	}
	d.recordLineageLocked(base, ns.epoch, next.Len(), fp)
	return patched, nil
}

// nextEpochLocked advances the epoch counter: at == 0 is the ordinary +1
// bump, a larger at adopts the external (leader's) number, and an at at or
// below the counter falls back to +1, keeping the counter strictly monotonic
// locally.
func (d *Dataset) nextEpochLocked(at uint64) uint64 {
	next := d.epoch.Add(1)
	if at > next {
		d.epoch.Store(at)
		next = at
	}
	return next
}

// recordLineageLocked extends the append lineage with the just-published
// epoch, seeding it with the base epoch when a new chain starts (so the base
// itself is a valid delta starting point).
func (d *Dataset) recordLineageLocked(base *snapshot, epoch uint64, rows int, fp uint64) {
	if len(d.lineage) == 0 && base != nil {
		d.lineage = append(d.lineage, epochRecord{epoch: base.epoch, rows: base.ds.Len(), fp: base.ds.Fingerprint()})
	}
	d.lineage = append(d.lineage, epochRecord{epoch: epoch, rows: rows, fp: fp})
	if len(d.lineage) > maxLineage {
		d.lineage = append(d.lineage[:0], d.lineage[len(d.lineage)-maxLineage:]...)
	}
}

// clearLineageLocked cuts the append lineage; every mutation that is not an
// append-publish calls it, so a lineage match proves the current data is a
// strict row extension of the matched epoch.
func (d *Dataset) clearLineageLocked() { d.lineage = nil }

// ExportEpochDelta pins a stream from the base (haveEpoch, haveFP) to the
// current epoch: the rows appended since. It reports false when the lineage
// cannot prove the current data is a strict row extension of that base — the
// base epoch is unknown or too old, its fingerprint diverges, or a non-append
// mutation intervened — in which case the caller falls back to a stream from
// the empty base (ExportEpoch).
func (d *Dataset) ExportEpochDelta(haveEpoch, haveFP uint64) (*EpochDeltaExport, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	if cur == nil || cur.epoch <= haveEpoch {
		return nil, false
	}
	var haveRec, curRec *epochRecord
	for i := range d.lineage {
		switch r := &d.lineage[i]; r.epoch {
		case haveEpoch:
			haveRec = r
		case cur.epoch:
			curRec = r
		}
	}
	if haveRec == nil || curRec == nil || haveRec.fp != haveFP {
		return nil, false
	}
	if curRec.rows != cur.ds.Len() || haveRec.rows >= curRec.rows {
		return nil, false
	}
	return &EpochDeltaExport{EpochExport{
		s:         cur,
		baseEpoch: haveEpoch,
		baseFP:    haveFP,
		rows:      cur.ds.Slice(haveRec.rows, curRec.rows),
	}}, true
}
