package tkd_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/tkd"
)

// deltaBatch builds a deterministic append batch over (and beyond) the value
// domain of a GenerateIND(c=...) dataset: in-domain duplicates plus values
// below, between and above the existing grid, with some missing cells.
func deltaBatch(tag string, n, dim, c int, seed int64) []tkd.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tkd.Row, n)
	for i := range rows {
		vals := make([]float64, dim)
		for d := range vals {
			switch rng.Intn(6) {
			case 0:
				vals[d] = tkd.Missing
			case 1:
				vals[d] = -1 - rng.Float64() // below the domain
			case 2:
				vals[d] = float64(c) + rng.Float64()*3 // above the domain
			case 3:
				vals[d] = float64(rng.Intn(c)) + 0.5 // between grid values
			default:
				vals[d] = float64(rng.Intn(c)) // existing value
			}
		}
		vals[rng.Intn(dim)] = float64(rng.Intn(c)) // ensure observed
		rows[i] = tkd.Row{ID: fmt.Sprintf("%s%d", tag, i), Values: vals}
	}
	return rows
}

// rebuildFrom replays ds's current data plus the batch into a fresh dataset
// and prepares it from scratch — the golden reference for a delta publish.
func rebuildFrom(t *testing.T, ds *tkd.Dataset, rows []tkd.Row) *tkd.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	scratch, err := tkd.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := scratch.Append(r.ID, r.Values...); err != nil {
			t.Fatal(err)
		}
	}
	scratch.PrepareFor(tkd.IBIG)
	return scratch
}

// TestAppendRowsPatchesAndMatchesRebuild is the golden crosscheck: a warm
// dataset absorbs a batch through the incremental path (no index rebuild)
// and must answer every query exactly like a from-scratch build — identical
// fingerprint, identical ranked items.
func TestAppendRowsPatchesAndMatchesRebuild(t *testing.T) {
	ds := tkd.GenerateIND(600, 4, 16, 0.25, 42)
	ds.PrepareFor(tkd.IBIG)
	e0, b0 := ds.Epoch(), ds.IndexBuilds()

	rows := deltaBatch("x", 40, 4, 16, 7)
	patched, err := ds.AppendRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !patched {
		t.Fatal("warm dataset did not take the incremental path")
	}
	if got := ds.Epoch(); got != e0+1 {
		t.Fatalf("epoch %d, want %d", got, e0+1)
	}
	if got := ds.IndexBuilds(); got != b0 {
		t.Fatalf("incremental publish rebuilt the index (%d -> %d builds)", b0, got)
	}
	if got, want := ds.Len(), 600+len(rows); got != want {
		t.Fatalf("len %d, want %d", got, want)
	}

	scratch := rebuildFrom(t, ds, nil)
	if ds.Fingerprint() != scratch.Fingerprint() {
		t.Fatal("fingerprint diverges from a from-scratch rebuild")
	}
	for _, k := range []int{1, 10, 64} {
		got, err := ds.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scratch.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("k=%d: patched answers diverge from rebuild:\n%v\n%v", k, got.Items, want.Items)
		}
	}
	// The other algorithms rebuild their artifacts lazily on the new epoch
	// and must agree too.
	for _, alg := range []tkd.Algorithm{tkd.UBB, tkd.BIG} {
		got, err := ds.TopK(10, tkd.WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		want, err := scratch.TopK(10, tkd.WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("%v: patched answers diverge from rebuild", alg)
		}
	}
}

// TestAppendRowsChained: repeated small batches keep patching, each bumping
// the epoch once, and the end state matches one big rebuild.
func TestAppendRowsChained(t *testing.T) {
	ds := tkd.GenerateIND(300, 3, 8, 0.2, 5)
	ds.PrepareFor(tkd.IBIG)
	b0 := ds.IndexBuilds()
	var all []tkd.Row
	for round := 0; round < 5; round++ {
		rows := deltaBatch(fmt.Sprintf("r%d-", round), 10, 3, 8, int64(round))
		all = append(all, rows...)
		patched, err := ds.AppendRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !patched {
			t.Fatalf("round %d fell back to a rebuild", round)
		}
	}
	if got := ds.IndexBuilds(); got != b0 {
		t.Fatalf("chained appends rebuilt the index (%d -> %d builds)", b0, got)
	}
	fresh := tkd.GenerateIND(300, 3, 8, 0.2, 5)
	for _, r := range all {
		if err := fresh.Append(r.ID, r.Values...); err != nil {
			t.Fatal(err)
		}
	}
	fresh.PrepareFor(tkd.IBIG)
	got, _ := ds.TopK(15)
	want, _ := fresh.TopK(15)
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatal("chained patched answers diverge from rebuild")
	}
}

// TestAppendRowsColdFallback: with no binned index built yet there is
// nothing to patch; AppendRows publishes via the rebuild path and still
// leaves the dataset fully prepared and correct.
func TestAppendRowsColdFallback(t *testing.T) {
	ds := tkd.GenerateIND(200, 3, 8, 0.2, 9)
	rows := deltaBatch("x", 10, 3, 8, 3)
	patched, err := ds.AppendRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if patched {
		t.Fatal("cold dataset cannot have taken the incremental path")
	}
	if got, want := ds.Len(), 210; got != want {
		t.Fatalf("len %d, want %d", got, want)
	}
	scratch := rebuildFrom(t, ds, nil)
	got, _ := ds.TopK(10)
	want, _ := scratch.TopK(10)
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatal("fallback publish answers diverge from rebuild")
	}
}

// TestAppendRowsValidation: a bad row rejects the whole batch with no state
// change.
func TestAppendRowsValidation(t *testing.T) {
	ds := tkd.GenerateIND(100, 3, 8, 0.2, 1)
	ds.PrepareFor(tkd.IBIG)
	e0, n0 := ds.Epoch(), ds.Len()
	_, err := ds.AppendRows([]tkd.Row{
		{ID: "good", Values: []float64{1, 2, 3}},
		{ID: "bad", Values: []float64{tkd.Missing, tkd.Missing, tkd.Missing}},
	})
	if err == nil {
		t.Fatal("all-missing row accepted")
	}
	if ds.Epoch() != e0 || ds.Len() != n0 {
		t.Fatal("failed batch mutated the dataset")
	}
	if patched, err := ds.AppendRows(nil); err != nil || patched {
		t.Fatal("empty batch should be a no-op")
	}
}

// TestAppendIDsCrossEpochStreams: an ID holding "\r\n" — which encoding/csv
// reads back as "\n", so a follower would hash a different row — is refused
// by Append and AppendRows, and the IDs they accept, CSV's awkward bytes
// included, cross both epoch streams under the leader's fingerprint.
func TestAppendIDsCrossEpochStreams(t *testing.T) {
	leader := tkd.GenerateIND(100, 3, 8, 0.2, 5)
	leader.PrepareFor(tkd.IBIG)
	if err := leader.Append("a\r\nb", 1, 2, 3); err == nil {
		t.Error(`Append accepted an id holding "\r\n"`)
	}
	if _, err := leader.AppendRows([]tkd.Row{{ID: "\r\n", Values: []float64{1, 2, 3}}}); err == nil {
		t.Error(`AppendRows accepted an id holding "\r\n"`)
	}

	var full bytes.Buffer
	if err := leader.ExportEpoch().Write(&full, true); err != nil {
		t.Fatal(err)
	}
	imported, ep, err := tkd.ImportEpoch(&full)
	if err != nil {
		t.Fatal(err)
	}
	follower := tkd.NewDataset(3)
	follower.ReplaceFromAt(imported, ep)

	var rows []tkd.Row
	for i, id := range []string{"a\rb", "a,b", "a\n", "a\nb", `say "hi"`, " lead", "\r", "x\r", "\n\r"} {
		rows = append(rows, tkd.Row{ID: id, Values: []float64{float64(i), 1, tkd.Missing}})
	}
	if _, err := leader.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	full.Reset()
	if err := leader.ExportEpoch().Write(&full, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tkd.ImportEpoch(&full); err != nil {
		t.Fatalf("full stream: %v", err)
	}
	x, ok := leader.ExportEpochDelta(follower.Epoch(), follower.Fingerprint())
	if !ok {
		t.Fatal("no delta for the follower's base")
	}
	var delta bytes.Buffer
	if err := x.Write(&delta); err != nil {
		t.Fatal(err)
	}
	parsed, err := tkd.ReadEpochDelta(&delta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyEpochDelta(parsed); err != nil {
		t.Fatalf("delta stream: %v", err)
	}
	if follower.Fingerprint() != leader.Fingerprint() {
		t.Fatal("follower fingerprint diverges after the delta")
	}
}

// TestDeltaExportApply walks the replication path: a follower holding the
// leader's epoch applies a delta stream and converges to the same epoch and
// fingerprint, over a transfer carrying only the appended rows.
func TestDeltaExportApply(t *testing.T) {
	leader := tkd.GenerateIND(800, 4, 16, 0.2, 11)
	leader.PrepareFor(tkd.IBIG)

	// Full sync: follower imports the complete epoch stream.
	var full bytes.Buffer
	if err := leader.ExportEpoch().Write(&full, true); err != nil {
		t.Fatal(err)
	}
	fullBytes := full.Len()
	imported, ep, err := tkd.ImportEpoch(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	follower := tkd.NewDataset(4)
	follower.ReplaceFromAt(imported, ep)
	haveEpoch, haveFP := follower.Epoch(), follower.Fingerprint()

	// Leader appends; a delta from the follower's base must exist.
	if _, err := leader.AppendRows(deltaBatch("x", 64, 4, 16, 13)); err != nil {
		t.Fatal(err)
	}
	x, ok := leader.ExportEpochDelta(haveEpoch, haveFP)
	if !ok {
		t.Fatal("no delta available for the follower's base")
	}
	if x.Rows() != 64 {
		t.Fatalf("delta carries %d rows, want 64", x.Rows())
	}
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= fullBytes {
		t.Fatalf("delta stream (%d bytes) not smaller than full stream (%d bytes)", buf.Len(), fullBytes)
	}

	parsed, err := tkd.ReadEpochDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := follower.ApplyEpochDelta(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !patched {
		t.Fatal("follower with a warm imported index should patch, not rebuild")
	}
	if follower.Epoch() != leader.Epoch() {
		t.Fatalf("epochs diverge: follower %d, leader %d", follower.Epoch(), leader.Epoch())
	}
	if follower.Fingerprint() != leader.Fingerprint() {
		t.Fatal("fingerprints diverge after delta apply")
	}
	got, _ := follower.TopK(10)
	want, _ := leader.TopK(10)
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatal("follower answers diverge from leader after delta apply")
	}

	// A second delta chains off the first.
	haveEpoch, haveFP = follower.Epoch(), follower.Fingerprint()
	if _, err := leader.AppendRows(deltaBatch("y", 8, 4, 16, 17)); err != nil {
		t.Fatal(err)
	}
	x2, ok := leader.ExportEpochDelta(haveEpoch, haveFP)
	if !ok {
		t.Fatal("no chained delta available")
	}
	var buf2 bytes.Buffer
	if err := x2.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	parsed2, err := tkd.ReadEpochDelta(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyEpochDelta(parsed2); err != nil {
		t.Fatal(err)
	}
	if follower.Fingerprint() != leader.Fingerprint() {
		t.Fatal("fingerprints diverge after chained delta")
	}
}

// TestDeltaExportSpansEpochs: a follower several append-publishes behind
// gets one delta covering all of them.
func TestDeltaExportSpansEpochs(t *testing.T) {
	leader := tkd.GenerateIND(200, 3, 8, 0.2, 19)
	leader.PrepareFor(tkd.IBIG)
	haveEpoch, haveFP := leader.Epoch(), leader.Fingerprint()
	total := 0
	for round := 0; round < 3; round++ {
		rows := deltaBatch(fmt.Sprintf("r%d-", round), 5, 3, 8, int64(round))
		total += len(rows)
		if _, err := leader.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	x, ok := leader.ExportEpochDelta(haveEpoch, haveFP)
	if !ok {
		t.Fatal("no delta spanning multiple publishes")
	}
	if x.Rows() != total {
		t.Fatalf("delta carries %d rows, want %d", x.Rows(), total)
	}
	if x.Epoch() != leader.Epoch() || x.Fingerprint() != leader.Fingerprint() {
		t.Fatal("delta does not land on the leader's current epoch")
	}
}

// TestDeltaExportRefused pins every condition that must force a full sync.
func TestDeltaExportRefused(t *testing.T) {
	leader := tkd.GenerateIND(200, 3, 8, 0.2, 23)
	leader.PrepareFor(tkd.IBIG)
	base, baseFP := leader.Epoch(), leader.Fingerprint()
	if _, err := leader.AppendRows(deltaBatch("x", 5, 3, 8, 1)); err != nil {
		t.Fatal(err)
	}

	if _, ok := leader.ExportEpochDelta(leader.Epoch(), leader.Fingerprint()); ok {
		t.Error("delta to the current epoch itself must be refused")
	}
	if _, ok := leader.ExportEpochDelta(base, baseFP^1); ok {
		t.Error("divergent base fingerprint must be refused")
	}
	if _, ok := leader.ExportEpochDelta(base+100, baseFP); ok {
		t.Error("unknown base epoch must be refused")
	}

	// A non-append mutation cuts the lineage entirely.
	if err := leader.Append("cut", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	leader.PrepareFor(tkd.IBIG)
	if _, ok := leader.ExportEpochDelta(base, baseFP); ok {
		t.Error("lineage must be cut by a plain Append")
	}

	// ...and starts fresh from the next append-publish.
	e, fp := leader.Epoch(), leader.Fingerprint()
	if _, err := leader.AppendRows(deltaBatch("y", 5, 3, 8, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := leader.ExportEpochDelta(e, fp); !ok {
		t.Error("fresh lineage should resume delta availability")
	}
}

// TestApplyEpochDeltaRejectsDivergence: a follower whose base does not match
// the delta's must refuse before publishing anything.
func TestApplyEpochDeltaRejectsDivergence(t *testing.T) {
	leader := tkd.GenerateIND(200, 3, 8, 0.2, 29)
	leader.PrepareFor(tkd.IBIG)
	base, baseFP := leader.Epoch(), leader.Fingerprint()
	if _, err := leader.AppendRows(deltaBatch("x", 5, 3, 8, 3)); err != nil {
		t.Fatal(err)
	}
	x, ok := leader.ExportEpochDelta(base, baseFP)
	if !ok {
		t.Fatal("no delta")
	}
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	divergent := tkd.GenerateIND(200, 3, 8, 0.2, 31) // different seed, same epoch count
	divergent.PrepareFor(tkd.IBIG)
	parsed, err := tkd.ReadEpochDelta(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	e0 := divergent.Epoch()
	if _, err := divergent.ApplyEpochDelta(parsed); err == nil {
		t.Fatal("divergent follower accepted a delta")
	}
	if divergent.Epoch() != e0 {
		t.Fatal("refused delta still published an epoch")
	}

	// Corrupting the rows section must trip the final fingerprint check. The
	// flip lands on the first row's identifier, the line after the CSV
	// header that follows the 49-byte stream header.
	clipped := append([]byte(nil), raw...)
	clipped[49+bytes.IndexByte(raw[49:], '\n')+1] ^= 1
	parsed, err = tkd.ReadEpochDelta(bytes.NewReader(clipped))
	if err == nil {
		matching := tkd.GenerateIND(200, 3, 8, 0.2, 29)
		matching.PrepareFor(tkd.IBIG)
		if _, err := matching.ApplyEpochDelta(parsed); err == nil {
			t.Fatal("corrupted delta rows accepted")
		}
	}

	// A stream from the empty base is a whole dataset, not rows to append —
	// even an empty one, which an append would take as a no-op.
	var empty bytes.Buffer
	if err := tkd.NewDataset(3).ExportEpoch().Write(&empty, false); err != nil {
		t.Fatal(err)
	}
	whole, err := tkd.ReadEpochDelta(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := divergent.ApplyEpochDelta(whole); err == nil {
		t.Fatal("a stream from the empty base was applied as a delta")
	}
}

// assertSameAsRebuild fails unless ds — fingerprint, missing rate, IBIG and
// UBB answers — is what a fresh parse and from-scratch build of its rows is.
func assertSameAsRebuild(t *testing.T, label string, ds *tkd.Dataset) {
	t.Helper()
	scratch := rebuildFrom(t, ds, nil)
	if ds.Fingerprint() != scratch.Fingerprint() {
		t.Fatalf("%s: fingerprint %016x, a fresh parse of the same rows hashes to %016x", label, ds.Fingerprint(), scratch.Fingerprint())
	}
	if ds.MissingRate() != scratch.MissingRate() {
		t.Fatalf("%s: missing rate %v, a scan of the same rows says %v", label, ds.MissingRate(), scratch.MissingRate())
	}
	for _, alg := range []tkd.Algorithm{tkd.IBIG, tkd.UBB} {
		got, err := ds.TopK(12, tkd.WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		want, err := scratch.TopK(12, tkd.WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("%s, %v: answers diverge from a rebuild:\n%v\n%v", label, alg, got.Items, want.Items)
		}
	}
}

// TestAppendRowsTwoExtensionsOfOneBase: two datasets that took over the same
// published epoch (ReplaceFrom shares the frozen rows and the index) each
// append to it. The first extends the shared backing arrays in place, the
// second must copy; each ends up exactly what a rebuild of its own rows is,
// and the base epoch's holder still serves the base.
func TestAppendRowsTwoExtensionsOfOneBase(t *testing.T) {
	base := tkd.GenerateIND(500, 4, 12, 0.2, 61)
	base.PrepareFor(tkd.IBIG)
	// One publish first, so the shared arrays carry spare capacity. Batches
	// stay inside the value grid (speedupBatch): no new distinct value, so a
	// patch extends the rank table in place as well as the rows.
	if _, err := base.AppendRows(speedupBatch(10, 4, 12, 1)); err != nil {
		t.Fatal(err)
	}
	baseFP, baseLen := base.Fingerprint(), base.Len()
	baseTop, err := base.TopK(12)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tkd.NewDataset(4), tkd.NewDataset(4)
	a.ReplaceFrom(base)
	b.ReplaceFrom(base)
	for _, x := range []struct {
		ds   *tkd.Dataset
		rows []tkd.Row
	}{{a, speedupBatch(9, 4, 12, 2)}, {b, speedupBatch(13, 4, 12, 3)}} {
		if patched, err := x.ds.AppendRows(x.rows); err != nil || !patched {
			t.Fatalf("patched=%v err=%v", patched, err)
		}
	}
	assertSameAsRebuild(t, "first extension", a)
	assertSameAsRebuild(t, "second extension", b)
	if a.Len() != baseLen+9 || b.Len() != baseLen+13 || a.ID(baseLen) != "s2-0" || b.ID(baseLen) != "s3-0" {
		t.Fatal("the two extensions see each other's rows")
	}
	if base.Len() != baseLen || base.Fingerprint() != baseFP {
		t.Fatal("extending changed the base epoch")
	}
	again, err := base.TopK(12)
	if err != nil || !reflect.DeepEqual(again.Items, baseTop.Items) {
		t.Fatalf("the base epoch answers differently after being extended (err %v)", err)
	}
	assertSameAsRebuild(t, "base", base)
}

// TestApplyEpochDeltaFailedVerifyLeavesBaseIntact: a delta whose rows do not
// hash to its header is refused after the extension has been written into
// the base's spare capacity. The base epoch — rows, fingerprint, missing
// rate, answers — must be exactly as before, and the good delta that follows
// must publish as if nothing had happened.
func TestApplyEpochDeltaFailedVerifyLeavesBaseIntact(t *testing.T) {
	mk := func() *tkd.Dataset {
		ds := tkd.GenerateIND(400, 3, 10, 0.2, 71)
		ds.PrepareFor(tkd.IBIG)
		if _, err := ds.AppendRows(speedupBatch(6, 3, 10, 4)); err != nil { // spare capacity behind the rows
			t.Fatal(err)
		}
		return ds
	}
	leader, follower := mk(), mk()
	e0, fp0 := follower.Epoch(), follower.Fingerprint()
	top0, err := follower.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.AppendRows(speedupBatch(8, 3, 10, 5)); err != nil {
		t.Fatal(err)
	}
	x, ok := leader.ExportEpochDelta(e0, fp0)
	if !ok {
		t.Fatal("no delta")
	}
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[32:], x.Fingerprint()^1) // the produced-data fingerprint
	parsed, err := tkd.ReadEpochDelta(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyEpochDelta(parsed); err == nil {
		t.Fatal("a delta that fails its fingerprint verify was applied")
	}
	if follower.Epoch() != e0 || follower.Fingerprint() != fp0 || follower.Len() != 406 {
		t.Fatal("the refused delta moved the follower")
	}
	if again, err := follower.TopK(10); err != nil || !reflect.DeepEqual(again.Items, top0.Items) {
		t.Fatalf("the refused delta changed the follower's answers (err %v)", err)
	}
	assertSameAsRebuild(t, "base after the refused delta", follower)

	parsed, err = tkd.ReadEpochDelta(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if patched, err := follower.ApplyEpochDelta(parsed); err != nil || !patched {
		t.Fatalf("good delta after a refused one: patched=%v err=%v", patched, err)
	}
	if follower.Epoch() != leader.Epoch() || follower.Fingerprint() != leader.Fingerprint() {
		t.Fatal("follower did not converge on the leader")
	}
	assertSameAsRebuild(t, "follower after the good delta", follower)
}

// TestReadersDuringAppendPublishes: 200 append-publishes land — extending
// rows, values and rank table in place behind every earlier epoch — while one
// reader keeps a frozen epoch in hand and another queries whatever is current.
// No race (run under -race), the frozen epoch never changes, and every answer
// equals the oracle of the epoch it was stamped with.
func TestReadersDuringAppendPublishes(t *testing.T) {
	const publishes, batch, dim, card = 200, 5, 3, 9
	ds := tkd.GenerateIND(300, dim, card, 0.2, 81)
	ds.PrepareFor(tkd.IBIG)
	e0 := ds.Epoch()
	batches := make([][]tkd.Row, publishes)
	for i := range batches {
		batches[i] = speedupBatch(batch, dim, card, int64(i))
	}

	frozen := ds.ShardData() // epoch e0's rows: later epochs grow behind its length
	frozenFP, frozenLen := frozen.Fingerprint(), frozen.Len()

	// An answer is stamped with the fingerprint read before and after it: the
	// identity key of the epoch that produced it (the Epoch() counter leads
	// the snapshot swap by a few instructions, so it cannot stamp).
	type stamped struct {
		fp    uint64
		items []tkd.Item
	}
	var seen []stamped
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if frozen.Fingerprint() != frozenFP || frozen.Len() != frozenLen {
				t.Error("a frozen epoch changed under its reader")
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := ds.Fingerprint()
			res, err := ds.TopK(7)
			if err != nil {
				t.Error(err)
				return
			}
			if ds.Fingerprint() == before { // no publish in between: the answer is this epoch's
				seen = append(seen, stamped{before, res.Items})
			}
		}
	}()
	for _, rows := range batches {
		if patched, err := ds.AppendRows(rows); err != nil || !patched {
			t.Fatalf("patched=%v err=%v", patched, err)
		}
	}
	close(stop)
	readers.Wait()
	assertSameAsRebuild(t, "after 200 publishes", ds)

	// Which epoch a fingerprint names: replay the publishes into an oracle.
	oracle := tkd.GenerateIND(300, dim, card, 0.2, 81)
	published := map[uint64]int{oracle.Fingerprint(): 0}
	for i, rows := range batches {
		for _, r := range rows {
			if err := oracle.Append(r.ID, r.Values...); err != nil {
				t.Fatal(err)
			}
		}
		published[oracle.Fingerprint()] = i + 1
	}
	// Oracle answers are rebuilt per epoch; check a spread of the stamped ones.
	checked := map[uint64]bool{}
	for i := 0; i < len(seen); i += max(1, len(seen)/12) {
		s := seen[i]
		n, ok := published[s.fp]
		if !ok {
			t.Fatalf("a reader saw fingerprint %016x, which no published epoch has", s.fp)
		}
		if checked[s.fp] {
			continue
		}
		checked[s.fp] = true
		at := tkd.GenerateIND(300, dim, card, 0.2, 81)
		for _, rows := range batches[:n] {
			for _, r := range rows {
				if err := at.Append(r.ID, r.Values...); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := at.TopK(7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.items, want.Items) {
			t.Fatalf("after %d publishes (epoch %d): answer differs from the oracle over its %d rows", n, e0+uint64(n), at.Len())
		}
	}
	if len(checked) == 0 {
		t.Log("no answer was stamped with a single epoch; only the final state was checked")
	}
}

// TestMissingRateCarriedAcrossPublishes: the missing-cell count rides along
// with every append-publish, and after k of them still equals a scan of the
// materialised rows — exactly, not within a tolerance.
func TestMissingRateCarriedAcrossPublishes(t *testing.T) {
	ds := tkd.GenerateIND(250, 4, 10, 0.3, 91)
	ds.PrepareFor(tkd.IBIG)
	for k := 0; k < 8; k++ {
		if _, err := ds.AppendRows(deltaBatch(fmt.Sprintf("m%d-", k), 7, 4, 10, int64(k))); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rows, err := data.ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		scan := 0
		for i := 0; i < rows.Len(); i++ {
			scan += rows.Dim() - rows.Obj(i).ObservedCount()
		}
		if got, want := ds.MissingRate(), float64(scan)/float64(rows.Len()*rows.Dim()); got != want {
			t.Fatalf("publish %d: carried missing rate %v, scan of the rows %v", k, got, want)
		}
	}
}
