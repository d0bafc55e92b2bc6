package tkd_test

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/tkd"
)

// TestEpochAdvancesOnMutation pins the epoch counter semantics: queries
// publish epoch 1, every visible mutation publishes a fresh epoch, and
// queries between mutations share one.
func TestEpochAdvancesOnMutation(t *testing.T) {
	ds := tkd.GenerateIND(200, 3, 12, 0.2, 1)
	if got := ds.Epoch(); got != 0 {
		t.Fatalf("epoch before first use = %d, want 0", got)
	}
	if _, err := ds.TopK(3); err != nil {
		t.Fatal(err)
	}
	e1 := ds.Epoch()
	if e1 == 0 {
		t.Fatal("no epoch published by the first query")
	}
	if _, err := ds.TopK(4); err != nil {
		t.Fatal(err)
	}
	if got := ds.Epoch(); got != e1 {
		t.Fatalf("read-only query advanced the epoch: %d -> %d", e1, got)
	}
	if err := ds.Append("zzz", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.TopK(3); err != nil {
		t.Fatal(err)
	}
	if got := ds.Epoch(); got <= e1 {
		t.Fatalf("Append did not advance the epoch: still %d", got)
	}
}

// TestAppendWhileServing hammers TopK from several goroutines while another
// goroutine appends objects. Every answer must be internally consistent
// with SOME published epoch — we verify no panic, no error, and that scores
// are self-consistent by re-ranking (ranks strictly by descending score).
func TestAppendWhileServing(t *testing.T) {
	ds := tkd.GenerateAC(400, 4, 20, 0.25, 7)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				res, err := ds.TopK(3+(g+i)%4, tkd.WithAlgorithm(tkd.IBIG))
				if err != nil {
					t.Errorf("TopK under mutation: %v", err)
					return
				}
				for j := 1; j < len(res.Items); j++ {
					if res.Items[j].Score > res.Items[j-1].Score {
						t.Errorf("answer not score-ordered: %+v", res.Items)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 30; i++ {
		if err := ds.Append("new", float64(i%9), float64((i*3)%9), 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if ds.Len() != 430 {
		t.Fatalf("Len = %d after 30 appends over 400, want 430", ds.Len())
	}
}

// TestReplaceFromSwapsAtomically checks the hot-swap primitive: queries
// racing a ReplaceFrom must answer with either the old data's answer or
// the new data's answer, never an error and never a hybrid.
func TestReplaceFromSwapsAtomically(t *testing.T) {
	oldDS := tkd.GenerateIND(500, 4, 25, 0.2, 11)
	newDS := tkd.GenerateIND(700, 4, 30, 0.15, 23)
	target := tkd.GenerateIND(500, 4, 25, 0.2, 11) // same as oldDS

	const k = 6
	wantOld, err := oldDS.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	wantNew, err := newDS.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	target.Prepare()

	var wg sync.WaitGroup
	var swapped atomic.Bool
	results := make([][]tkd.Item, 64)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == len(results)/2 {
				// The swap itself, raced against the queries.
				replacement := tkd.GenerateIND(700, 4, 30, 0.15, 23)
				target.ReplaceFrom(replacement)
				swapped.Store(true)
				return
			}
			res, err := target.TopK(k)
			if err != nil {
				t.Errorf("TopK during swap: %v", err)
				return
			}
			results[g] = res.Items
		}(g)
	}
	wg.Wait()
	if !swapped.Load() {
		t.Fatal("swap goroutine never ran")
	}
	for g, items := range results {
		if items == nil {
			continue // the swapper's slot
		}
		if !reflect.DeepEqual(items, wantOld.Items) && !reflect.DeepEqual(items, wantNew.Items) {
			t.Errorf("goroutine %d: answer matches neither epoch:\n got %+v\n old %+v\n new %+v",
				g, items, wantOld.Items, wantNew.Items)
		}
	}
	// After the dust settles the new epoch must be authoritative.
	res, err := target.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Items, wantNew.Items) {
		t.Fatalf("post-swap answer = %+v, want %+v", res.Items, wantNew.Items)
	}
	if target.Len() != 700 || target.Fingerprint() != newDS.Fingerprint() {
		t.Fatalf("post-swap dataset is not the replacement: len=%d", target.Len())
	}
}

// TestReplaceFromCarriesWarmArtifacts: a replacement whose index was built
// (or loaded) off to the side must not be rebuilt after the swap; and a BIG
// query, which builds a value-granular bitmap, not a serving index, leaves
// IndexBuilds alone.
func TestReplaceFromCarriesWarmArtifacts(t *testing.T) {
	target := tkd.GenerateIND(200, 3, 15, 0.2, 3)
	target.Prepare()

	replacement := tkd.GenerateIND(300, 3, 18, 0.25, 5)
	replacement.Prepare() // index built off to the side
	builds := replacement.IndexBuilds()
	if builds == 0 {
		t.Fatal("Prepare built no binned index")
	}
	target.ReplaceFrom(replacement)
	if _, err := target.TopK(5); err != nil {
		t.Fatal(err)
	}
	// The target adopted the warm artifacts: no new build happened on
	// either dataset.
	if got := replacement.IndexBuilds(); got != builds {
		t.Fatalf("replacement rebuilt its index after the swap: %d -> %d", builds, got)
	}
	if got := target.IndexBuilds(); got != 1 {
		t.Fatalf("target built %d indexes, want just its own pre-swap one", got)
	}
	if _, err := target.TopK(5, tkd.WithAlgorithm(tkd.BIG)); err != nil {
		t.Fatal(err)
	}
	if got := target.IndexBuilds(); got != 1 {
		t.Fatalf("a BIG query moved IndexBuilds 1 -> %d", got)
	}
}

// TestLoadIndexCorruption pins the failure contract of LoadIndex: any
// corrupt stream returns an error, never panics, and leaves the dataset
// fully usable with its previous (or lazily rebuilt) index.
func TestLoadIndexCorruption(t *testing.T) {
	ds := tkd.GenerateIND(300, 4, 20, 0.2, 5)
	var buf bytes.Buffer
	if err := ds.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	corruptions := map[string][]byte{
		"empty":         {},
		"truncated":     valid[:len(valid)/2],
		"truncated-1":   valid[:len(valid)-1],
		"wrong-version": append([]byte{'T', 'K', 'D', 'I', 'X', 9}, valid[6:]...),
		"bit-flip-head": flipBit(valid, 9*8),
		"bit-flip-mid":  flipBit(valid, (len(valid)/2)*8),
		"bit-flip-tail": flipBit(valid, (len(valid)-2)*8),
		"garbage":       []byte("not an index at all, sorry"),
	}
	for name, blob := range corruptions {
		fresh := tkd.GenerateIND(300, 4, 20, 0.2, 5)
		if err := fresh.LoadIndex(bytes.NewReader(blob)); err == nil {
			t.Errorf("%s: corrupt index loaded without error", name)
			continue
		}
		// The dataset must still answer correctly after the failed load.
		res, err := fresh.TopK(5)
		if err != nil {
			t.Errorf("%s: TopK after failed load: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(res.Items, want.Items) {
			t.Errorf("%s: answer diverged after failed load", name)
		}
	}

	// Wrong-dataset load is also rejected.
	other := tkd.GenerateIND(300, 4, 20, 0.35, 99)
	if err := other.LoadIndex(bytes.NewReader(valid)); err == nil {
		t.Error("index for a different dataset loaded without error")
	}
}

func flipBit(b []byte, bit int) []byte {
	out := append([]byte(nil), b...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// TestFingerprintStability: equal contents hash equal, any visible change
// hashes differently.
func TestFingerprintStability(t *testing.T) {
	a := tkd.GenerateIND(150, 3, 10, 0.2, 4)
	b := tkd.GenerateIND(150, 3, 10, 0.2, 4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical datasets fingerprint differently")
	}
	if err := b.Append("extra", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("append did not change the fingerprint")
	}
	c := tkd.GenerateIND(150, 3, 10, 0.2, 5)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different datasets share a fingerprint")
	}
}

// TestFingerprintMemoized: the digest is computed once per epoch — a second
// call on a published dataset allocates (and hashes) nothing — and every
// kind of mutation still moves it to exactly what a fresh parse of the same
// rows reports, so no stale memo can survive a publish.
func TestFingerprintMemoized(t *testing.T) {
	ds := tkd.GenerateIND(10_000, 4, 40, 0.2, 6)
	ds.Fingerprint()
	if allocs := testing.AllocsPerRun(20, func() { ds.Fingerprint() }); allocs != 0 {
		t.Fatalf("second Fingerprint() on a published epoch: %v allocs/op, want 0", allocs)
	}
	// reparse round-trips ds through CSV into a fresh dataset whose memo is
	// necessarily cold.
	reparse := func() uint64 {
		t.Helper()
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := tkd.ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return fresh.Fingerprint()
	}
	steps := []struct {
		name   string
		mutate func()
	}{
		{"Append", func() {
			if err := ds.Append("extra", 1, 2, tkd.Missing, 4); err != nil {
				t.Fatal(err)
			}
		}},
		{"Negate", ds.Negate},
		{"ReplaceFrom", func() { ds.ReplaceFrom(tkd.GenerateIND(300, 4, 40, 0.2, 7)) }},
		{"AppendRows", func() {
			if _, err := ds.AppendRows([]tkd.Row{{ID: "r1", Values: []float64{3, 1, 4, 1}}, {ID: "r2", Values: []float64{tkd.Missing, 5, 9, 2}}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"AppendRows (patched)", func() {
			ds.PrepareFor(tkd.IBIG)
			patched, err := ds.AppendRows([]tkd.Row{{ID: "r3", Values: []float64{6, 5, 3, 5}}})
			if err != nil || !patched {
				t.Fatalf("patched=%v err=%v", patched, err)
			}
		}},
	}
	for _, st := range steps {
		before := ds.Fingerprint()
		st.mutate()
		got := ds.Fingerprint()
		if got == before {
			t.Fatalf("%s did not change the fingerprint", st.name)
		}
		if want := reparse(); got != want {
			t.Fatalf("%s: fingerprint %016x, a fresh ReadCSV of the same rows reports %016x", st.name, got, want)
		}
	}
}

// TestFingerprintFoldsOnce: publishing a freshly parsed dataset folds none of
// its rows; the epoch folds them on the first Fingerprint, once, however many
// readers race to it and though an append-publish extends the epoch
// meanwhile (the extension needs the base's chain too), and the
// append-publish folds its batch alone: N + batch rows in all, and every
// reader gets the digest a fresh parse of the rows has. Each round races
// eight readers and an AppendRows; in the first the append starts once one
// reader has its digest, so the readers fold before the extension does, and
// in the second it has returned before any reader starts, so the extension
// folds first.
func TestFingerprintFoldsOnce(t *testing.T) {
	const readers = 8
	var csv bytes.Buffer
	if err := tkd.GenerateIND(3000, 4, 40, 0.2, 9).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	parse := func() *tkd.Dataset {
		t.Helper()
		ds, err := tkd.ParseCSV(csv.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	want := parse().Fingerprint()
	batch := []tkd.Row{{ID: "x", Values: []float64{1, 2, tkd.Missing, 4}}, {ID: "y", Values: []float64{tkd.Missing, 3, 3, 3}}}

	for _, readersFirst := range []bool{true, false} {
		ds := parse()
		hashed := data.RowsHashed()
		epoch := ds.ShardData() // published, and nothing has read its fingerprint
		if n := data.RowsHashed() - hashed; n != 0 {
			t.Fatalf("publishing a parsed dataset folded %d rows, want 0", n)
		}
		appendRows := func() {
			if _, err := ds.AppendRows(batch); err != nil {
				t.Error(err)
			}
		}
		if !readersFirst {
			appendRows()
		}
		got := make([]uint64, readers)
		start, first := make(chan struct{}), make(chan struct{})
		var once sync.Once
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = epoch.Fingerprint()
				once.Do(func() { close(first) })
			}()
		}
		close(start)
		if readersFirst {
			<-first
			appendRows()
		}
		wg.Wait()
		for i, fp := range got {
			if fp != want {
				t.Fatalf("readersFirst=%v: reader %d read %016x, a fresh parse hashes to %016x", readersFirst, i, fp, want)
			}
		}
		if fp := epoch.Fingerprint(); fp != want {
			t.Fatalf("readersFirst=%v: a later read gives %016x, want %016x", readersFirst, fp, want)
		}
		ds.Fingerprint() // the appended epoch's: the batch was folded at its publish
		if n, wantN := data.RowsHashed()-hashed, int64(epoch.Len()+len(batch)); n != wantN {
			t.Fatalf("readersFirst=%v: %d readers and an append-publish folded %d rows, want N + batch = %d", readersFirst, readers, n, wantN)
		}
	}
}
