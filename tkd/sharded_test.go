package tkd

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitmapidx"
	"repro/internal/data"
	"repro/internal/shard"
)

// algorithms under crosscheck: the paper's five.
var shardCrosscheckAlgs = []struct {
	name string
	opts []Option
}{
	{"Naive", []Option{WithAlgorithm(Naive)}},
	{"ESB", []Option{WithAlgorithm(ESB)}},
	{"UBB", []Option{WithAlgorithm(UBB)}},
	{"BIG", []Option{WithAlgorithm(BIG)}},
	{"IBIG", []Option{WithAlgorithm(IBIG)}},
}

func assertSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d items, want %d", label, len(got.Items), len(want.Items))
	}
	for i := range want.Items {
		w, g := want.Items[i], got.Items[i]
		if w.Index != g.Index || w.ID != g.ID || w.Score != g.Score {
			t.Fatalf("%s: rank %d: got {%d %q %d}, want {%d %q %d}",
				label, i+1, g.Index, g.ID, g.Score, w.Index, w.ID, w.Score)
		}
	}
}

// TestShardedCrosscheck asserts that a sharded dataset returns
// byte-identical answers — identical objects, ranks and scores — to an
// unsharded one over the same rows (same generator seed), across all five
// algorithms and N = 1, 2, 4 shards, on both value distributions.
func TestShardedCrosscheck(t *testing.T) {
	datasets := map[string]func() *Dataset{
		"IND": func() *Dataset { return GenerateIND(900, 4, 30, 0.25, 42) },
		"AC":  func() *Dataset { return GenerateAC(700, 3, 25, 0.3, 43) },
	}
	for dname, mk := range datasets {
		ds := mk()
		for _, n := range []int{1, 2, 4} {
			sd, err := Shard(mk(), dname, WithShards(n))
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range shardCrosscheckAlgs {
				for _, k := range []int{1, 5, 16} {
					want, err := ds.TopK(k, alg.opts...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sd.TopK(k, alg.opts...)
					if err != nil {
						t.Fatalf("%s/%s n=%d k=%d: %v", dname, alg.name, n, k, err)
					}
					assertSameResult(t, fmt.Sprintf("%s/%s n=%d k=%d", dname, alg.name, n, k), want, got)
				}
			}
		}
	}
}

// TestShardedCrosscheckTies drives the rank-k tie case explicitly: a tiny
// value domain makes many objects share the k-th score. Every algorithm at
// every k from 1 to 64, over 2, 3 and 4 shards, must return the first k items
// of unsharded Naive's top-64.
func TestShardedCrosscheckTies(t *testing.T) {
	// Cardinality 3 over 600 objects: scores collide massively.
	mk := func() *Dataset { return GenerateIND(600, 3, 3, 0.35, 7) }
	ds := mk()
	oracle, err := ds.TopK(64, WithAlgorithm(Naive))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 4} {
		sd, err := Shard(mk(), "ties", WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range shardCrosscheckAlgs {
			for k := 1; k <= 64; k++ {
				got, err := sd.TopK(k, alg.opts...)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("ties/%s n=%d k=%d", alg.name, n, k), Result{Items: oracle.Items[:k]}, got)
			}
		}
	}
	// Sanity: confirm the fixture really does tie at the boundary.
	res, err := ds.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Items[len(res.Items)-1].Score
	tied := 0
	for i := 0; i < ds.Len(); i++ {
		if ds.Score(i) == last {
			tied++
		}
	}
	if tied < 2 {
		t.Fatalf("fixture has no tie at the k-th score (score %d held by %d objects); tighten the generator", last, tied)
	}
}

// TestShardedTauPushdown asserts the cross-shard pruning is observable: an
// IBIG run over enough data must prune at least one candidate through the
// pushed-down τ, and must have fanned out to every shard.
func TestShardedTauPushdown(t *testing.T) {
	// Anti-correlated data with a high missing rate keeps several hundred
	// candidates past Heuristic 1, so the query spans multiple windows and
	// the bounds phase runs with a live τ (the serial run prunes ~200 of
	// these through Heuristic 2).
	ds := GenerateAC(3000, 4, 20, 0.4, 9)
	sd, err := Shard(ds, "push", WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.TopK(16, WithAlgorithm(IBIG)); err != nil {
		t.Fatal(err)
	}
	m := sd.Metrics()
	if m.TauPushdowns == 0 {
		t.Fatalf("expected τ push-down prunes on an IBIG run, metrics: %+v", m)
	}
	if m.Fanout == 0 {
		t.Fatal("expected shard fan-out calls")
	}
	if len(m.PerShard) != 4 {
		t.Fatalf("expected 4 per-shard histograms, got %d", len(m.PerShard))
	}
	for s, h := range m.PerShard {
		if h.Count == 0 {
			t.Fatalf("shard %d observed no scatter calls", s)
		}
	}
}

// TestShardedHealthLoopsFollowThePublishedEpoch pins when a replica set's
// health loop may run. The peer serves whatever the dataset currently
// publishes — as a tkdserver that is its own peer does — and answers probes
// slowly, so probes are in flight across the swap. Neither set may end up
// quarantining the peer for serving the other's epoch: queries in flight on
// the retired epoch still reach it through the peer's one-epoch grace, and
// queries on the new one must not find every breaker open.
func TestShardedHealthLoopsFollowThePublishedEpoch(t *testing.T) {
	var d *Dataset
	peer := shard.NewPeer(func(string) (*data.Dataset, uint64, bool) { return d.ShardData(), d.Epoch(), true })
	mux := http.NewServeMux()
	mux.Handle("POST /v1/shard/query", peer)
	mux.HandleFunc("GET /v1/shard/health", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		peer.ServeHealth(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	opts := []ShardOption{WithShards(2), WithShardPeers(ts.URL), WithShardHealthChecks(time.Millisecond)}
	d, err := Shard(GenerateIND(300, 3, 12, 0.2, 5), "d", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.TopK(3); err != nil {
		t.Fatal(err)
	}
	// The replacement is sharded and prepared off to the side, as a server
	// reload does, so the swap itself builds the successor's set.
	next, err := Shard(GenerateIND(300, 3, 12, 0.2, 6), "d", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	next.Prepare()
	retired := d.current().shards.Load()
	allClosed := func(label string, ss *shardSet) {
		t.Helper()
		for i, b := range ss.backends {
			for r, st := range b.(*shard.ReplicaSet).States() {
				if st != shard.BreakerClosed {
					t.Errorf("%s set: shard %d replica %d is %v", label, i, r, st)
				}
			}
		}
	}
	time.Sleep(10 * time.Millisecond) // probes are flowing
	d.ReplaceFrom(next)
	published := d.current().shards.Load()
	allClosed("published", published)
	time.Sleep(20 * time.Millisecond) // anything in flight across the swap has landed
	allClosed("retired", retired)
	allClosed("published", published)
}

// TestShardedFollowsEpochs checks the shard set tracks the dataset's own
// mutations: append, query through the shards, answers match an unsharded
// dataset that took the same append.
func TestShardedFollowsEpochs(t *testing.T) {
	ds := GenerateIND(400, 3, 12, 0.2, 5)
	sd, err := Shard(GenerateIND(400, 3, 12, 0.2, 5), "epochs", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	before, err := sd.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "pre-mutation", want, before)

	for _, d := range []*Dataset{ds, sd} {
		if err := d.Append("late-arrival", 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	want, err = ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sd.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-append", want, got)
	found := false
	for _, it := range got.Items {
		if it.ID == "late-arrival" {
			found = true
		}
	}
	if !found {
		t.Fatal("the all-best appended object should enter the top-k")
	}
}

// TestShardedAppendRowsBuildsNoDatasetIndex: a sharded dataset's epoch holds
// no binned index of its own — the shards index their slices — so an
// append-publish there builds the shards' indexes and the coordinator's queue
// merged from them, patches nothing and says so, and the answers still match
// an unsharded dataset that took the same appends (and patched its index for
// them).
func TestShardedAppendRowsBuildsNoDatasetIndex(t *testing.T) {
	ds := GenerateIND(2000, 4, 30, 0.2, 5)
	sd, err := Shard(GenerateIND(2000, 4, 30, 0.2, 5), "append", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		rows := make([]Row, 5)
		for i := range rows {
			v := float64(batch*len(rows) + i)
			rows[i] = Row{ID: fmt.Sprintf("a%d-%d", batch, i), Values: []float64{v, Missing, 30 - v, v / 2}}
		}
		if _, err := ds.TopK(4); err != nil { // warm, so the unsharded side patches
			t.Fatal(err)
		}
		if patched, err := ds.AppendRows(rows); err != nil || !patched {
			t.Fatalf("batch %d unsharded: patched=%v err=%v", batch, patched, err)
		}
		patched, err := sd.AppendRows(rows)
		if err != nil || patched {
			t.Fatalf("batch %d sharded: patched=%v err=%v, want an unpatched publish", batch, patched, err)
		}
		if pre := sd.current().part.Built(); pre.Binned != nil || pre.Queue == nil {
			t.Fatalf("batch %d: the sharded epoch holds binned index %v, queue %v; want only the coordinator's queue", batch, pre.Binned != nil, pre.Queue != nil)
		}
		for _, k := range []int{1, 4, 9} {
			want, err := ds.TopK(k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sd.TopK(k)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("batch %d k=%d", batch, k), want, got)
		}
	}
}

// TestShardedBuildSortsEachRowOnce: a sharded epoch's queue is merged from
// its shards' sorted runs, so nothing sorts the epoch's rows as a whole. With
// every shard in-process, a boot's PrepareFor(IBIG) and a first IBIG query on
// an epoch nobody prepared each sort every row exactly once — in its shard's
// index build — and a UBB query, which indexes nothing, sorts each slice for
// the queue alone; with remote shards the coordinator sorts the slices their
// peers index. The merged queue is the unsharded dataset's, bound for bound.
func TestShardedBuildSortsEachRowOnce(t *testing.T) {
	const rows = 3000
	mk := func() *Dataset { return GenerateIND(rows, 4, 40, 0.2, 8) }
	plain := mk()
	wantRes, err := plain.TopK(9)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.current().part.Built().Queue

	var ref *Dataset
	peer := shard.NewPeer(func(string) (*data.Dataset, uint64, bool) { return ref.ShardData(), ref.Epoch(), true })
	ts := httptest.NewServer(peer)
	defer ts.Close()
	ref = mk()

	prepare := func(d *Dataset) error { d.PrepareFor(IBIG); return nil }
	query := func(opts ...Option) func(*Dataset) error {
		return func(d *Dataset) error { _, err := d.TopK(5, opts...); return err }
	}
	for _, tc := range []struct {
		name string
		opts []ShardOption
		warm func(*Dataset) error
		// then is what the IBIG query after the warm-up sorts: nothing once the
		// in-process shards are indexed, every row where they are not yet or
		// where the peer indexes its slices.
		then int64
	}{
		{"PrepareFor(IBIG), 3 shards", []ShardOption{WithShards(3)}, prepare, 0},
		{"cold IBIG query, 1 shard", []ShardOption{WithShards(1)}, query(), 0},
		{"cold IBIG query, 4 shards", []ShardOption{WithShards(4)}, query(), 0},
		{"cold UBB query, 2 shards", []ShardOption{WithShards(2)}, query(WithAlgorithm(UBB)), rows},
		{"PrepareFor(IBIG), 3 remote shards", []ShardOption{WithShards(3), WithShardPeers(ts.URL)}, prepare, rows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sd, err := Shard(mk(), "d", tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sd.Close()
			sd.current() // publish: sealing hashes rows, it sorts none
			before := data.RowsSorted()
			if err := tc.warm(sd); err != nil {
				t.Fatal(err)
			}
			if got := data.RowsSorted() - before; got != rows {
				t.Fatalf("the warm-up sorted %d rows, want each of the %d once", got, rows)
			}
			got := sd.current().part.Built().Queue
			if got == nil || !slices.Equal(got.Order, want.Order) || !slices.Equal(got.MaxScore, want.MaxScore) {
				t.Fatal("the merged queue is not the unsharded dataset's")
			}
			before = data.RowsSorted()
			res, err := sd.TopK(9)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, tc.name, wantRes, res)
			if got := data.RowsSorted() - before; got != tc.then {
				t.Fatalf("the IBIG query after the warm-up sorted %d rows, want %d", got, tc.then)
			}
		})
	}
}

// TestShardedConcurrentReload hammers queries against concurrent wholesale
// ReplaceFrom swaps — alternately from a plain source (the shard set
// rebuilds lazily) and from a sharded, prepared one (its warm shards carry
// over) — the race-clean contract. Run under -race.
func TestShardedConcurrentReload(t *testing.T) {
	mk := func() *Dataset { return GenerateIND(800, 4, 20, 0.25, 21) } // same seed: same answers
	sd, err := Shard(mk(), "reload", WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mk().TopK(6)
	if err != nil {
		t.Fatal(err)
	}
	plain := mk()
	warm, err := Shard(mk(), "reload", WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	warm.Prepare()

	var queriers, reloaders sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := sd.TopK(6)
				if err != nil {
					errs <- err
					return
				}
				for j := range want.Items {
					if got.Items[j] != want.Items[j] {
						errs <- fmt.Errorf("answer changed under reload at rank %d: %+v != %+v", j+1, got.Items[j], want.Items[j])
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		reloaders.Add(1)
		go func(g int) {
			defer reloaders.Done()
			for i := 0; i < 12; i++ {
				if (g+i)%2 == 0 {
					sd.ReplaceFrom(plain)
				} else {
					sd.ReplaceFrom(warm)
				}
			}
		}(g)
	}
	reloaders.Wait()
	close(stop)
	queriers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// A swap from the prepared source carries its shards' indexes: nothing
	// is left to build on the new epoch.
	sd.ReplaceFrom(warm)
	before := sd.IndexBuilds()
	if _, err := sd.TopK(6); err != nil {
		t.Fatal(err)
	}
	if built := sd.IndexBuilds() - before; built != 0 {
		t.Fatalf("query after a warm ReplaceFrom built %d shard indexes, want 0", built)
	}
}

// TestShardedIndexPersistRoundTrip saves every index part and restores it
// into a fresh sharded dataset over the same rows: zero rebuilds afterwards,
// and a stream from the wrong shard is rejected as stale (the stream's own
// rows-and-fingerprint header is the key). A BIG query, which builds the
// coordinator's value-granular bitmap, counts no build.
func TestShardedIndexPersistRoundTrip(t *testing.T) {
	ds := GenerateIND(500, 3, 15, 0.2, 31)
	sd, err := Shard(GenerateIND(500, 3, 15, 0.2, 31), "persist", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	sd.Prepare()
	if _, err := sd.TopK(5, WithAlgorithm(BIG)); err != nil {
		t.Fatal(err)
	}
	if sd.IndexBuilds() != 3 {
		t.Fatalf("expected 3 shard index builds, got %d", sd.IndexBuilds())
	}
	parts := sd.IndexParts()
	if len(parts) != 3 {
		t.Fatalf("expected 3 index parts, got %d", len(parts))
	}
	saved := make([]*bytes.Buffer, len(parts))
	for i, p := range parts {
		if want := fmt.Sprintf("%%shard-%d", i); p.Suffix != want {
			t.Fatalf("part %d suffix %q, want %q", i, p.Suffix, want)
		}
		saved[i] = &bytes.Buffer{}
		if err := p.Save(saved[i]); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := Shard(GenerateIND(500, 3, 15, 0.2, 31), "persist", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	freshParts := fresh.IndexParts()
	// Wrong shard's stream: rejected, shard unchanged.
	if _, err := freshParts[0].Load(bytes.NewReader(saved[1].Bytes())); !errors.Is(err, ErrIndexStale) {
		t.Fatalf("loading shard 1's index into shard 0: err = %v, want ErrIndexStale", err)
	}
	for i, p := range freshParts {
		if patched, err := p.Load(bytes.NewReader(saved[i].Bytes())); err != nil || patched != 0 {
			t.Fatalf("shard %d warm load: patched %d rows, err %v", i, patched, err)
		}
	}
	want, err := ds.TopK(7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.TopK(7)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "warm-restored", want, got)
	if fresh.IndexBuilds() != 0 {
		t.Fatalf("warm restart built %d indexes, want 0", fresh.IndexBuilds())
	}

	// More shards than rows: the zero-row shards have no part.
	tiny, err := Shard(GenerateIND(2, 3, 15, 0, 1), "tiny", WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tiny.IndexParts()); n != 2 {
		t.Fatalf("2 rows over 4 shards: %d index parts, want 2", n)
	}
	// An unsharded dataset is one part with no suffix.
	up := ds.IndexParts()
	if len(up) != 1 || up[0].Suffix != "" {
		t.Fatalf("unsharded parts = %+v", up)
	}
}

// TestTopologyAccessorsTotal: the shard accessors are total — an unsharded
// dataset answers 0 / zero / nil / no-op instead of needing a type switch —
// and the topology is set once.
func TestTopologyAccessorsTotal(t *testing.T) {
	ds := GenerateIND(200, 3, 10, 0.2, 3)
	if n := ds.Shards(); n != 0 {
		t.Fatalf("unsharded Shards() = %d, want 0", n)
	}
	if m := ds.Metrics(); m.Fanout != 0 || m.TauPushdowns != 0 || len(m.PerShard) != 0 {
		t.Fatalf("unsharded Metrics() = %+v, want zero", m)
	}
	if rs := ds.ReplicaStates(); rs != nil {
		t.Fatalf("unsharded ReplicaStates() = %v, want nil", rs)
	}
	ds.Close() // no-op
	if _, err := ds.TopK(3); err != nil {
		t.Fatalf("query after Close on an unsharded dataset: %v", err)
	}

	sd, err := Shard(ds, "once", WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if sd != ds {
		t.Fatal("Shard must return the dataset it was given")
	}
	if n := ds.Shards(); n != 1 {
		t.Fatalf("a 1-shard topology is still a topology: Shards() = %d, want 1", n)
	}
	if _, err := Shard(ds, "twice", WithShards(2)); err == nil {
		t.Fatal("a second Shard on the same dataset must fail")
	}
	if n := ds.Shards(); n != 1 {
		t.Fatalf("a rejected Shard changed the topology: Shards() = %d", n)
	}
	if _, err := Shard(GenerateIND(10, 2, 4, 0, 1), "zero", WithShards(0)); err == nil {
		t.Fatal("a zero-shard topology must fail")
	}
}

// binsPerDim reads an index's layout off its rows: the buckets in use.
func binsPerDim(ix *bitmapidx.Index) []int {
	ds := ix.Dataset()
	bins := make([]int, ds.Dim())
	for o := 0; o < ds.Len(); o++ {
		for d := range bins {
			bins[d] = max(bins[d], ix.Bucket(o, d)+1)
		}
	}
	return bins
}

// TestShardSlicesTakeDatasetLayout: a shard bins like the dataset it is a
// slice of. On the query-sharded benchmark shape every slice's serving index
// has the unsharded index's bin count in every dimension, so the candidates
// the coordinator scatters — the head of the global queue — sit in exact
// buckets on every slice and scoring them walks no row (under a slice's own
// N it walked 1,200,549); the three parts together weigh what the unsharded
// index weighs; and the coordinator's slice of a range and a peer's are the
// same bytes, because both are shard.NewLocal's (the peer's half of that is
// shard.TestPeerLocalIsNewLocal).
func TestShardSlicesTakeDatasetLayout(t *testing.T) {
	const shards = 3
	whole := GenerateIND(100_000, 5, 100, 0.2, 1)
	whole.PrepareFor(IBIG)
	wpre := whole.current().part.Built()
	want := binsPerDim(wpre.Binned)
	var wholeBytes bytes.Buffer
	if err := whole.SaveIndex(&wholeBytes); err != nil {
		t.Fatal(err)
	}

	sd, err := Shard(GenerateIND(100_000, 5, 100, 0.2, 1), "layout", WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	sd.PrepareFor(IBIG)
	parent := sd.current().ds
	walked, partBytes := 0, 0
	for i, b := range sd.current().shardSet().backends {
		l := b.(*shard.Local)
		ix := l.Built().Binned
		if got := binsPerDim(ix); !slices.Equal(got, want) {
			t.Errorf("shard %d takes %v bins per dimension, the unsharded index %v", i, got, want)
		}
		c := ix.NewCursor()
		for _, o := range wpre.Queue.Order[:410] {
			cand := parent.Obj(int(o))
			_, w, _ := c.ScoreForeign(cand.Values, cand.Mask, -1, bitmapidx.NoLimit)
			walked += w
		}
		var mine, peers bytes.Buffer
		if err := l.SaveServing(&mine); err != nil {
			t.Fatal(err)
		}
		lo, hi := i*parent.Len()/shards, (i+1)*parent.Len()/shards
		if err := shard.NewLocal(parent, lo, hi).SaveServing(&peers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mine.Bytes(), peers.Bytes()) {
			t.Errorf("shard %d: the topology's index of rows [%d, %d) and shard.NewLocal's differ (%d B, %d B)", i, lo, hi, mine.Len(), peers.Len())
		}
		partBytes += mine.Len()
	}
	if walked != 0 {
		t.Errorf("scoring the first 410 queue candidates walked %d rows over the slices, want 0", walked)
	}
	// What a part repeats of the whole is its header and rank→bucket maps; what
	// it rounds is each column up to a word.
	if slack := wholeBytes.Len() / 100; partBytes < wholeBytes.Len()-slack || partBytes > wholeBytes.Len()+slack {
		t.Errorf("the %d parts weigh %d B, the unsharded index %d B", shards, partBytes, wholeBytes.Len())
	}
	t.Logf("bins %v; parts %d B, unsharded %d B", want, partBytes, wholeBytes.Len())
}
