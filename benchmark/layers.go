package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/tkd"
)

// The per-layer half of a traced run: direct calls into each layer's public
// functions on the inputs the server was just given, each inside a span of
// the benchmark's own trace. Every timing is the median of a few calls;
// every count comes from single-threaded calls and repeats exactly.

// measured collects metric values by name with the number of samples behind
// each.
type measured map[string]value

func (m measured) set(name string, v float64, samples int) {
	m[name] = value{Name: name, Value: v, Samples: samples}
}

// timeMedian runs fn n times, each under a span, and sets metric to the
// median duration in ms.
func (m measured) timeMedian(rec *recorder, metric, span string, n int, fn func() error) error {
	xs := make([]float64, n)
	for i := range xs {
		var err error
		xs[i] = ms(rec.timed(span, func() { err = fn() }))
		if err != nil {
			return fmt.Errorf("%s: %w", span, err)
		}
	}
	m.set(metric, median(xs), n)
	return nil
}

// layers times the direct calls into every layer and adds their metrics to m.
func layers(w workload, in *inputs, rec *recorder, dir string, m measured) error {
	// How many rows the served part of the run drew depends on its timing;
	// the direct calls restart the row stream so their byte counts repeat.
	in.rng, in.next = rand.New(rand.NewSource(in.seed)), 0
	steps := []func(workload, *inputs, *recorder, string, measured) error{
		dataLayer, indexLayer, coreLayer, shardLayer, walLayer, tkdLayer,
	}
	for _, step := range steps {
		if err := step(w, in, rec, dir, m); err != nil {
			return err
		}
	}
	return nil
}

// freshDataset parses the run's CSV into a dataset nothing has touched.
func freshDataset(in *inputs) (*tkd.Dataset, error) {
	return tkd.ReadCSV(bytes.NewReader(in.csv))
}

func dataLayer(w workload, in *inputs, rec *recorder, dir string, m measured) error {
	var parsed []*data.Dataset
	err := m.timeMedian(rec, "data.read_csv_ms", "data.ReadCSV", 3, func() error {
		ds, err := data.ReadCSV(bytes.NewReader(in.csv))
		parsed = append(parsed, ds)
		return err
	})
	if err != nil {
		return err
	}
	m.set("data.csv_bytes", float64(len(in.csv)), 1)
	i := 0
	return m.timeMedian(rec, "data.fingerprint_ms", "data.Fingerprint", len(parsed), func() error {
		parsed[i].Fingerprint()
		i++
		return nil
	})
}

func indexLayer(w workload, in *inputs, rec *recorder, dir string, m measured) error {
	var ds *tkd.Dataset
	fresh := func() (err error) {
		ds, err = freshDataset(in)
		return err
	}
	var build, load []float64
	for i := 0; i < 3; i++ {
		if err := fresh(); err != nil {
			return err
		}
		build = append(build, ms(rec.timed("tkd.PrepareFor(IBIG)", func() { ds.PrepareFor(tkd.IBIG) })))
	}
	m.set("bitmapidx.build_ms", median(build), len(build))

	var saved bytes.Buffer
	err := m.timeMedian(rec, "bitmapidx.save_ms", "tkd.SaveIndex", 3, func() error {
		saved.Reset()
		return ds.SaveIndex(&saved)
	})
	if err != nil {
		return err
	}
	m.set("bitmapidx.index_bytes", float64(saved.Len()), 1)
	m.set("bitmapidx.bytes_per_row", float64(saved.Len())/float64(w.n), 1)

	for i := 0; i < 3; i++ {
		if err := fresh(); err != nil {
			return err
		}
		var err error
		load = append(load, ms(rec.timed("tkd.LoadIndex", func() { err = ds.LoadIndex(bytes.NewReader(saved.Bytes())) })))
		if err != nil {
			return fmt.Errorf("tkd.LoadIndex: %w", err)
		}
	}
	m.set("bitmapidx.load_ms", median(load), len(load))
	return nil
}

// cycle is the workload's whole key set, both connections', in seeded order.
func cycle(in *inputs) []int { return append(append([]int(nil), in.ks[0]...), in.ks[1]...) }

// topkCycle runs the key cycle rounds times through topk and returns the
// per-query latencies in ms and the summed work counters.
func topkCycle(rec *recorder, span string, ks []int, rounds int, topk func(k int, opts ...tkd.Option) (tkd.Result, error), opts ...tkd.Option) ([]float64, tkd.Stats, error) {
	var lat []float64
	var total tkd.Stats
	for r := 0; r < rounds; r++ {
		for _, k := range ks {
			var st tkd.Stats
			var err error
			lat = append(lat, ms(rec.timed(span, func() {
				_, err = topk(k, append([]tkd.Option{tkd.WithStats(&st)}, opts...)...)
			})))
			if err != nil {
				return nil, total, fmt.Errorf("%s k=%d: %w", span, k, err)
			}
			total.Add(st)
		}
	}
	return lat, total, nil
}

// smallCacheBudget sits below the ≈6 MB of decompressed columns the 100k-row
// key cycle touches; the default 32 MiB budget holds them all.
const smallCacheBudget = 1 << 20

func coreLayer(w workload, in *inputs, rec *recorder, dir string, m measured) error {
	ds, err := freshDataset(in)
	if err != nil {
		return err
	}
	ds.Prepare()
	ks := cycle(in)
	pass := func(metric, span string, ks []int, rounds int, opts ...tkd.Option) (tkd.Stats, int, error) {
		lat, st, err := topkCycle(rec, span, ks, rounds, ds.TopK, opts...)
		m.set(metric, median(lat), len(lat))
		return st, len(lat), err
	}

	// One untimed pass fills the column cache, as the served warm-up does.
	if _, _, err := topkCycle(nil, "", ks, 1, ds.TopK); err != nil {
		return err
	}
	before := ds.CacheStats()
	st, q, err := pass("core.ibig_ms_p50", "tkd.TopK(IBIG)", ks, 2)
	if err != nil {
		return err
	}
	after := ds.CacheStats()
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	m.set("bitmapidx.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	perQuery := func(name string, total int64) { m.set(name, float64(total)/float64(q), q) }
	perQuery("core.candidates", int64(st.Candidates))
	perQuery("core.scored", int64(st.Scored))
	perQuery("core.comparisons", st.Comparisons)
	perQuery("core.pruned_h1", int64(st.PrunedH1))
	perQuery("core.pruned_h2", int64(st.PrunedH2))
	perQuery("core.pruned_h3", int64(st.PrunedH3))

	if _, _, err = pass("core.big_ms_p50", "tkd.TopK(BIG)", ks, 1, tkd.WithAlgorithm(tkd.BIG)); err != nil {
		return err
	}
	if _, _, err = pass("core.ubb_ms_p50", "tkd.TopK(UBB)", []int{8}, 3, tkd.WithAlgorithm(tkd.UBB)); err != nil {
		return err
	}
	if _, _, err = pass("core.workers1_ms_p50", "tkd.TopK(workers=1)", ks, 1, tkd.WithWorkers(1)); err != nil {
		return err
	}
	if st, q, err = pass("core.workers2_ms_p50", "tkd.TopK(workers=2)", ks, 2, tkd.WithWorkers(2)); err != nil {
		return err
	}
	perQuery("core.windows", int64(st.Windows))

	ds.SetCacheBudget(smallCacheBudget)
	_, _, err = pass("core.ibig_smallcache_ms_p50", "tkd.TopK(small cache)", ks, 2)
	return err
}

// benchShards matches the query-sharded server's -shards.
const benchShards = 3

func shardLayer(w workload, in *inputs, rec *recorder, dir string, m measured) error {
	ds, err := freshDataset(in)
	if err != nil {
		return err
	}
	sd, err := tkd.Shard(ds, "d", tkd.WithShards(benchShards))
	if err != nil {
		return err
	}
	defer sd.Close()
	sd.Prepare()
	ks := cycle(in)
	if _, _, err := topkCycle(nil, "", ks, 1, sd.TopK); err != nil {
		return err
	}

	// Each call carries a production trace, so the coordinator's own scatter
	// (bounds phase) and gather (exact phase) spans can be summed per query.
	// Most queries skip the bounds phase, hence means and not medians.
	before := sd.Metrics()
	var lat, scatter, gather []float64
	for _, k := range ks {
		tr := obs.New("bench")
		var err error
		lat = append(lat, ms(rec.timed("tkd.ShardedDataset.TopK", func() {
			_, err = sd.TopK(k, tkd.WithTrace(tr.Root()))
		})))
		if err != nil {
			return err
		}
		tr.Root().End()
		var s, g time.Duration
		tr.Walk(func(sp *obs.Span) {
			switch sp.Name() {
			case "scatter":
				s += sp.Duration()
			case "gather":
				g += sp.Duration()
			}
		})
		scatter = append(scatter, ms(s))
		gather = append(gather, ms(g))
	}
	after := sd.Metrics()
	q := len(ks)
	m.set("shard.topk_ms_p50", median(lat), q)
	m.set("shard.overhead_ratio", ratio(median(lat), m["core.ibig_ms_p50"].Value), q)
	m.set("shard.fanout_per_query", float64(after.Fanout-before.Fanout)/float64(q), q)
	m.set("shard.tau_pushdowns_per_query", float64(after.TauPushdowns-before.TauPushdowns)/float64(q), q)
	m.set("shard.scatter_ms_mean", mean(scatter), q)
	m.set("shard.gather_ms_mean", mean(gather), q)
	return nil
}

// walRows is the log length wal.replay_ms re-opens.
const walRows = 5000

func walLayer(w workload, in *inputs, rec *recorder, dir string, m measured) error {
	rows := make([]wal.Row, 0, walRows)
	for len(rows) < walRows {
		for _, r := range in.nextRows(w) {
			rows = append(rows, wal.Row{ID: r.ID, Values: r.Values})
		}
	}
	// appendAll logs rows one by one under policy and sets metric to the
	// median AppendRow time in µs.
	appendAll := func(metric, dir string, policy wal.Policy, rows []wal.Row) (fsyncs int64, err error) {
		l, _, err := wal.Open(dir, wal.Options{Policy: policy})
		if err != nil {
			return 0, err
		}
		lat := make([]float64, len(rows))
		for i, r := range rows {
			lat[i] = us(rec.timed("wal.AppendRow(fsync "+policy.String()+")", func() { err = l.AppendRow(r) }))
			if err != nil {
				l.Close()
				return 0, err
			}
		}
		m.set(metric, median(lat), len(lat))
		return l.Fsyncs(), l.Close()
	}

	const batches = 10
	fsyncs, err := appendAll("wal.append_sync_us", filepath.Join(dir, "wal-sync"), wal.SyncAlways, rows[:batches*appendBatch])
	if err != nil {
		return err
	}
	m.set("wal.fsyncs_per_batch", float64(fsyncs)/batches, batches)

	lazyDir := filepath.Join(dir, "wal-none")
	if _, err := appendAll("wal.append_nosync_us", lazyDir, wal.SyncNone, rows); err != nil {
		return err
	}
	segs, err := filepath.Glob(filepath.Join(lazyDir, "*.seg"))
	if err != nil {
		return err
	}
	var size int64
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	m.set("wal.bytes_per_row", float64(size)/walRows, walRows)

	return m.timeMedian(rec, "wal.replay_ms", "wal.Open(replay)", 3, func() error {
		l, rcv, err := wal.Open(lazyDir, wal.Options{Policy: wal.SyncNone})
		if err != nil {
			return err
		}
		if len(rcv.Rows) != walRows {
			l.Close()
			return fmt.Errorf("replayed %d rows, want %d", len(rcv.Rows), walRows)
		}
		return l.Close()
	})
}

// tkdLayer measures the leader's side of a publish and what a follower pays
// per epoch. A follower process next to the server and the load generator
// would measure the scheduler of a 2-core machine, so the replication path
// is timed here, by direct calls.
func tkdLayer(w workload, in *inputs, rec *recorder, dir string, m measured) error {
	leader, err := freshDataset(in)
	if err != nil {
		return err
	}
	leader.PrepareFor(tkd.IBIG)

	var full bytes.Buffer
	err = m.timeMedian(rec, "tkd.epoch_export_ms", "tkd.EpochExport.Write", 3, func() error {
		full.Reset()
		return leader.ExportEpoch().Write(&full, true)
	})
	if err != nil {
		return err
	}
	m.set("tkd.epoch_bytes", float64(full.Len()), 1)
	var imported *tkd.Dataset
	var epoch uint64
	err = m.timeMedian(rec, "tkd.epoch_import_ms", "tkd.ImportEpoch", 3, func() (err error) {
		imported, epoch, err = tkd.ImportEpoch(bytes.NewReader(full.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	follower := tkd.NewDataset(w.dim)
	follower.ReplaceFromAt(imported, epoch)

	const publishes = 10
	var appendMS, exportMS, applyMS []float64
	patched, deltaBytes := 0, 0
	for i := 0; i < publishes; i++ {
		haveEpoch, haveFP := follower.Epoch(), follower.Fingerprint()
		rows := in.nextRows(w)
		var ok bool
		appendMS = append(appendMS, ms(rec.timed("tkd.AppendRows", func() { ok, err = leader.AppendRows(rows) })))
		if err != nil {
			return fmt.Errorf("tkd.AppendRows: %w", err)
		}
		if ok {
			patched++
		}
		x, ok := leader.ExportEpochDelta(haveEpoch, haveFP)
		if !ok {
			return fmt.Errorf("no delta from epoch %d to %d", haveEpoch, leader.Epoch())
		}
		var delta bytes.Buffer
		exportMS = append(exportMS, ms(rec.timed("tkd.EpochDeltaExport.Write", func() { err = x.Write(&delta) })))
		if err != nil {
			return fmt.Errorf("tkd.EpochDeltaExport.Write: %w", err)
		}
		deltaBytes += delta.Len()
		applyMS = append(applyMS, ms(rec.timed("tkd.ApplyEpochDelta", func() {
			var parsed *tkd.EpochDelta
			if parsed, err = tkd.ReadEpochDelta(&delta); err == nil {
				_, err = follower.ApplyEpochDelta(parsed)
			}
		})))
		if err != nil {
			return fmt.Errorf("tkd.ApplyEpochDelta: %w", err)
		}
	}
	if follower.Fingerprint() != leader.Fingerprint() {
		return fmt.Errorf("follower diverged from leader after %d deltas", publishes)
	}
	m.set("tkd.append_rows_ms", median(appendMS), publishes)
	m.set("tkd.patched_ratio", float64(patched)/publishes, publishes)
	m.set("tkd.delta_export_ms", median(exportMS), publishes)
	m.set("tkd.delta_apply_ms", median(applyMS), publishes)
	m.set("tkd.delta_bytes_per_row", float64(deltaBytes)/(publishes*appendBatch), publishes*appendBatch)

	// The publish the delta path replaces: fold the rows, rebuild the index.
	return m.timeMedian(rec, "tkd.rebuild_publish_ms", "tkd.Append+PrepareFor", 3, func() error {
		for _, r := range in.nextRows(w) {
			if err := leader.Append(r.ID, r.Values...); err != nil {
				return err
			}
		}
		leader.PrepareFor(tkd.IBIG)
		return nil
	})
}
