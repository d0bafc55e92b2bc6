// Benchmarks of the mechanisms this repo adds around the paper: the parallel
// engine, the kernels it sits on, tracing, the sharded plan, incremental
// publish and a cold boot. BENCH_baseline.json and CI gate most of them. The
// paper's own artifacts (Figs. 10–18, Tables 3–4) and the design ablations
// are reproduced by internal/experiments alone: `go run ./cmd/benchrunner
// -list` names them.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/tkd"
)

// BenchmarkParallelIBIG compares the serial loop against the batch-windowed
// parallel engine on IBIG at n ∈ {10k, 100k}, d = 6, for both synthetic
// distributions — the headline numbers of the parallel engine — and on the
// served shape: the benchmark's query-heavy dataset (IND 100000×5,
// cardinality 100, σ = 0.2) over the serving index a tkdserver builds. The
// speedup ceiling is GOMAXPROCS; on a single-core host every worker count
// collapses onto the serial path's time plus a small fan-out overhead.
func BenchmarkParallelIBIG(b *testing.B) {
	run := func(name string, ds *data.Dataset, binned *bitmapidx.Index) {
		pre := &core.Pre{Queue: core.BuildMaxScoreQueue(ds), Binned: binned}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.RunWorkers(core.AlgIBIG, ds, 16, pre, workers)
				}
			})
		}
	}
	for _, dist := range []gen.Distribution{gen.IND, gen.AC} {
		for _, n := range []int{10_000, 100_000} {
			cfg := gen.Default(dist, 77)
			cfg.N = n
			cfg.Dim = 6
			ds := gen.Synthetic(cfg)
			run(fmt.Sprintf("%s/n%d", dist, n), ds, bitmapidx.Build(ds, bitmapidx.Options{
				Bins: []int{core.OptimalBins(n, ds.MissingRate())},
			}))
		}
	}
	served := gen.Synthetic(gen.Config{N: 100_000, Dim: 5, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 1})
	run("served/n100000", served, core.BuildServingIndex(served.SortDims(), nil))
}

// BenchmarkTraceOverhead pins the cost of the obs instrumentation points the
// engine hot path runs per batch window: extract the span from a
// context, open a child, stamp two attributes and a τ sample, close it.
//
//	off — tracing disabled (no span in the context): the per-window sequence
//	      must stay allocation-free, which is what lets every engine call the
//	      span API unconditionally. Gated at 0 allocs/op by benchdiff.
//	on  — a live trace, measuring what an explain query actually pays.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			sp := obs.SpanFromContext(ctx)
			w := sp.StartChild("window")
			w.SetInt("window", int64(i))
			w.SetInt("candidates", 64)
			sp.SampleTau(i, 42)
			w.End()
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := obs.New("query")
			ctx := obs.ContextWithSpan(context.Background(), tr.Root())
			sp := obs.SpanFromContext(ctx)
			w := sp.StartChild("window")
			w.SetInt("window", int64(i))
			w.SetInt("candidates", 64)
			sp.SampleTau(i, 42)
			w.End()
			tr.Root().End()
		}
	})
	// Whole-engine flavor: one UBB query over a small dataset with tracing
	// off — the nil-span checks ride inside the measured region, so a
	// regression that sneaks allocations into the disabled path moves this
	// number too.
	cfg := gen.Default(gen.IND, 99)
	cfg.N = 300
	ds := gen.Synthetic(cfg)
	queue := core.BuildMaxScoreQueue(ds)
	pre := &core.Pre{Queue: queue}
	b.Run("engine-off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.RunContext(context.Background(), core.AlgUBB, ds, 8, pre, 1, nil)
		}
	})
}

// BenchmarkFusedKernels isolates the word-level bitvec kernels the serial
// and parallel engines sit on: the multi-way popcount cascade vs the
// materializing AND chain, the threshold-aware early exit, and the fused
// Q/P computation through the index cursor.
func BenchmarkFusedKernels(b *testing.B) {
	const nbits = 100_000
	cols := make([]*bitvec.Vector, 6)
	for i := range cols {
		cols[i] = bitvec.New(nbits)
		for j := i; j < nbits; j += 2 + i {
			cols[i].Set(j)
		}
	}
	b.Run("IntersectAllCount", func(b *testing.B) { // materializing baseline
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bitvec.IntersectAll(cols...).Count()
		}
	})
	b.Run("IntersectCount", func(b *testing.B) { // fused cascade
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bitvec.IntersectCount(cols...)
		}
	})
	b.Run("IntersectCountAbove/highTau", func(b *testing.B) { // early exit path
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bitvec.IntersectCountAbove(nbits, cols...)
		}
	})
	b.Run("And2Into", func(b *testing.B) {
		dst := bitvec.New(nbits)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bitvec.And2Into(dst, cols[0], cols[1])
		}
	})

	ds := gen.Synthetic(gen.Config{N: 20_000, Dim: 6, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 9})
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{16}})
	cur := ix.NewCursor()
	b.Run("Cursor/QP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur.QP(i % ds.Len())
		}
	})
	b.Run("Cursor/MaxBitScore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur.MaxBitScore(i % ds.Len())
		}
	})
	b.Run("Cursor/MaxBitScoreAbove", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur.MaxBitScoreAbove(i%ds.Len(), ds.Len()/2)
		}
	})
}

// BenchmarkCompressedKernels times IBIG on the many-masks shape. (The name
// is the row's key in BENCH_baseline.json; the compressed kernels it was
// named for are gone, and every serving column is dense.)
func BenchmarkCompressedKernels(b *testing.B) {
	// The many-masks shape: 3,700 rows over 60 dimensions at σ = 0.95 hold
	// 2,873 distinct masks, every row passes Heuristic 1, and Heuristic 2's
	// |F(o)| is asked 3,700 times a query — the gate on what that costs.
	ml := gen.MovieLens(1)
	mlPre := core.Preprocess(ml, nil)
	b.Run("IBIG/movielens", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.IBIG(ml, 16, mlPre.Binned, mlPre.Queue)
		}
	})
}

// BenchmarkShardedTopK times the in-process sharded plan end to end on the
// served benchmark's query-sharded shape — IND 100000×5, cardinality 100,
// σ = 0.2 behind three shards, warm — one query an op, cycling the nine k
// values that workload's two clients send.
func BenchmarkShardedTopK(b *testing.B) {
	ds, err := tkd.Shard(tkd.GenerateIND(100_000, 5, 100, 0.2, 1), "bench", tkd.WithShards(3))
	if err != nil {
		b.Fatal(err)
	}
	ds.PrepareFor(tkd.IBIG)
	ks := []int{4, 8, 16, 32, 64, 6, 12, 24, 48}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.TopK(ks[i%len(ks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaPublish measures the incremental publish path against the
// rebuild it replaces: folding a 64-row append into a warm 20k-row dataset
// by patching the binned index and re-deriving the MaxScore queue, vs
// appending and rebuilding both artifacts from scratch. The benchdiff gate
// holds the delta path to its budget, and the 200k-row case beside the 20k
// one shows what of it still grows with N: the rows, their fingerprint and
// the rank table extend in O(batch); the MaxScore queue (O(N·d), inherent —
// see DESIGN.md §2) and the column extension (a copy of each column) do not.
func BenchmarkDeltaPublish(b *testing.B) {
	const n, dim, card, batch = 20_000, 5, 64, 64
	mkRows := func(seed int64) []tkd.Row {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]tkd.Row, batch)
		for i := range rows {
			vals := make([]float64, dim)
			for d := range vals {
				vals[d] = float64(rng.Intn(card))
			}
			rows[i] = tkd.Row{ID: fmt.Sprintf("d%d-%d", seed, i), Values: vals}
		}
		return rows
	}
	mkN := func(n int) *tkd.Dataset {
		ds := tkd.GenerateIND(n, dim, card, 0.02, 31)
		ds.PrepareFor(tkd.IBIG)
		return ds
	}
	mk := func() *tkd.Dataset { return mkN(n) }
	delta := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			b.StopTimer()
			ds := mkN(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%64 == 0 {
					ds = mkN(n) // keep the base near n rows
				}
				rows := mkRows(int64(i))
				b.StartTimer()
				patched, err := ds.AppendRows(rows)
				b.StopTimer()
				if err != nil || !patched {
					b.Fatalf("patched=%v err=%v", patched, err)
				}
			}
		}
	}
	b.Run("delta", delta(n))
	b.Run("delta200k", delta(10*n))
	b.Run("rebuild", func(b *testing.B) {
		b.StopTimer()
		ds := mk()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%64 == 0 {
				ds = mk()
			}
			rows := mkRows(int64(i))
			b.StartTimer()
			for _, r := range rows {
				if err := ds.Append(r.ID, r.Values...); err != nil {
					b.Fatal(err)
				}
			}
			ds.PrepareFor(tkd.IBIG)
			b.StopTimer()
		}
	})
}

// BenchmarkColdPrepare times what a server pays before its first answer, at
// the served benchmark's scale (100 k × 5 IND, 100 values per dimension, 20 %
// missing — the query-heavy CSV): parse is ParseCSV over the file's bytes,
// what a boot runs once os.ReadFile has them, and the scanner's path since
// the file quotes nothing; parse-quoted is ParseCSV of the same rows under
// IDs that WriteCSV must quote, the encoding/csv path; sort is SortDims alone,
// the one sort per dimension a cold build is made of; prepare is the cold
// build on freshly parsed rows, their fingerprint fold first — an epoch folds
// on first read, which a boot pays in the load or, cold, in the background
// index write, so the fold is timed here to keep the row comparable with one
// that folded at publish — then PrepareFor(IBIG): the sort, the serving index
// peeled off it, the MaxScore queue derived from the index;
// sharded is the same build behind -shards 3 in one process — three slices
// indexed side by side, the coordinator's queue merged from their sorted runs;
// warm is a restart over a persisted index, LoadIndex plus the queue.
func BenchmarkColdPrepare(b *testing.B) {
	src := tkd.GenerateIND(100_000, 5, 100, 0.2, 1)
	quoted := tkd.NewDataset(src.Dim())
	vals := make([]float64, src.Dim())
	for i := 0; i < src.Len(); i++ {
		for d := range vals {
			v, ok := src.Value(i, d)
			if !ok {
				v = tkd.Missing
			}
			vals[d] = v
		}
		if err := quoted.Append(src.ID(i)+",q", vals...); err != nil {
			b.Fatal(err)
		}
	}
	var csv, quotedCSV, idx bytes.Buffer
	if err := src.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	if err := quoted.WriteCSV(&quotedCSV); err != nil {
		b.Fatal(err)
	}
	if err := src.SaveIndex(&idx); err != nil {
		b.Fatal(err)
	}
	parseText := func(b *testing.B, text []byte) *tkd.Dataset {
		ds, err := tkd.ParseCSV(text)
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	parse := func(b *testing.B) *tkd.Dataset { return parseText(b, csv.Bytes()) }
	for _, tc := range []struct {
		name string
		text []byte
	}{{"parse", csv.Bytes()}, {"parse-quoted", quotedCSV.Bytes()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseText(b, tc.text)
			}
		})
	}
	b.Run("sort", func(b *testing.B) {
		rows := parse(b).ShardData()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows.SortDims()
		}
	})
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds := parse(b)
			b.StartTimer()
			ds.Fingerprint()
			ds.PrepareFor(tkd.IBIG)
		}
	})
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds, err := tkd.Shard(parse(b), "d", tkd.WithShards(3))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			ds.PrepareFor(tkd.IBIG)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds := parse(b)
			b.StartTimer()
			if err := ds.LoadIndex(bytes.NewReader(idx.Bytes())); err != nil {
				b.Fatal(err)
			}
			ds.PrepareFor(tkd.IBIG)
		}
	})
}
