package data

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sorted is a dataset with every dimension sorted once — the single pass the
// cold build is made of. Each dimension's sort yields its DimStats, its
// column of the flat rank table and its observed objects in ascending value
// order; the bitmap index peels its columns off Order, and the MaxScore
// queue is a suffix sum over Stats looked up through Ranks. Read-only once
// returned, and shared by everything built from it.
type Sorted struct {
	ds *Dataset
	// Stats[d] is what Dataset.Stats computes for dimension d.
	Stats []DimStats
	// Ranks is the value-rank table, flat with stride Dim: Ranks[i*dim+d] is
	// the index into Stats[d].Distinct of object i's value, -1 when missing.
	Ranks []int32
	// Order[d] lists the objects observed in dimension d by ascending value,
	// ties by ascending index: the objects of rank r are the
	// Stats[d].CountPerValue[r] entries behind those of the ranks below r.
	Order [][]int32
}

// Dataset returns the rows that were sorted.
func (s *Sorted) Dataset() *Dataset { return s.ds }

// SortDims sorts every dimension of the dataset — into the Sorted it returns;
// the rows stay where they are — the dimensions side by side (see
// ForEachDim). Each goroutine sorts in one scratch pair of its own, reused
// for every dimension it takes, so a dimension allocates only its Order. The
// result does not depend on how many run at once.
func (ds *Dataset) SortDims() *Sorted {
	n := len(ds.objs)
	s := &Sorted{
		ds:    ds,
		Stats: make([]DimStats, ds.dim),
		Ranks: make([]int32, n*ds.dim),
		Order: make([][]int32, ds.dim),
	}
	workers := min(ds.dim, runtime.GOMAXPROCS(0))
	scratch := make([][]RadixKey, workers) // worker w's keys, then its tmp
	forEachDim(ds.dim, workers, func(w, d int) {
		if scratch[w] == nil {
			scratch[w] = make([]RadixKey, 2*n)
		}
		s.Stats[d], s.Order[d] = ds.sortDim(d, s.Ranks, scratch[w][:n], scratch[w][n:])
	})
	rowsSorted.Add(int64(n))
	return s
}

// rowsSorted counts the rows every SortDims of the process has sorted — the
// observable behind "a sharded build sorts each row once".
var rowsSorted atomic.Int64

// RowsSorted returns the number of rows SortDims has sorted in this process
// so far.
func RowsSorted() int64 { return rowsSorted.Load() }

// ForEachDim calls fn(d) once for every d in [0, dim), on min(dim,
// GOMAXPROCS) goroutines — the caller's among them — and returns when every
// call has. Dimensions are independent in everything the cold build does, so
// fn writes slot d of whatever it fills and the output is the serial loop's.
func ForEachDim(dim int, fn func(d int)) {
	forEachDim(dim, min(dim, runtime.GOMAXPROCS(0)), func(_, d int) { fn(d) })
}

// forEachDim is ForEachDim on the given number of goroutines, which tells fn
// which of them runs it — w in [0, workers) — so state kept per goroutine
// needs no lock.
func forEachDim(dim, workers int, fn func(w, d int)) {
	var next atomic.Int32
	work := func(w int) {
		for d := int(next.Add(1)) - 1; d < dim; d = int(next.Add(1)) - 1 {
			fn(w, d)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// RadixKey is one entry of the radix kernel (RadixSort): an order-preserving
// integer key and the row that holds it — in SortDims an observed cell, the
// value's sortKey and its object.
type RadixKey struct {
	Key uint64
	Row int32
}

// sortKey maps a float64 to a uint64 that orders the same way: the sign bit
// is flipped on non-negative values and every bit on negative ones; keyValue
// maps it back. −0 takes +0's key: the two are one value to every comparison
// the library makes, so they share a rank, as they do in Stats.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v + 0) // −0 + 0 = +0
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func keyValue(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// sortDim sorts dimension d and reads everything the build needs off the
// sorted order in one walk: the distinct values and their counts, the missing
// count, column d of ranks (stride dim, -1 on the missing) and the objects in
// ascending order. keys and tmp are scratch of len(ds.objs) each. The pass
// that collects the observed cells also takes the AND and the OR of their
// keys, which name the bits on which some two keys differ — the only ones
// RadixSort passes over.
func (ds *Dataset) sortDim(d int, ranks []int32, keys, tmp []RadixKey) (DimStats, []int32) {
	n, dim := len(ds.objs), ds.dim
	m := 0
	and, or := ^uint64(0), uint64(0)
	for i := range ds.objs {
		o := &ds.objs[i]
		if !o.Observed(d) {
			ranks[i*dim+d] = -1
			continue
		}
		k := sortKey(o.Values[d])
		keys[m] = RadixKey{Key: k, Row: int32(i)}
		m++
		and &= k
		or |= k
	}
	st := DimStats{MissingCount: n - m}
	if m == 0 {
		return st, nil
	}
	keys = RadixSort(keys[:m], tmp[:m], and^or)
	order := make([]int32, m)
	for i := 0; i < m; {
		k := keys[i].Key
		r := int32(len(st.Distinct))
		j := i
		for ; j < m && keys[j].Key == k; j++ {
			id := keys[j].Row
			order[j] = id
			ranks[int(id)*dim+d] = r
		}
		st.Distinct = append(st.Distinct, keyValue(k))
		st.CountPerValue = append(st.CountPerValue, j-i)
		i = j
	}
	return st, order
}

// RadixSort sorts keys by Key, equal keys in the order given: a
// least-significant-digit radix sort with one counting pass and one scatter
// pass per digit, whose digits cover only the bits set in diff — the AND of
// the keys XOR their OR, which the caller takes in the pass that collects
// them. A digit is the radixBits bits from the lowest varying bit not yet
// sorted on, so a bit every key agrees on costs nothing: on the benchmark's
// 100-value integer dimensions the keys vary in bits 46–62, two digits where
// whole bytes took three, and continuous data takes six where bytes took
// eight. tmp is scratch of len(keys); the result is keys or tmp, whichever
// the last pass wrote.
func RadixSort(keys, tmp []RadixKey, diff uint64) []RadixKey {
	const mask = 1<<radixBits - 1
	for diff != 0 {
		shift := uint(bits.TrailingZeros64(diff))
		var at [1 << radixBits]int32
		for _, k := range keys {
			at[k.Key>>shift&mask]++
		}
		sum := int32(0)
		for v, c := range at {
			at[v], sum = sum, sum+c
		}
		for _, k := range keys {
			v := k.Key >> shift & mask
			tmp[at[v]] = k
			at[v]++
		}
		keys, tmp = tmp, keys
		diff &^= uint64(mask) << shift
	}
	return keys
}

// radixBits is RadixSort's digit width: 2,048 counters, 8 KiB, stay in the
// first-level cache beside the keys streaming through.
const radixBits = 11
