package data

import (
	"math"
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
// ForEachDim). The result does not depend on how many run at once.
func (ds *Dataset) SortDims() *Sorted {
	s := &Sorted{
		ds:    ds,
		Stats: make([]DimStats, ds.dim),
		Ranks: make([]int32, len(ds.objs)*ds.dim),
		Order: make([][]int32, ds.dim),
	}
	ForEachDim(ds.dim, func(d int) { s.Stats[d], s.Order[d] = ds.sortDim(d, s.Ranks) })
	rowsSorted.Add(int64(len(ds.objs)))
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
	var next atomic.Int32
	work := func() {
		for d := int(next.Add(1)) - 1; d < dim; d = int(next.Add(1)) - 1 {
			fn(d)
		}
	}
	var wg sync.WaitGroup
	for w := min(dim, runtime.GOMAXPROCS(0)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// dimKey is one observed cell on its way through the sort: the value as an
// order-preserving integer key, and the object that holds it.
type dimKey struct {
	key uint64
	id  int32
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
// ascending order. The sort is a least-significant-byte radix sort over
// (key, id) pairs — stable, so ties stay in index order; a byte position on
// which every key agrees is skipped, which for integer-valued data is most
// of the mantissa.
func (ds *Dataset) sortDim(d int, ranks []int32) (DimStats, []int32) {
	n, dim := len(ds.objs), ds.dim
	keys := make([]dimKey, 0, n)
	var hist [8][256]int32
	for i := range ds.objs {
		o := &ds.objs[i]
		if !o.Observed(d) {
			ranks[i*dim+d] = -1
			continue
		}
		k := sortKey(o.Values[d])
		keys = append(keys, dimKey{key: k, id: int32(i)})
		for b := range hist {
			hist[b][byte(k>>(8*b))]++
		}
	}
	st := DimStats{MissingCount: n - len(keys)}
	if len(keys) == 0 {
		return st, nil
	}
	tmp := make([]dimKey, len(keys))
	for b := range hist {
		h := &hist[b]
		shift := uint(8 * b)
		if h[byte(keys[0].key>>shift)] == int32(len(keys)) {
			continue
		}
		sum := int32(0)
		for v, c := range h {
			h[v], sum = sum, sum+c
		}
		for _, k := range keys {
			v := byte(k.key >> shift)
			tmp[h[v]] = k
			h[v]++
		}
		keys, tmp = tmp, keys
	}
	order := make([]int32, len(keys))
	for i := 0; i < len(keys); {
		k := keys[i].key
		r := int32(len(st.Distinct))
		j := i
		for ; j < len(keys) && keys[j].key == k; j++ {
			id := keys[j].id
			order[j] = id
			ranks[int(id)*dim+d] = r
		}
		st.Distinct = append(st.Distinct, keyValue(k))
		st.CountPerValue = append(st.CountPerValue, j-i)
		i = j
	}
	return st, order
}
