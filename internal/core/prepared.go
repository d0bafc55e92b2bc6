package core

import (
	"cmp"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmapidx"
	"repro/internal/data"
)

// Need is a bitmask of preprocessing artifacts.
type Need uint8

const (
	NeedQueue  Need = 1 << iota // the MaxScore queue of §4.2
	NeedBitmap                  // the value-granular bitmap index of §4.3 (BIG)
	NeedBinned                  // the binned serving index of §4.4 (IBIG)
)

// NeedFor maps an algorithm to the artifacts it consumes. Every algorithm
// takes the MaxScore queue: its bounds are the answer's tie order, and Naive
// and ESB read nothing else of it.
func NeedFor(alg Algorithm) Need {
	switch alg {
	case AlgBIG:
		return NeedQueue | NeedBitmap
	case AlgIBIG:
		return NeedQueue | NeedBinned
	}
	return NeedQueue
}

func (pre *Pre) have() Need {
	var n Need
	if pre.Queue != nil {
		n |= NeedQueue
	}
	if pre.Bitmap != nil {
		n |= NeedBitmap
	}
	if pre.Binned != nil {
		n |= NeedBinned
	}
	return n
}

// Has reports whether the set holds every artifact of n.
func (pre *Pre) Has(n Need) bool { return pre.have()&n == n }

// fill builds the artifacts of n that pre lacks — the one place each recipe
// is chosen — and reports how long the indexes and the queue took. bins is
// BuildServingIndex's (nil = bitmapidx.ServingBins). The indexes come first, off one sort
// per dimension however many of them build, and the queue is derived from an
// index when there is one (built here, loaded or installed): only a queue
// wanted alone sorts for itself. (A shard coordinator's queue is merged from
// its shards' sorts instead: EnsureQueueFrom.)
func (pre *Pre) fill(ds *data.Dataset, bins []int, n Need) (index, queue time.Duration) {
	n &^= pre.have()
	if n == 0 {
		return 0, 0 // a warm query: no clock to read
	}
	t0 := time.Now()
	var sorted *data.Sorted
	if n&(NeedBitmap|NeedBinned) != 0 {
		sorted = ds.SortDims()
	}
	if n&NeedBitmap != 0 {
		pre.Bitmap = bitmapidx.BuildSorted(sorted, bitmapidx.Options{})
	}
	if n&NeedBinned != 0 {
		pre.Binned = BuildServingIndex(sorted, bins)
	}
	t1 := time.Now()
	if n&NeedQueue != 0 {
		if ix := cmp.Or(pre.Binned, pre.Bitmap); ix != nil {
			pre.Queue = BuildMaxScoreQueueFromIndex(ix)
		} else {
			pre.Queue = BuildMaxScoreQueue(ds)
		}
	}
	return t1.Sub(t0), time.Since(t1)
}

// Prepared holds the preprocessing artifacts of one frozen dataset — an
// epoch, or a shard's slice of one — and is the one place they are built,
// installed, loaded, saved and counted. The set is an immutable Pre
// behind an atomic pointer: growing it publishes a fresh copy under the build
// lock, so a reader's *Pre never changes and a warm Ensure is one atomic load
// and a mask test. Safe for concurrent use.
type Prepared struct {
	ds   *data.Dataset
	bins []int

	pre    atomic.Pointer[Pre]
	mu     sync.Mutex // serializes every change of pre
	builds atomic.Int64
	// indexNanos and queueNanos add up what the holder has spent making (or
	// loading) its indexes and its queue — how a slow boot or reload says
	// which artifact was slow.
	indexNanos, queueNanos atomic.Int64
}

// NewPrepared returns an empty holder over ds, which must stay immutable for
// the holder's lifetime. bins is the serving index's layout (nil = bitmapidx.ServingBins).
func NewPrepared(ds *data.Dataset, bins []int) *Prepared {
	p := &Prepared{ds: ds, bins: bins}
	p.pre.Store(&nothingBuilt)
	return p
}

// nothingBuilt is every fresh holder's set; sets are never written in place.
var nothingBuilt Pre

// Dataset returns the frozen rows the holder was made over.
func (p *Prepared) Dataset() *data.Dataset { return p.ds }

// Built returns whatever is built so far, without building anything.
func (p *Prepared) Built() *Pre { return p.pre.Load() }

// Builds counts the serving indexes this holder built from scratch; installed
// and loaded ones do not count, which makes it the observable for "did the
// warm start skip the rebuild".
func (p *Prepared) Builds() int64 { return p.builds.Load() }

// BuildTimes reports the time the holder has spent so far building or loading
// its indexes, and building its queue. Installed artifacts cost it nothing.
func (p *Prepared) BuildTimes() (index, queue time.Duration) {
	return time.Duration(p.indexNanos.Load()), time.Duration(p.queueNanos.Load())
}

// Ensure returns a set holding every artifact of n, building what is missing.
func (p *Prepared) Ensure(n Need) *Pre {
	if pre := p.pre.Load(); pre.Has(n) {
		return pre
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pre := p.pre.Load()
	if pre.Has(n) {
		return pre
	}
	np := *pre
	index, queue := np.fill(p.ds, p.bins, n)
	p.indexNanos.Add(int64(index))
	p.queueNanos.Add(int64(queue))
	if np.Binned != pre.Binned {
		p.builds.Add(1)
	}
	p.pre.Store(&np)
	return &np
}

// EnsureQueueFrom returns a set holding the queue, merging it when missing
// out of runs() — the sorted runs of consecutive row slices that cover the
// holder's rows, in row order (QueueFromRuns). It is how a shard coordinator,
// whose holder indexes nothing, takes its queue from the shards' sorts
// instead of sorting the rows a second time. runs() and the merge are the
// holder's queue time.
func (p *Prepared) EnsureQueueFrom(runs func() []QueueRun) *Pre {
	if pre := p.pre.Load(); pre.Queue != nil {
		return pre
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pre := p.pre.Load()
	if pre.Queue != nil {
		return pre
	}
	start := time.Now()
	np := *pre
	np.Queue = QueueFromRuns(runs())
	if len(np.Queue.Order) != p.ds.Len() {
		panic(fmt.Sprintf("core: queue runs cover %d rows of %d", len(np.Queue.Order), p.ds.Len()))
	}
	p.queueNanos.Add(int64(time.Since(start)))
	p.pre.Store(&np)
	return &np
}

// Install adopts artifacts made elsewhere — a patched index with the queue
// rebuilt from it, a predecessor's or another dataset's warm set: pre's
// non-nil fields replace the holder's, the rest stay.
func (p *Prepared) Install(pre Pre) {
	if pre.have() == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	np := *p.pre.Load()
	if pre.Queue != nil {
		np.Queue = pre.Queue
	}
	if pre.Bitmap != nil {
		np.Bitmap = pre.Bitmap
	}
	if pre.Binned != nil {
		np.Binned = pre.Binned
	}
	p.pre.Store(&np)
}

// SaveServing serializes the serving index, building it first if needed,
// under the (rows, fingerprint) of the rows it indexes.
func (p *Prepared) SaveServing(w io.Writer) error {
	return p.Ensure(NeedBinned).Binned.Save(w)
}

// LoadServing installs a serving index written by SaveServing in place of any
// the holder has. The stream is a checkpoint: it is accepted when the holder's
// first that-many rows hash to its fingerprint, and the rows behind that
// prefix — patched reports how many — are folded in by the bitmapidx.AppendRows
// that serves append-publishes. The file carries its own bin layout, and
// whatever codec an earlier build wrote it in, it loads dense (bitmapidx.Load).
// On any error the holder is unchanged and callers rebuild.
func (p *Prepared) LoadServing(r io.Reader) (patched int, err error) {
	defer func(start time.Time) { p.indexNanos.Add(int64(time.Since(start))) }(time.Now())
	ix, err := bitmapidx.LoadPrefix(r, p.ds)
	if err != nil {
		return 0, err
	}
	if tail := p.ds.Len() - ix.Dataset().Len(); tail > 0 {
		px, ok := bitmapidx.AppendRows(ix, p.ds)
		if !ok {
			return 0, fmt.Errorf("core: persisted index covers %d of %d rows and the rest cannot be patched onto it — rebuild", ix.Dataset().Len(), p.ds.Len())
		}
		ix, patched = px, tail
	}
	p.Install(Pre{Binned: ix})
	return patched, nil
}
