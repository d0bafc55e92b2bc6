package server

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/tkd"
)

// entry is one resident dataset: the warm *tkd.Dataset (sharded or not —
// ds.Shards() tells), its batch scheduler and its metrics. The dataset
// pointer is stable for the entry's lifetime — hot reloads swap the data
// inside it (ReplaceFrom publishes a new epoch), so the scheduler and
// in-flight queries never chase a moving pointer.
type entry struct {
	name string
	ds   *tkd.Dataset
	sch  *scheduler
	met  *datasetMetrics

	// source of the data, recorded for /v1/datasets/{name}/reload; an
	// empty path means the dataset was registered in-process and has
	// nothing on disk to reload from.
	path   string
	negate bool

	// reloadMu serializes reloads of this entry so two concurrent reload
	// requests cannot interleave their build-and-swap sequences. The ingest
	// publisher takes it too: a publish folds pending rows into the live
	// data and must not interleave with a reload's swap or an eviction's
	// WAL removal.
	reloadMu sync.Mutex

	// savedRows is the row count the persisted index in -indexdir covers —
	// what the last write that landed wrote, or what the file found at boot
	// held. Appends grow the dataset past it; checkpointIndex decides when to
	// catch up.
	savedRows atomic.Int64

	// ing is the WAL-backed ingest side; nil when ingest is not enabled
	// for this dataset (no -waldir, sharded, or follower mode).
	ing *ingestState

	// Follower bookkeeping, written only by the follower sync loop.
	// followed marks an entry kept in lockstep with a replication leader;
	// leaderSeen is the leader epoch last observed on the wire and
	// leaderEpoch the one last applied locally — their difference is the
	// follower's epoch lag for this dataset.
	followed    atomic.Bool
	leaderSeen  atomic.Uint64
	leaderEpoch atomic.Uint64
}

// datasetMetrics aggregates one dataset's serving counters. The pruning
// counters accumulate each query's core.Stats via Stats.Add under a light
// mutex (queries are milliseconds, the add is nanoseconds).
type datasetMetrics struct {
	queries          atomic.Int64 // client queries answered
	errors           atomic.Int64 // failed client queries
	coalesced        atomic.Int64 // queries answered by sharing an identical query's run
	reloads          atomic.Int64 // epoch swaps served for this dataset
	deadlineExceeded atomic.Int64 // queries that outran their deadline (504s)

	mu  sync.Mutex
	agg core.Stats
}

// record folds one finished execution into the counters. served is the
// number of client queries the execution answered (> 1 when the scheduler
// coalesced identical queries onto it); the work counters are recorded once
// per execution, the query counter once per client.
func (m *datasetMetrics) record(st core.Stats, served int, err error) {
	if err != nil {
		m.errors.Add(int64(served))
		return
	}
	m.queries.Add(int64(served))
	m.mu.Lock()
	m.agg.Add(st)
	m.mu.Unlock()
}

// errDuplicate marks a name collision; handlers map it to 409 Conflict.
var errDuplicate = fmt.Errorf("server: dataset name already registered")

// registry holds the named datasets. It is live: datasets register, reload
// and evict while the server runs, so every lookup takes the read lock and
// holds the returned entry past it (entries stay valid after removal — an
// evicted entry's scheduler drains before stopping).
type registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

func newRegistry() *registry {
	return &registry{entries: make(map[string]*entry)}
}

func (r *registry) add(e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[e.name]; ok {
		return fmt.Errorf("%w: %q", errDuplicate, e.name)
	}
	r.entries[e.name] = e
	return nil
}

func (r *registry) get(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// remove unregisters name and returns its entry; new lookups miss
// immediately, while requests already holding the entry drain through its
// scheduler.
func (r *registry) remove(name string) (*entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
	}
	return e, ok
}

// list returns the entries sorted by name, for stable /v1/datasets and
// /metrics output.
func (r *registry) list() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// loadCSV reads a datagen-format CSV from path into a tkd.Dataset: the file
// into one buffer sized from its length, then the parse over it.
func loadCSV(path string, negate bool) (*tkd.Dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds, err := tkd.ParseCSV(b)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	if negate {
		ds.Negate()
	}
	return ds, nil
}
