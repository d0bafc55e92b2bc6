package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sync"

	"repro/tkd"
)

// The on-disk persisted-index cache behind tkdserver -indexdir. The paper's
// Table 3 shows binned-bitmap construction dominating preprocessing cost;
// persisting the index means a warm restart (or a reload of an unchanged
// file) skips the rebuild entirely. One file per index part (see
// tkd.IndexPart) — the whole index of an unsharded dataset, one in-process
// shard's otherwise:
//
//	<dir>/<escaped name>.tkdix               = magic | index stream
//	<dir>/<escaped name>%shard-<i>.tkdix     = the same, for shard i
//
// The stream's own header gates reuse: it names the row count and the
// fingerprint (a digest of those rows) it was saved at, and it loads only
// onto data whose first that-many rows hash to it. So the file is a
// checkpoint, not a mirror: an ingesting dataset rewrites it when the rows
// have grown by an eighth (Server.checkpointIndex), and a restart loads the
// checkpoint and patches the rows the write-ahead log — or the leader —
// supplied since. A changed data file, or a changed row range, hashes
// differently, so the stale index is rebuilt and overwritten rather than
// trusted, shard by shard. The stream carries its own CRC and shape checks,
// so a truncated or bit-flipped cache file degrades to a rebuild, never to a
// corrupt serving index.
//
// A load writes its file after the dataset serves (indexWrites): a crash
// before the write lands costs the next boot a rebuild, never a wrong index.

// cacheMagic versions the wrapper; bump it to invalidate every cached file.
// Version 2 dropped the wrapper's copy of the fingerprint (the stream's
// header is the one that is verified) when the fingerprint definition moved.
var cacheMagic = [8]byte{'T', 'K', 'D', 'I', 'X', 'D', '2', '\n'}

type indexCache struct {
	dir string
	// beforeRename, when set, runs between a save's write and its rename —
	// where tests hold a write to look at the directory mid-write.
	beforeRename func()
}

// newIndexCache opens (creating if needed) the cache directory; an empty
// dir disables the cache.
func newIndexCache(dir string) (*indexCache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating index dir: %w", err)
	}
	return &indexCache{dir: dir}, nil
}

// path maps one index part of a dataset to its cache file, escaping
// separators so names like "prod/nba" cannot walk out of the directory. The
// raw '%' of a shard suffix cannot appear in an escaped dataset name
// (PathEscape turns a literal '%' into %25), so no dataset name — sharded
// or not — can collide with another dataset's shard files.
func (c *indexCache) path(name string, p tkd.IndexPart) string {
	return filepath.Join(c.dir, url.PathEscape(name)+p.Suffix+".tkdix")
}

// tryLoad restores one persisted index part when its file exists and is a
// checkpoint of the part's rows: all of them, or a prefix, in which case
// patched counts the rows folded in behind it. ok reports whether the
// rebuild was skipped; a missing file, an older wrapper or a checkpoint of
// other rows is a miss (false, nil), a corrupt one surfaces its error so the
// caller can count it — either way the caller falls back to building.
func (c *indexCache) tryLoad(name string, p tkd.IndexPart) (patched int, ok bool, err error) {
	path := c.path(name, p)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, false, fmt.Errorf("server: index cache %s: %w", path, err)
	}
	if magic != cacheMagic {
		return 0, false, nil // older or foreign format: rebuild
	}
	patched, err = p.Load(br)
	if errors.Is(err, tkd.ErrIndexStale) {
		return 0, false, nil // data changed since the index was persisted
	}
	if err != nil {
		return 0, false, fmt.Errorf("server: index cache %s: %w", path, err)
	}
	return patched, true, nil
}

// save persists one index part (building it if needed) and reports the bytes
// written, writing to a temp file and renaming so a concurrent reader or a
// crash mid-write never sees a torn file.
func (c *indexCache) save(name string, p tkd.IndexPart) (int64, error) {
	tmp, err := os.CreateTemp(c.dir, ".tkdix-tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	if _, err := bw.Write(cacheMagic[:]); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := p.Save(bw); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return 0, err
	}
	size, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if c.beforeRename != nil {
		c.beforeRename()
	}
	return size, os.Rename(tmp.Name(), c.path(name, p))
}

// indexWrites orders the index writes of each dataset name and lets the
// lifecycle wait for them. A load publishes first and hands the parts the
// cache lacked to a write on a goroutine of its own (start); a checkpoint
// writes on its caller's (run). Either way a write takes the name's next turn
// and begins only once the one before it has landed, so the last write queued
// under a name is the last to land: an evicted entry's write cannot land over
// the file of the entry registered after it.
type indexWrites struct {
	mu sync.Mutex
	// last maps a name to its last queued write's done channel, closed when
	// the write has landed; a name with nothing in flight has no entry.
	last map[string]chan struct{}
	// joining, when set, runs before a join or wait blocks on a write in
	// flight — where tests learn that a caller waits for a write they hold.
	joining func()
}

// turn queues a write under name: the write waits for prev (nil when none)
// and closes done when it has landed (finish).
func (w *indexWrites) turn(name string) (prev, done chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.last == nil {
		w.last = make(map[string]chan struct{})
	}
	prev, done = w.last[name], make(chan struct{})
	w.last[name] = done
	return prev, done
}

func (w *indexWrites) finish(name string, done chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	close(done)
	if w.last[name] == done {
		delete(w.last, name)
	}
}

// run performs write in name's next turn on the calling goroutine.
func (w *indexWrites) run(name string, write func()) {
	prev, done := w.turn(name)
	if prev != nil {
		<-prev
	}
	write()
	w.finish(name, done)
}

// start performs write in name's next turn on a goroutine of its own.
func (w *indexWrites) start(name string, write func()) {
	prev, done := w.turn(name)
	go func() {
		if prev != nil {
			<-prev
		}
		write()
		w.finish(name, done)
	}()
}

// join returns once every write queued under name so far has landed.
func (w *indexWrites) join(name string) {
	w.mu.Lock()
	last := w.last[name]
	w.mu.Unlock()
	w.await(last)
}

// wait returns once no write is in flight under any name.
func (w *indexWrites) wait() {
	for {
		w.mu.Lock()
		var last chan struct{}
		for _, last = range w.last {
			break
		}
		w.mu.Unlock()
		if last == nil {
			return
		}
		w.await(last)
	}
}

// await blocks until the write behind done (nil: none) has landed.
func (w *indexWrites) await(done chan struct{}) {
	if done == nil {
		return
	}
	if w.joining != nil {
		w.joining()
	}
	<-done
}
