// Package waltest holds the write-ahead log's seeded fault injector: an
// FS whose files write short, fail fsync or lose every byte past a cut
// point. Only tests import it, so no serving binary links it.
package waltest

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// Chaos is a seeded fault injector for the WAL's write path, mirroring the
// shard package's injector idiom: one injector (one schedule, one counter
// set) wraps every segment file a log creates, and the draws replay exactly
// per seed. It models the three ways the durable path lies:
//
//   - short writes: a frame write persists only a prefix before erroring —
//     the crash-torn tail the recovery scan must truncate;
//   - fsync errors: the kernel reports the flush failed — the poison case,
//     where retrying would claim durability for dropped pages;
//   - a crash cut point: every byte written after CutAfterBytes silently
//     vanishes while the process sees success — what a power cut does to
//     the page cache. Placing the cut right after a Sync models
//     crash-after-sync (acked rows survive); placing it before one models
//     crash-before-sync (unsynced rows legitimately die).
type ChaosConfig struct {
	// Seed fixes the fault schedule.
	Seed uint64
	// ShortWriteP is the probability a write persists a random proper
	// prefix and returns an error.
	ShortWriteP float64
	// SyncErrP is the probability a Sync fails (poisoning the log).
	SyncErrP float64
	// CutAfterBytes drops every byte written after that many total bytes
	// (across all segments) while reporting success; <= 0 disables.
	CutAfterBytes int64
}

// ChaosCounts reports the faults a Chaos injected, by kind.
type ChaosCounts struct {
	ShortWrites int64 `json:"short_writes"`
	SyncErrors  int64 `json:"sync_errors"`
	CutBytes    int64 `json:"cut_bytes"` // bytes silently dropped past the cut point
}

// Chaos implements wal.FS over the real filesystem with the configured faults.
type Chaos struct {
	cfg ChaosConfig

	mu  sync.Mutex
	rnd *rand.Rand

	written atomic.Int64 // total bytes offered to Write across all files

	shortWrites atomic.Int64
	syncErrors  atomic.Int64
	cutBytes    atomic.Int64
}

// NewChaos builds an injector for the given schedule.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{cfg: cfg, rnd: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))}
}

// Counts snapshots the injected-fault counters.
func (c *Chaos) Counts() ChaosCounts {
	return ChaosCounts{
		ShortWrites: c.shortWrites.Load(),
		SyncErrors:  c.syncErrors.Load(),
		CutBytes:    c.cutBytes.Load(),
	}
}

// Create implements wal.FS.
func (c *Chaos) Create(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &chaosFile{f: f, c: c}, nil
}

// draw rolls the per-call faults under the injector's lock so concurrent
// logs sharing one injector still replay deterministically given a
// deterministic call order.
func (c *Chaos) draw() (shortWrite bool, frac float64, syncErr bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.rnd.Float64()
	frac = c.rnd.Float64()
	return p < c.cfg.ShortWriteP, frac, p >= c.cfg.ShortWriteP && p < c.cfg.ShortWriteP+c.cfg.SyncErrP
}

type chaosFile struct {
	f *os.File
	c *Chaos
}

func (cf *chaosFile) Write(p []byte) (int, error) {
	c := cf.c
	total := c.written.Add(int64(len(p)))
	if c.cfg.CutAfterBytes > 0 {
		already := total - int64(len(p))
		if already >= c.cfg.CutAfterBytes {
			// Entirely past the cut: the process sees success, the disk
			// sees nothing — these bytes die with the simulated crash.
			c.cutBytes.Add(int64(len(p)))
			return len(p), nil
		}
		if total > c.cfg.CutAfterBytes {
			// The cut lands inside this write: persist the prefix, report
			// full success. The surviving file ends mid-frame — exactly the
			// torn tail recovery must handle.
			keep := int(c.cfg.CutAfterBytes - already)
			c.cutBytes.Add(int64(len(p) - keep))
			if _, err := cf.f.Write(p[:keep]); err != nil {
				return 0, err
			}
			return len(p), nil
		}
	}
	shortWrite, frac, _ := c.draw()
	if shortWrite {
		c.shortWrites.Add(1)
		n := int(frac * float64(len(p))) // proper prefix: 0 <= n < len(p)
		if n >= len(p) {
			n = len(p) - 1
		}
		if n > 0 {
			if _, err := cf.f.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return n, fmt.Errorf("chaos: injected short write (%d of %d bytes)", n, len(p))
	}
	return cf.f.Write(p)
}

func (cf *chaosFile) Sync() error {
	c := cf.c
	if _, _, syncErr := c.draw(); syncErr {
		c.syncErrors.Add(1)
		return fmt.Errorf("chaos: injected fsync error")
	}
	if c.cfg.CutAfterBytes > 0 && c.written.Load() > c.cfg.CutAfterBytes {
		// Past the cut the data is already gone; syncing what the kernel
		// never saw must not make it durable. Report success regardless —
		// the deception is the point.
		return nil
	}
	return cf.f.Sync()
}

func (cf *chaosFile) Close() error { return cf.f.Close() }
