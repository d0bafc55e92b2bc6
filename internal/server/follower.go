package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/tkd"
)

// Follower protocol. A follower tkdserver polls its leader's dataset list
// and keeps a local replica of every leader dataset through the epoch
// stream endpoint (GET /v1/datasets/{name}/epoch): each poll sends the
// fingerprint it already serves, the leader answers 304 when the follower
// is current, and otherwise ships an epoch stream — the rows appended since
// the epoch the follower holds when its append lineage can prove that, else
// everything from the empty epoch with (for unsharded leaders) the binned
// index. An imported epoch is validated end to end (header fingerprint
// against the rebuilt data, index stream against its own checksums) before
// being published locally as an RCU epoch swap under the leader's epoch
// number, so a replica group behind one leader converges to identical
// bytes and identical epoch numbering without any out-of-band dataset
// distribution.
//
// Divergence stays the fingerprint's job: a follower that lags reports a
// stale epoch but a matching fingerprint to the replica-set health probe
// and keeps serving; only content divergence quarantines. The epoch lag is
// surfaced per dataset as tkd_follower_epoch_lag on /metrics.

// follower is the sync loop. It lives for the server's lifetime: started
// from New when Config.Follow is set, stopped from Close.
type follower struct {
	s        *Server
	leader   string
	interval time.Duration
	client   *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	syncs      atomic.Int64 // epochs applied
	syncErrors atomic.Int64 // failed poll/fetch/import attempts
	deltaSyncs atomic.Int64 // epochs applied from a delta stream (subset of syncs)

	// namesMu guards names, the dataset names last discovered on the
	// leader. The mutation handlers consult it to reject local writes
	// (append/reload/re-register) against leader-managed datasets — it
	// outlives eviction, which is what catches delete-then-recreate.
	namesMu sync.Mutex
	names   map[string]struct{}
}

func newFollower(s *Server, leader string, interval time.Duration) *follower {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &follower{
		s:        s,
		leader:   strings.TrimSuffix(leader, "/"),
		interval: interval,
		client:   &http.Client{Timeout: 30 * time.Second},
		ctx:      ctx,
		cancel:   cancel,
	}
}

func (f *follower) start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		// Sync immediately so a freshly started follower is serving as soon
		// as the leader is reachable, then settle into the poll cadence.
		f.syncAll()
		t := time.NewTicker(f.interval)
		defer t.Stop()
		for {
			select {
			case <-f.ctx.Done():
				return
			case <-f.s.done:
				return
			case <-t.C:
				f.syncAll()
			}
		}
	}()
}

func (f *follower) stop() {
	f.cancel()
	f.wg.Wait()
}

// syncAll discovers the leader's datasets and syncs each one. Discovery
// failure (leader down, mid-restart) is an error counted and logged, not a
// fatal condition — the follower keeps serving what it has and retries on
// the next tick.
func (f *follower) syncAll() {
	names, err := f.listLeader()
	if err != nil {
		f.syncErrors.Add(1)
		f.s.log.Warn("follower: leader dataset discovery failed", "leader", f.leader, "err", err)
		return
	}
	set := make(map[string]struct{}, len(names))
	for _, name := range names {
		set[name] = struct{}{}
	}
	f.namesMu.Lock()
	f.names = set
	f.namesMu.Unlock()
	for _, name := range names {
		f.syncDataset(name)
	}
}

// managed reports whether the leader serves name — true even if the local
// replica was evicted, so a local re-register cannot shadow the leader's
// dataset between sync ticks.
func (f *follower) managed(name string) bool {
	f.namesMu.Lock()
	defer f.namesMu.Unlock()
	_, ok := f.names[name]
	return ok
}

func (f *follower) listLeader() ([]string, error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.leader+"/v1/datasets", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("leader answered %s", resp.Status)
	}
	var body struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(body.Datasets))
	for _, d := range body.Datasets {
		names = append(names, d.Name)
	}
	return names, nil
}

// syncDataset runs one dataset's sync attempt under a trace and records it
// in the query log when something happened (an epoch applied, or an
// error) — steady-state 304 polls stay out of the ring so they cannot
// crowd out real queries.
func (f *follower) syncDataset(name string) {
	start := time.Now()
	tr := obs.New("follower-sync")
	root := tr.Root()
	root.SetStr("dataset", name)
	applied, err := f.syncOne(name, root)
	root.End()
	if err != nil {
		f.syncErrors.Add(1)
		f.s.log.Warn("follower: sync failed", "dataset", name, "leader", f.leader, "err", err)
	} else if applied {
		f.syncs.Add(1)
	}
	if applied || err != nil {
		f.s.logTrace(tr, obs.QueryEntry{Time: start, Dataset: name, Algorithm: "follower/sync"}, err)
	}
}

// syncOne brings one dataset level with the leader. applied reports
// whether a new epoch was imported and published (false for the
// steady-state "already current" answer).
func (f *follower) syncOne(name string, sp *obs.Span) (applied bool, err error) {
	e, resident := f.s.reg.get(name)

	poll := sp.StartChild("poll")
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet,
		f.leader+"/v1/datasets/"+url.PathEscape(name)+"/epoch", nil)
	if err != nil {
		poll.End()
		return false, err
	}
	if resident {
		// Conditional fetch: the leader answers 304 with no body when the
		// follower already serves these bytes.
		req.Header.Set("X-TKD-Have-Fingerprint", fmt.Sprintf("%016x", e.ds.Fingerprint()))
		if e.ds.Shards() == 0 { // sharded: no dataset-level index for a delta to patch
			// Advertise our epoch too: a leader whose append lineage covers
			// it answers with a stream from it — just the rows appended
			// since — instead of one from the empty base.
			req.Header.Set("X-TKD-Have-Epoch", strconv.FormatUint(e.ds.Epoch(), 10))
		}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		poll.End()
		return false, err
	}
	defer resp.Body.Close()
	leaderEpoch, _ := strconv.ParseUint(resp.Header.Get("X-TKD-Epoch"), 10, 64)
	poll.SetInt("leader_epoch", int64(leaderEpoch))
	poll.End()

	switch resp.StatusCode {
	case http.StatusNotModified:
		// Already serving the leader's bytes. Adopt the entry into following
		// mode (a dataset pre-loaded from the same CSV converges here without
		// ever transferring it) and track the leader's numbering.
		if resident && leaderEpoch > 0 {
			e.followed.Store(true)
			e.leaderSeen.Store(leaderEpoch)
			e.leaderEpoch.Store(leaderEpoch)
		}
		return false, nil
	case http.StatusOK:
		// fall through to import
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("leader answered %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	// The leader has an epoch we don't: record it as seen before the
	// transfer so the lag gauge is honest while the import runs.
	if resident && leaderEpoch > 0 {
		e.followed.Store(true)
		e.leaderSeen.Store(leaderEpoch)
	}

	start := time.Now()
	imp := sp.StartChild("import")
	x, err := tkd.ReadEpochDelta(resp.Body)
	imp.End()
	if err != nil {
		return false, err
	}

	pub := sp.StartChild("publish")
	defer pub.End()
	pub.SetInt("epoch", int64(x.Epoch))
	if x.BaseEpoch != 0 {
		return f.applyDelta(name, e, x, pub)
	}
	fresh := x.Dataset()
	if !resident {
		if err := f.s.registerFollowed(name, fresh, x.Epoch, start); err != nil {
			return false, err
		}
		return true, nil
	}
	// The same sequence a reload runs: warm off to the side (the binned index
	// came over the stream when the leader is unsharded; a sharded replica
	// builds or warm-loads its per-shard ones), swap under the leader's
	// number, persist what the cache lacked — the shipped index included, so a
	// restart warms from disk instead of re-fetching.
	if _, err := f.s.swapIn(e, fresh, x.Epoch, start); err != nil {
		return false, err
	}
	e.followed.Store(true)
	e.leaderSeen.Store(x.Epoch)
	e.leaderEpoch.Store(x.Epoch)
	// A full import replaces everything; standing queries re-evaluate
	// unconditionally.
	f.s.notifyStanding(e, 0)
	return true, nil
}

// applyDelta folds a stream from a real base — the rows a leader appended
// since the epoch this follower advertised — into the resident replica
// through the same patch-publish path local ingest uses. The base must be
// the replica's current epoch and the extended data must hash to the
// stream's fingerprint before anything publishes, so a bad or misdirected
// delta leaves the replica untouched; the next poll (whose advertised state
// is then unchanged) retries, and a leader whose lineage no longer covers us
// falls back to a stream from the empty base on its own.
func (f *follower) applyDelta(name string, e *entry, x *tkd.EpochDelta, pub *obs.Span) (bool, error) {
	if e == nil || e.ds.Shards() > 0 { // never advertised a base, or has no index to patch
		return false, fmt.Errorf("leader sent a delta from epoch %d for %q, which the local replica cannot apply", x.BaseEpoch, name)
	}
	pub.SetInt("delta_rows", int64(x.Rows()))
	if patched, err := e.ds.ApplyEpochDelta(x); err != nil {
		return false, fmt.Errorf("applying epoch delta for %q: %w", name, err)
	} else if patched {
		pub.SetStr("mode", "delta")
	} else {
		pub.SetStr("mode", "rebuild") // cold local index; rows still applied
	}
	f.s.checkpointIndex(e, false)
	e.followed.Store(true)
	e.leaderSeen.Store(x.Epoch)
	e.leaderEpoch.Store(x.Epoch)
	f.deltaSyncs.Add(1)
	// The delta is append-shaped, so the τ-check applies on replicas too.
	f.s.notifyStanding(e, x.Rows())
	return true, nil
}

// registerFollowed installs a dataset discovered on the leader: the normal
// register path (shard topology when the follower itself coordinates
// shards, warm-up, persist, scheduler), then the follower bookkeeping.
func (s *Server) registerFollowed(name string, ds *tkd.Dataset, epoch uint64, start time.Time) error {
	if _, err := s.register(name, ds, "", false, start); err != nil {
		return err
	}
	if e, ok := s.reg.get(name); ok {
		e.followed.Store(true)
		e.leaderSeen.Store(epoch)
		e.leaderEpoch.Store(epoch)
	}
	return nil
}

// handleEpochStream serves GET /v1/datasets/{name}/epoch: one published
// epoch of a resident dataset in tkd's epoch stream format, with the epoch
// number and fingerprint duplicated into response headers so followers can
// track lag without parsing the body. A request carrying
// X-TKD-Have-Fingerprint equal to the current fingerprint gets 304 and no
// body — the steady-state poll costs a header exchange.
//
// The stream names its own base. A follower that also advertises its
// current epoch (X-TKD-Have-Epoch) gets a stream from that epoch — just the
// rows appended since — when the leader's append lineage proves the
// follower's state a strict prefix of the current one. Any doubt (stale
// base, divergent fingerprint, non-append mutation since) falls back to the
// stream from the empty base, so a follower is never worse off for
// advertising.
func (s *Server) handleEpochStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.get(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "unknown dataset %q", name)
		return
	}
	// An unsharded leader ships its binned index along so followers skip the
	// dominant preprocessing cost, and offers deltas off its append lineage.
	// A sharded coordinator has neither: its indexes are per shard (followers
	// rebuild or warm-load their own) and it takes no appends.
	unsharded := e.ds.Shards() == 0
	x := e.ds.ExportEpoch()
	haveFP, err := strconv.ParseUint(r.Header.Get("X-TKD-Have-Fingerprint"), 16, 64)
	current := err == nil && haveFP == x.Fingerprint()
	delta := false
	if err == nil && !current && unsharded {
		if haveEpoch, err := strconv.ParseUint(r.Header.Get("X-TKD-Have-Epoch"), 10, 64); err == nil {
			if dx, ok := e.ds.ExportEpochDelta(haveEpoch, haveFP); ok {
				x, delta = &dx.EpochExport, true
			}
		}
	}
	w.Header().Set("X-TKD-Epoch", strconv.FormatUint(x.Epoch(), 10))
	w.Header().Set("X-TKD-Fingerprint", fmt.Sprintf("%016x", x.Fingerprint()))
	if current {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w}
	err = x.Write(cw, unsharded)
	if delta {
		s.life.deltaShips.Add(1)
		s.life.deltaShipBytes.Add(cw.n)
	}
	if err != nil {
		// Headers are gone; all we can do is abort the stream (the import
		// side will fail its checks) and surface the event in the log.
		s.log.Warn("epoch stream aborted", "dataset", name, "err", err)
	}
}

// countingWriter counts the bytes an epoch delta actually put on the wire,
// feeding the tkd_epoch_delta_ship_bytes_total counter.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
