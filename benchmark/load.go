package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/tkd"
)

// ops counts one operation type. Failed is an error, a timeout or a refusal;
// mismatched is a 200 whose answer differs from the oracle's. Neither counts
// towards query_qps.
type ops struct {
	Attempted  int `json:"attempted"`
	Failed     int `json:"failed"`
	Mismatched int `json:"mismatched"`
}

func (o *ops) add(p ops) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.Mismatched += p.Mismatched
}

func (o ops) ok() int { return o.Attempted - o.Failed - o.Mismatched }

// read is one answer the ingest reader saw on a published epoch, kept so it
// can be checked once the window is over and the oracle has CPU to itself.
type read struct {
	epoch uint64
	k     int
	items []server.QueryItem
}

// window is what one measured window observed.
type window struct {
	elapsed time.Duration

	queries, appends, visibles   ops
	queryMS, appendMS, visibleMS []float64

	// From the explain trace of each answer (traced windows only). Per
	// request queue + execute + http is the client latency by construction:
	// http is what the server's queue and execute spans do not cover —
	// decode, encode, loopback and the client's own JSON work.
	queueMS, executeMS, httpMS          []float64
	queueShare, executeShare, httpShare []float64
	batchSizes                          []float64
	coalesced                           int

	reads []read   // ingest only: answers on epochs past the base
	errs  []string // first few failures, for the report
}

func (w *window) merge(o *window) {
	w.queries.add(o.queries)
	w.appends.add(o.appends)
	w.visibles.add(o.visibles)
	w.queryMS = append(w.queryMS, o.queryMS...)
	w.appendMS = append(w.appendMS, o.appendMS...)
	w.visibleMS = append(w.visibleMS, o.visibleMS...)
	w.queueMS = append(w.queueMS, o.queueMS...)
	w.executeMS = append(w.executeMS, o.executeMS...)
	w.httpMS = append(w.httpMS, o.httpMS...)
	w.queueShare = append(w.queueShare, o.queueShare...)
	w.executeShare = append(w.executeShare, o.executeShare...)
	w.httpShare = append(w.httpShare, o.httpShare...)
	w.batchSizes = append(w.batchSizes, o.batchSizes...)
	w.coalesced += o.coalesced
	w.reads = append(w.reads, o.reads...)
	w.errs = append(w.errs, o.errs...)
}

func (w *window) fail(format string, args ...any) {
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// run is the context one window runs in.
type run struct {
	w       workload
	in      *inputs
	base    string
	explain bool
	rec     *recorder
}

// baseEpoch is the epoch a freshly booted server publishes its CSV under;
// every publish after it adds one.
const baseEpoch = 1

// reader is a query connection's closed loop: send, wait for the answer,
// check it, send the next. It runs at least minCycles full key cycles and
// until the deadline.
func (r *run) reader(c *conn, ks []int, deadline time.Time, minCycles int) *window {
	out := &window{}
	for i := 0; i < minCycles*len(ks) || time.Now().Before(deadline); i++ {
		k := ks[i%len(ks)]
		out.queries.Attempted++
		start := time.Now()
		resp, err := c.query(r.base, k, r.explain)
		end := time.Now()
		if err != nil {
			out.queries.Failed++
			out.fail("query k=%d: %v", k, err)
			continue
		}
		switch {
		case resp.Epoch != baseEpoch && r.w.writer:
			out.reads = append(out.reads, read{resp.Epoch, k, resp.Items})
		case !sameItems(resp.Items, r.in.oracle[k]):
			out.queries.Mismatched++
			out.fail("query k=%d: answer differs from the oracle", k)
			continue
		}
		lat := ms(end.Sub(start))
		out.queryMS = append(out.queryMS, lat)
		out.batchSizes = append(out.batchSizes, float64(resp.BatchSize))
		if resp.Coalesced {
			out.coalesced++
		}
		if resp.Trace != nil {
			out.addTrace(r.rec, resp.Trace, start, end)
		}
	}
	return out
}

// addTrace splits one traced answer's client latency into the server's queue
// and execute spans and the remainder, and records the three as children of
// the request's span in the benchmark's own trace.
func (out *window) addTrace(rec *recorder, tr *obs.TraceJSON, start, end time.Time) {
	var queue, execute time.Duration
	for _, ch := range tr.Root.Children {
		switch ch.Name {
		case "queue":
			queue += time.Duration(ch.DurUS) * time.Microsecond
		case "execute":
			execute += time.Duration(ch.DurUS) * time.Microsecond
		}
	}
	total := end.Sub(start)
	http := total - queue - execute
	out.queueMS = append(out.queueMS, ms(queue))
	out.executeMS = append(out.executeMS, ms(execute))
	out.httpMS = append(out.httpMS, ms(http))
	out.queueShare = append(out.queueShare, ratio(ms(queue), ms(total)))
	out.executeShare = append(out.executeShare, ratio(ms(execute), ms(total)))
	out.httpShare = append(out.httpShare, ratio(ms(http), ms(total)))

	// The server reports span starts relative to its own root; the root is
	// placed so that the uncovered time splits evenly before and after it.
	id := rec.nextRequest()
	parent := rec.add("client.query", start, end, -1, id)
	root := start.Add((total - time.Duration(tr.DurUS)*time.Microsecond) / 2)
	for _, ch := range tr.Root.Children {
		s := root.Add(time.Duration(ch.StartUS) * time.Microsecond)
		rec.add("server."+ch.Name, s, s.Add(time.Duration(ch.DurUS)*time.Microsecond), parent, id)
	}
}

// visibleTick is how often the writer polls for its rows; visibleTimeout is
// when it gives a batch up as never published.
const (
	visibleTick    = time.Millisecond
	visibleTimeout = 10 * time.Second
)

// writer is the ingest connection's closed loop: append a batch, poll the
// dataset's object count until the batch is visible to queries, think, and
// append the next.
func (r *run) writer(c *conn, deadline time.Time, minBatches int) *window {
	out := &window{}
	for i := 0; i < minBatches || time.Now().Before(deadline); i++ {
		rows := r.in.nextRows(r.w)
		out.appends.Attempted++
		start := time.Now()
		err := c.appendRows(r.base, rows)
		acked := time.Now()
		if err != nil {
			out.appends.Failed++
			out.fail("append: %v", err)
			continue
		}
		out.appendMS = append(out.appendMS, ms(acked.Sub(start)))
		r.in.acked = append(r.in.acked, rows...)
		id := r.rec.nextRequest()
		r.rec.add("client.append", start, acked, -1, id)

		out.visibles.Attempted++
		want := r.w.n + len(r.in.acked)
		for {
			n, err := c.objects(r.base)
			now := time.Now()
			if err == nil && n >= want {
				out.visibleMS = append(out.visibleMS, ms(now.Sub(start)))
				r.rec.add("client.visible", start, now, -1, id)
				break
			}
			if now.Sub(start) > visibleTimeout {
				out.visibles.Failed++
				out.fail("append not visible after %v (objects=%d, want %d, err=%v)", visibleTimeout, n, want, err)
				break
			}
			time.Sleep(visibleTick)
		}
		time.Sleep(r.in.thinkTime())
	}
	return out
}

// measure runs the workload's two connections side by side, from a common
// start until both have finished the request that was in flight at the
// deadline.
func (r *run) measure(conns [2]*conn, d time.Duration, minCycles int) *window {
	parts := make([]*window, 2)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c == 0 && r.w.writer {
				parts[c] = r.writer(conns[c], deadline, minCycles)
			} else {
				parts[c] = r.reader(conns[c], r.in.ks[c], deadline, minCycles)
			}
		}()
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// qps is the window's throughput of correctly answered queries.
func (w *window) qps() float64 { return float64(w.queries.ok()) / w.elapsed.Seconds() }

// maxCheckedEpochs bounds the post-window oracle work on ingest: each checked
// epoch costs two index rebuilds and a serial query per k on 100k rows.
const maxCheckedEpochs = 8

// checkIngest verifies the ingest run against an oracle over base + acked
// rows once the load has stopped: the reads of up to maxCheckedEpochs evenly
// spaced epochs, then the server's final object count and its final answer
// at every k.
//
// The server stamps an answer with the epoch current when the answer is
// written, not the one the query ran on, so a publish landing mid-query
// labels the answer one epoch late (publishes are a visibility wait and a
// think time apart, a query is shorter than either). A read is accepted if
// it equals the oracle's answer at its stamped epoch or the one before.
func (r *run) checkIngest(c *conn, win *window) (checkedReads int, err error) {
	acked := r.in.acked
	byEpoch := map[uint64][]read{}
	for _, rd := range win.reads {
		byEpoch[rd.epoch] = append(byEpoch[rd.epoch], rd)
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if len(epochs) > maxCheckedEpochs {
		picked := make([]uint64, maxCheckedEpochs)
		for i := range picked {
			picked[i] = epochs[i*(len(epochs)-1)/(maxCheckedEpochs-1)]
		}
		epochs = picked
	}

	// The writer waits for each batch to be visible before sending the next,
	// so every publish folds exactly one batch: epoch e holds the CSV plus
	// the first e-baseEpoch batches.
	oracle := r.in.base
	appended := 0
	answersAt := func(e uint64, ks map[int]bool) (map[int]tkd.Result, error) {
		rows := int(e-baseEpoch) * appendBatch
		if rows > len(acked) {
			return nil, fmt.Errorf("a read saw epoch %d, past the %d acked batches", e, len(acked)/appendBatch)
		}
		for ; appended < rows; appended++ {
			if err := oracle.Append(acked[appended].ID, acked[appended].Values...); err != nil {
				return nil, err
			}
		}
		out := map[int]tkd.Result{}
		for k := range ks {
			res, err := oracleTopK(oracle, k)
			if err != nil {
				return nil, err
			}
			out[k] = res
		}
		return out, nil
	}
	for _, e := range epochs {
		ks := map[int]bool{}
		for _, rd := range byEpoch[e] {
			ks[rd.k] = true
		}
		before, err := answersAt(e-1, ks)
		if err != nil {
			return checkedReads, err
		}
		at, err := answersAt(e, ks)
		if err != nil {
			return checkedReads, err
		}
		for _, rd := range byEpoch[e] {
			checkedReads++
			if !sameItems(rd.items, at[rd.k]) && !sameItems(rd.items, before[rd.k]) {
				win.queries.Mismatched++
				win.fail("query k=%d stamped epoch %d: answer differs from the oracle at epochs %d and %d", rd.k, e, e-1, e)
			}
		}
	}

	if _, err := answersAt(baseEpoch+uint64(len(acked)/appendBatch), nil); err != nil {
		return checkedReads, err
	}
	n, err := c.objects(r.base)
	if err != nil {
		return checkedReads, err
	}
	if n != r.w.n+len(acked) {
		return checkedReads, fmt.Errorf("final objects = %d, want %d base + %d acked", n, r.w.n, len(acked))
	}
	for _, k := range r.in.ks[1] {
		want, err := oracleTopK(oracle, k)
		if err != nil {
			return checkedReads, err
		}
		resp, err := c.query(r.base, k, false)
		if err != nil {
			return checkedReads, err
		}
		if !sameItems(resp.Items, want) {
			return checkedReads, fmt.Errorf("final answer at k=%d differs from the oracle over base + acked rows", k)
		}
	}
	return checkedReads, nil
}
