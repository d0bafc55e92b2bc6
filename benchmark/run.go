package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options size one run; fullScale is what BENCHMARK.json's command runs and
// bench_test.go shrinks it to a smoke test.
type options struct {
	seed   int64
	window time.Duration
	traced bool
	// A run boots cold servers for setup_s until it has minBoots of them and
	// bootTime of booting, 25 at most. One boot of a quarter second moves
	// ±15% from run to run, and a 10 ms boot (query-light) more; the median
	// of 8 and of 25 boots respectively moves a few percent.
	minBoots int
	bootTime time.Duration
	// warmup runs untimed before the window: at least this long and at least
	// two full key cycles per connection, so caches and connections are warm.
	warmup time.Duration
	// probe is how long a traced run of a workload without a writer drives a
	// sibling ingest server for client.append_* and client.visible_*.
	probe time.Duration
}

const maxBoots = 25

func fullScale(seed int64, seconds int, traced bool) options {
	return options{seed: seed, window: time.Duration(seconds) * time.Second, traced: traced,
		minBoots: 7, bootTime: 2 * time.Second, warmup: 2 * time.Second, probe: 3 * time.Second}
}

// runOnce is one benchmark run: generate, boot, warm up, measure, check.
func runOnce(w workload, o options, root, dir, bin string) (*report, error) {
	dir, err := os.MkdirTemp(dir, "seed")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := generate(w, o.seed, dir)
	if err != nil {
		return nil, err
	}
	conns := [2]*conn{newConn(), newConn()}
	defer conns[0].close()
	defer conns[1].close()

	// Set-up: cold boots back to back, each with fresh state directories;
	// the last server stays up for the window. A traced run reports no
	// setup_s and boots once.
	if o.traced {
		o.minBoots, o.bootTime = 1, 0
	}
	var p *proc
	var bootS []float64
	var booting time.Duration
	for len(bootS) < o.minBoots || (booting < o.bootTime && len(bootS) < maxBoots) {
		if p != nil {
			p.stop()
		}
		var took time.Duration
		if p, took, err = boot(bin, w, in, dir, conns[0]); err != nil {
			return nil, err
		}
		bootS = append(bootS, took.Seconds())
		booting += took
	}
	defer p.stop()

	rep := &report{
		Workload: w.name, Seed: o.seed, Seconds: o.window.Seconds(), Traced: o.traced,
		ServerFlags: p.flags, Rows: w.n, CSVBytes: len(in.csv),
		Fingerprint: fmt.Sprintf("%016x", in.base.Fingerprint()),
	}
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	r := &run{w: w, in: in, base: p.base, rec: rec}
	r.measure(conns, o.warmup, 2)

	// An untraced run measures one plain window; a traced run halves it and
	// asks for the explain trace in the second half.
	var plain, explained *window
	all := &window{}
	if !o.traced {
		plain = r.measure(conns, o.window, 0)
		all = plain
	} else {
		plain = r.measure(conns, o.window/2, 0)
		r.explain = true
		explained = r.measure(conns, o.window/2, 0)
		all.merge(plain)
		all.merge(explained)
	}
	rep.Correct = true
	if w.writer {
		rep.CheckedReads, err = r.checkIngest(conns[1], all)
		if err != nil {
			all.fail("%v", err)
			rep.Correct = false
		}
	}
	rep.Ops = map[string]ops{"query": all.queries, "append": all.appends, "visible": all.visibles}
	rep.Errors = all.errs
	if all.queries.Mismatched > 0 {
		rep.Correct = false
	}
	rss := p.rssPeakMB()
	p.stop() // the machine belongs to what follows

	m := measured{}
	set := m.set
	if !o.traced {
		set("setup_s", median(bootS), len(bootS))
		set("query_qps", plain.qps(), plain.queries.ok())
		set("query_p50_ms", median(plain.queryMS), len(plain.queryMS))
		if w.writer {
			rep.Extra = []value{
				{"client.append_p50_ms", median(plain.appendMS), "ms", len(plain.appendMS)},
				{"client.visible_p50_ms", median(plain.visibleMS), "ms", len(plain.visibleMS)},
			}
		}
		return rep, rep.setMetrics(endToEnd, m)
	}

	nq := len(plain.queryMS)
	set("client.query_p95_ms", quantile(plain.queryMS, 0.95), nq)
	set("client.query_p99_ms", quantile(plain.queryMS, 0.99), nq)
	set("client.query_max_ms", maxOf(plain.queryMS), nq)
	set("client.samples", float64(nq), nq)
	set("client.failed", float64(all.queries.Failed+all.appends.Failed+all.visibles.Failed), all.queries.Attempted)
	set("client.mismatched", float64(all.queries.Mismatched), all.queries.Attempted)
	writes := plain
	if !w.writer {
		// No writer in this workload's mix: the write-side client numbers
		// come from a sibling server that ingests the same CSV, driven by
		// the ingest workload's writer alone.
		if writes, err = writeProbe(w, in, o, bin, dir, conns[0], rec); err != nil {
			return nil, err
		}
		rep.Ops["append"], rep.Ops["visible"] = writes.appends, writes.visibles
		rep.Errors = append(rep.Errors, writes.errs...)
	}
	set("client.append_p50_ms", median(writes.appendMS), len(writes.appendMS))
	set("client.append_p95_ms", quantile(writes.appendMS, 0.95), len(writes.appendMS))
	set("client.visible_p50_ms", median(writes.visibleMS), len(writes.visibleMS))
	set("client.visible_p95_ms", quantile(writes.visibleMS, 0.95), len(writes.visibleMS))

	ne := len(explained.queueMS)
	set("server.queue_ms_p50", median(explained.queueMS), ne)
	set("server.execute_ms_p50", median(explained.executeMS), ne)
	set("server.http_ms_p50", median(explained.httpMS), ne)
	set("server.queue_share", median(explained.queueShare), ne)
	set("server.execute_share", median(explained.executeShare), ne)
	set("server.http_share", median(explained.httpShare), ne)
	set("server.batch_size_mean", mean(all.batchSizes), len(all.batchSizes))
	set("server.coalesced_ratio", ratio(float64(all.coalesced), float64(len(all.batchSizes))), len(all.batchSizes))
	set("server.rss_peak_mb", rss, 1)

	set("obs.trace_overhead_pct", 100*(1-ratio(explained.qps(), plain.qps())), explained.queries.ok())

	// The server is idle from here on; the direct calls have the machine.
	if err := layers(w, in, rec, dir, m); err != nil {
		return nil, err
	}
	results := filepath.Join(root, "benchmark", "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(results, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return rep, rep.setMetrics(perLayer, m)
}

// writeProbe boots an unsharded server with the ingest flags on the run's
// CSV and runs the writer loop against it for o.probe.
func writeProbe(w workload, in *inputs, o options, bin, dir string, c *conn, rec *recorder) (*window, error) {
	w.writer, w.flags = true, nil
	p, _, err := boot(bin, w, in, dir, c)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	r := &run{w: w, in: in, base: p.base, rec: rec}
	return r.writer(c, time.Now().Add(o.probe), 1), nil
}
