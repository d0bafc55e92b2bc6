package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric; BENCHMARK.json at the root of the repository
// lists the same names, units and directions (bench_test.go holds the two
// together). bound, end-to-end only, is the share of the parent's median by
// which a later change may worsen the metric.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the served system sees; every workload reports
// all three, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
}

// perLayer is the traced run's ledger, one block per package; README.md says
// which end-to-end metric each is expected to move, and on which workload.
var perLayer = []metricDef{
	{"client.query_p95_ms", "ms", "lower", 0},
	{"client.query_p99_ms", "ms", "lower", 0},
	{"client.query_max_ms", "ms", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"client.failed", "count", "lower", 0},
	{"client.mismatched", "count", "lower", 0},
	{"client.append_p50_ms", "ms", "lower", 0},
	{"client.append_p95_ms", "ms", "lower", 0},
	{"client.visible_p50_ms", "ms", "lower", 0},
	{"client.visible_p95_ms", "ms", "lower", 0},

	{"server.queue_ms_p50", "ms", "lower", 0},
	{"server.execute_ms_p50", "ms", "lower", 0},
	{"server.http_ms_p50", "ms", "lower", 0},
	{"server.queue_share", "ratio", "lower", 0},
	{"server.execute_share", "ratio", "higher", 0},
	{"server.http_share", "ratio", "lower", 0},
	{"server.batch_size_mean", "count", "lower", 0},
	{"server.coalesced_ratio", "ratio", "lower", 0},
	{"server.rss_peak_mb", "MB", "lower", 0},

	{"core.ibig_ms_p50", "ms", "lower", 0},
	{"core.big_ms_p50", "ms", "lower", 0},
	{"core.ubb_ms_p50", "ms", "lower", 0},
	{"core.workers1_ms_p50", "ms", "lower", 0},
	{"core.workers2_ms_p50", "ms", "lower", 0},
	{"core.ibig_smallcache_ms_p50", "ms", "lower", 0},
	{"core.candidates", "count", "lower", 0},
	{"core.scored", "count", "lower", 0},
	{"core.comparisons", "count", "lower", 0},
	{"core.pruned_h1", "count", "higher", 0},
	{"core.pruned_h2", "count", "higher", 0},
	{"core.pruned_h3", "count", "higher", 0},
	{"core.windows", "count", "lower", 0},

	{"bitmapidx.build_ms", "ms", "lower", 0},
	{"bitmapidx.save_ms", "ms", "lower", 0},
	{"bitmapidx.load_ms", "ms", "lower", 0},
	{"bitmapidx.index_bytes", "B", "lower", 0},
	{"bitmapidx.bytes_per_row", "B", "lower", 0},
	{"bitmapidx.cache_hit_ratio", "ratio", "higher", 0},

	{"data.read_csv_ms", "ms", "lower", 0},
	{"data.fingerprint_ms", "ms", "lower", 0},
	{"data.csv_bytes", "B", "lower", 0},

	{"shard.topk_ms_p50", "ms", "lower", 0},
	{"shard.overhead_ratio", "ratio", "lower", 0},
	{"shard.fanout_per_query", "count", "lower", 0},
	{"shard.tau_pushdowns_per_query", "count", "higher", 0},
	{"shard.scatter_ms_mean", "ms", "lower", 0},
	{"shard.gather_ms_mean", "ms", "lower", 0},

	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.append_nosync_us", "us", "lower", 0},
	{"wal.fsyncs_per_batch", "count", "lower", 0},
	{"wal.bytes_per_row", "B", "lower", 0},
	{"wal.replay_ms", "ms", "lower", 0},

	{"tkd.append_rows_ms", "ms", "lower", 0},
	{"tkd.rebuild_publish_ms", "ms", "lower", 0},
	{"tkd.patched_ratio", "ratio", "higher", 0},
	{"tkd.epoch_export_ms", "ms", "lower", 0},
	{"tkd.epoch_import_ms", "ms", "lower", 0},
	{"tkd.epoch_bytes", "B", "lower", 0},
	{"tkd.delta_export_ms", "ms", "lower", 0},
	{"tkd.delta_apply_ms", "ms", "lower", 0},
	{"tkd.delta_bytes_per_row", "B", "lower", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is one run's complete output; -record keeps them as the trajectory.
type report struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	Env          env            `json:"env"`
	ServerFlags  []string       `json:"server_flags"`
	Rows         int            `json:"rows"`
	CSVBytes     int            `json:"csv_bytes"`
	Fingerprint  string         `json:"fingerprint"`
	Ops          map[string]ops `json:"ops"`
	CheckedReads int            `json:"checked_reads"`
	Correct      bool           `json:"correct"`
	Errors       []string       `json:"errors,omitempty"`
	Metrics      []value        `json:"metrics"`
	// Extra are numbers an untraced run has to hand but does not gate: the
	// ingest writer's medians, which the traced run reports as client.*.
	Extra []value `json:"extra,omitempty"`
}

// setMetrics fills r.Metrics in the order of defs from the measured values,
// refusing a run that did not measure everything it is meant to report.
func (r *report) setMetrics(defs []metricDef, m measured) error {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		v.Unit = d.unit
		r.Metrics = append(r.Metrics, v)
	}
	return nil
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "commit %s %s nproc %d GOMAXPROCS %d\n", r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS)
	fmt.Fprintf(w, "tkdserver flags %v\n", r.ServerFlags)
	fmt.Fprintf(w, "data %d rows, %d CSV bytes, fingerprint %s\n", r.Rows, r.CSVBytes, r.Fingerprint)
	for _, op := range []string{"query", "append", "visible"} {
		o := r.Ops[op]
		fmt.Fprintf(w, "ops %-8s attempted %d failed %d mismatched %d\n", op, o.Attempted, o.Failed, o.Mismatched)
	}
	if r.CheckedReads > 0 {
		fmt.Fprintf(w, "ingest reads checked after the window %d\n", r.CheckedReads)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error %s\n", e)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "metric %-32s %14.4f %-5s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range r.Extra {
		fmt.Fprintf(w, "extra  %-32s %14.4f %-5s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
}

// printResult writes the one-line JSON object the driver reads.
func (r *report) printResult(w io.Writer) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Metrics: map[string]mv{}}
	for _, o := range r.Ops {
		out.Attempted += o.Attempted
		out.Failed += o.Failed + o.Mismatched
	}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printSpread summarises -repeat runs the way the driver judges them: per
// end-to-end metric the quartiles over the runs, their distance as a share
// of the median, and that spread against the metric's bound.
func printSpread(w io.Writer, reports []*report) {
	fmt.Fprintf(w, "# %d runs of %s\n", len(reports), reports[0].Workload)
	for i, d := range endToEnd {
		xs := make([]float64, len(reports))
		for j, r := range reports {
			xs[j] = r.Metrics[i].Value
		}
		q1, med, q3, spread := quartileSpread(xs)
		fmt.Fprintf(w, "spread %-16s q1 %10.4f median %10.4f q3 %10.4f %-4s spread %5.2f%% = %.2f of the %.0f%% bound\n",
			d.name, q1, med, q3, d.unit, 100*spread, spread/d.bound, 100*d.bound)
	}
}
