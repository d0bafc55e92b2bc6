package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// metricValue returns the value of one series of a /metrics body; series is
// spelled as the exposition prints it, labels included.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` ([0-9.e+-]+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// goldenMetricTypes is the /metrics surface: every family the server serves
// and its TYPE, sorted. A dashboard is built on these names; a line may
// leave this list (with its README glossary row and a DESIGN.md note) but
// must not change.
const goldenMetricTypes = `# TYPE tkd_build_info gauge
# TYPE tkd_cache_hits_total counter
# TYPE tkd_coalesced_queries_total counter
# TYPE tkd_columns_served_total counter
# TYPE tkd_dataset_epoch gauge
# TYPE tkd_dataset_evictions_total counter
# TYPE tkd_dataset_reloads_total counter
# TYPE tkd_dataset_shards gauge
# TYPE tkd_epoch_delta_ship_bytes_total counter
# TYPE tkd_epoch_delta_ships_total counter
# TYPE tkd_follower_delta_syncs_total counter
# TYPE tkd_follower_epoch_lag gauge
# TYPE tkd_follower_sync_errors_total counter
# TYPE tkd_follower_syncs_total counter
# TYPE tkd_index_builds_total counter
# TYPE tkd_index_cache_errors_total counter
# TYPE tkd_index_warm_loads_total counter
# TYPE tkd_kernel_decompress_fallbacks_total counter
# TYPE tkd_kernel_native_hits_total counter
# TYPE tkd_pruned_objects_total counter
# TYPE tkd_queries_total counter
# TYPE tkd_query_deadline_exceeded_total counter
# TYPE tkd_query_errors_total counter
# TYPE tkd_query_stage_seconds histogram
# TYPE tkd_shard_breaker_state gauge
# TYPE tkd_shard_degraded_queries_total counter
# TYPE tkd_shard_fanout_total counter
# TYPE tkd_shard_latency_seconds histogram
# TYPE tkd_shard_replicas_healthy gauge
# TYPE tkd_shard_retries_total counter
# TYPE tkd_shard_tau_pushdowns_total counter
# TYPE tkd_standing_evals_total counter
# TYPE tkd_standing_subscribers gauge
# TYPE tkd_wal_appends_total counter
# TYPE tkd_wal_fsyncs_total counter`

// checkExposition parses one scrape line by line and holds it to the text
// format: HELP then TYPE once per family and before its first sample, no
// sample outside a declared family, no (name, labels) pair twice, histogram
// buckets cumulative-monotone with +Inf equal to _count. It returns the
// sorted TYPE lines and the families that carried at least one sample.
func checkExposition(t *testing.T, body string) (types []string, sampled map[string]bool) {
	t.Helper()
	typeOf := map[string]string{} // family -> TYPE, set when its TYPE line is read
	helped := map[string]bool{}
	sampled = map[string]bool{}
	seen := map[string]bool{}
	lastBucket := map[string]float64{} // histogram series -> previous cumulative bucket
	infBucket := map[string]float64{}
	sampleRE := regexp.MustCompile(`^([a-z_]+)(?:\{(.*)\})? (\S+)$`)
	leRE := regexp.MustCompile(`,?le="([^"]*)"`)
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if helped[name] {
				fail("second HELP for the family")
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := typeOf[name]; dup {
				fail("second TYPE for the family")
			}
			if !helped[name] {
				fail("TYPE before HELP")
			}
			if sampled[name] {
				fail("TYPE after the family's first sample")
			}
			typeOf[name] = typ
			types = append(types, line)
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			fail("neither a comment nor a sample")
			continue
		}
		name, labels := m[1], m[2]
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			fail("value does not parse: %v", err)
		}
		if seen[name+"{"+labels+"}"] {
			fail("duplicate sample")
		}
		seen[name+"{"+labels+"}"] = true
		fam, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, sfx); ok && typeOf[base] == "histogram" {
				fam, suffix = base, sfx
			}
		}
		if _, ok := typeOf[fam]; !ok {
			fail("sample of a family with no TYPE line before it")
		}
		if (typeOf[fam] == "histogram") != (suffix != "") {
			fail("sample name does not fit the family's TYPE %q", typeOf[fam])
		}
		sampled[fam] = true
		switch suffix {
		case "_bucket":
			le := leRE.FindStringSubmatch(labels)
			if le == nil {
				fail("bucket without an le label")
				continue
			}
			series := fam + "{" + leRE.ReplaceAllString(labels, "") + "}"
			if v < lastBucket[series] {
				fail("cumulative bucket fell from %v", lastBucket[series])
			}
			lastBucket[series] = v
			if le[1] == "+Inf" {
				infBucket[series] = v
			}
		case "_count":
			if inf, ok := infBucket[fam+"{"+labels+"}"]; !ok || inf != v {
				fail("_count %v but the +Inf bucket read %v (present: %v)", v, inf, ok)
			}
		}
	}
	sort.Strings(types)
	return types, sampled
}

// TestMetricsExposition scrapes a leader holding an unsharded ingesting
// dataset and a three-shard one, and a follower of it holding both as
// followed datasets (one server cannot be both: a follower does not ingest),
// after traffic on every path. Each scrape must be well-formed and declare
// exactly the golden families; between them every family must carry a
// sample, so no row of the table is dead.
func TestMetricsExposition(t *testing.T) {
	d := newIngestDirs(t, tkd.GenerateIND(600, 4, 20, 0.2, 91))
	leader, lts := startIngestServer(t, ingestConfig(d, 10*time.Millisecond), d)
	defer func() { lts.Close(); leader.Close() }()
	three, err := tkd.Shard(tkd.GenerateIND(600, 4, 20, 0.2, 92), "s", tkd.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AddDataset("s", three); err != nil {
		t.Fatal(err)
	}
	fol := server.New(server.Config{Follow: lts.URL, FollowInterval: 10 * time.Millisecond})
	fts := httptest.NewServer(fol)
	defer func() { fts.Close(); fol.Close() }()

	appendRows(t, lts.URL, []server.AppendRow{{ID: "new", Values: []*float64{fptr(1), fptr(2), nil, fptr(4)}}})
	waitUntil(t, "follower convergence", func() bool {
		at := listDatasets(t, fts.URL)
		return at["s"].Followed && at["d"].Followed && at["d"].Objects == 601
	})
	for _, url := range []string{lts.URL, fts.URL} {
		for _, name := range []string{"d", "s"} {
			if code, body := doJSON(t, http.MethodPost, url+"/v1/datasets/"+name+"/query", map[string]any{"k": 4}); code != http.StatusOK {
				t.Fatalf("query %s answered %d: %s", name, code, body)
			}
		}
	}

	sampled := map[string]bool{}
	for _, srv := range []struct{ role, url string }{{"leader", lts.URL}, {"follower", fts.URL}} {
		types, got := checkExposition(t, getBody(t, srv.url+"/metrics"))
		if strings.Join(types, "\n") != goldenMetricTypes {
			t.Errorf("%s: TYPE lines moved; got\n%s", srv.role, strings.Join(types, "\n"))
		}
		for fam := range got {
			sampled[fam] = true
		}
	}
	// The two replica gauges have samples only behind remote replica sets;
	// TestServerReplicaFailover reads them there.
	sampled["tkd_shard_breaker_state"], sampled["tkd_shard_replicas_healthy"] = true, true
	for _, line := range strings.Split(goldenMetricTypes, "\n") {
		if fam := strings.Fields(line)[2]; !sampled[fam] {
			t.Errorf("family %s carried no sample on the leader or the follower", fam)
		}
	}
}
