package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/tkd"
)

// A workload is one traffic mix against one generated dataset. Two
// connections drive it in a closed loop; each cycles its own k values, and
// the two sets are disjoint so the server's scheduler never coalesces two
// requests into one execution (server.coalesced_ratio must read 0) and the
// work done does not depend on how requests happen to line up.
type workload struct {
	name string
	why  string

	// IND data: n rows, dim dimensions, card distinct values, missing rate.
	n, dim, card int
	sigma        float64

	// ks[c] is connection c's key cycle; with writer set, connection 0
	// appends instead and only ks[1] is used.
	ks     [2][]int
	writer bool

	// flags are the tkdserver flags beyond -addr, -dataset and -indexdir;
	// everything else runs at its default.
	flags []string
}

// ingestFlags configure the WAL side of a server. The publish tick is kept
// well under the ≈30 ms a 20-row publish costs on 100k rows, so that
// visible_p50_ms measures the publish and not where in a tick the append
// happened to land.
var ingestFlags = []string{"-fsync", "always", "-publish-interval", "10ms"}

var heavyKs = [2][]int{{4, 8, 16, 32, 64}, {6, 12, 24, 48}}

var workloads = []workload{
	{
		name: "query-heavy",
		why:  "100k x 5 IND rows unsharded: the engine is over 90% of latency, so core, bitmapidx, bitvec and compress changes show and server changes do not",
		n:    100000, dim: 5, card: 100, sigma: 0.2,
		ks: heavyKs,
	},
	{
		name: "query-light",
		why:  "2000 x 4 rows: the engine is about 0.1 ms, so latency is the 2 ms batch window plus HTTP and JSON; server changes show and engine changes do not",
		n:    2000, dim: 4, card: 40, sigma: 0.2,
		ks: [2][]int{{1, 2, 3, 4}, {5, 6, 7}},
	},
	{
		name: "query-sharded",
		why:  "the query-heavy CSV and keys behind -shards 3 in one process: the only difference is the shard scatter/gather, so coordinator changes show here alone",
		n:    100000, dim: 5, card: 100, sigma: 0.2,
		ks:    heavyKs,
		flags: []string{"-shards", "3"},
	},
	{
		name: "ingest",
		why:  "the query-heavy CSV with a WAL writer (20-row appends, fsync always) beside a reader: wal, delta publish and index patching run next to reads",
		n:    100000, dim: 5, card: 100, sigma: 0.2,
		ks:     [2][]int{nil, {8, 16}},
		writer: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// appendBatch is the rows per POST …/append.
const appendBatch = 20

// inputs is everything a run derives from its seed: the CSV the server
// loads, each connection's key order, the rows the writer appends and its
// think times. The server sees only the CSV and the requests.
type inputs struct {
	seed    int64
	csvPath string
	csv     []byte
	base    *tkd.Dataset // the oracle's copy, parsed from the same bytes
	ks      [2][]int     // key cycles in seeded order
	rng     *rand.Rand   // appended rows and think times, writer only
	next    int          // rows drawn so far, which numbers their ids
	acked   []tkd.Row    // appended rows the server acked since boot, in order
	oracle  map[int]tkd.Result
}

// dataSeed fixes which values the generated rows hold. Across generator
// seeds the work of one key cycle on 100k rows moves by 7% (quartile spread
// over ten seeds: the top of a dominance ranking is an extreme-value
// statistic), which would drown any bound the benchmark sets; so the rows
// are always the same multiset and -seed decides their order in the file,
// and with it every row index in every answer.
const dataSeed = 1

// generate writes the workload's CSV under dir and builds the oracle: the
// serial default algorithm on the same bytes, at every k the clients send.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	var buf bytes.Buffer
	if err := tkd.GenerateIND(w.n, w.dim, w.card, w.sigma, dataSeed).WriteCSV(&buf); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	rows := lines[1:] // after the header
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	in := &inputs{seed: seed, csvPath: filepath.Join(dir, "d.csv"), csv: bytes.Join(lines, nil), rng: rng, oracle: map[int]tkd.Result{}}
	if err := os.WriteFile(in.csvPath, in.csv, 0o644); err != nil {
		return nil, err
	}
	base, err := tkd.ReadCSV(bytes.NewReader(in.csv))
	if err != nil {
		return nil, err
	}
	in.base = base
	for c, ks := range w.ks {
		in.ks[c] = append([]int(nil), ks...)
		in.rng.Shuffle(len(ks), func(i, j int) { in.ks[c][i], in.ks[c][j] = in.ks[c][j], in.ks[c][i] })
	}
	for _, k := range append([]int{readyK}, cycle(in)...) {
		if in.oracle[k], err = oracleTopK(base, k); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// oracleTopK is the reference every served answer is compared with.
func oracleTopK(ds *tkd.Dataset, k int) (tkd.Result, error) {
	return ds.TopK(k, tkd.WithWorkers(1))
}

// nextRows draws the writer's next batch: values uniform over the CSV's
// domain with its missing rate, at least one observed, ids continuing the
// CSV's numbering.
func (in *inputs) nextRows(w workload) []tkd.Row {
	rows := make([]tkd.Row, appendBatch)
	for i := range rows {
		vals := make([]float64, w.dim)
		observed := false
		for d := range vals {
			if in.rng.Float64() < w.sigma {
				vals[d] = tkd.Missing
				continue
			}
			vals[d] = float64(in.rng.Intn(w.card))
			observed = true
		}
		if !observed {
			vals[in.rng.Intn(w.dim)] = float64(in.rng.Intn(w.card))
		}
		rows[i] = tkd.Row{ID: fmt.Sprintf("a%d", in.next), Values: vals}
		in.next++
	}
	return rows
}

// thinkTime is the writer's seeded pause between one batch becoming visible
// and the next append: exponential, so the writer does not lock step with
// the server's publish ticker.
func (in *inputs) thinkTime() time.Duration {
	return time.Duration(in.rng.ExpFloat64() * float64(meanThink))
}

const meanThink = 5 * time.Millisecond
