package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("root")
	h := tr.Root().Traceparent()
	if len(h) != traceparentLen {
		t.Fatalf("traceparent %q has length %d, want %d", h, len(h), traceparentLen)
	}
	tid, sid, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q does not parse", h)
	}
	if tid != tr.ID() {
		t.Fatalf("trace ID round trip: got %s, want %s", tid, tr.ID())
	}
	if sid != tr.Root().ID() {
		t.Fatalf("span ID round trip: got %s, want %s", sid, tr.Root().ID())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatal("spec example rejected")
	}
	// Future version with a trailing extension field is legal.
	if _, _, ok := ParseTraceparent("01" + valid[2:] + "-extra"); !ok {
		t.Fatal("versioned header with dash-separated extension rejected")
	}
	bad := []string{
		"",
		"not a header",
		valid[:54],       // truncated
		valid + "x",      // junk glued on without a dash
		"ff" + valid[2:], // reserved version
		"00-" + strings.Repeat("0", 32) + valid[35:],              // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + "-01",              // zero span ID
		strings.ToUpper(valid),                                    // uppercase hex
		strings.Replace(valid, "-", "_", 3),                       // wrong separators
		"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01", // non-hex digit
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("malformed %q accepted", h)
		}
	}
}

func TestAdoptContinuesRemoteTrace(t *testing.T) {
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr := Adopt(h, "peer")
	if !tr.Remote() {
		t.Fatal("adopted trace not marked remote")
	}
	if got := tr.ID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("adopted trace ID %s", got)
	}
	j := tr.JSON()
	if j.ParentSpan != "00f067aa0ba902b7" {
		t.Fatalf("parent span %q", j.ParentSpan)
	}
	// Malformed header: still get a usable fresh trace.
	tr2 := Adopt("garbage", "peer")
	if tr2 == nil || tr2.Remote() || tr2.ID().IsZero() {
		t.Fatalf("malformed adopt: %+v", tr2)
	}
}

// TestAdoptersMintDistinctSpanIDs: two processes adopting the same
// traceparent contribute spans to the same distributed trace, so their
// span-ID sequences must not collide — the per-trace base has to be
// process-random, not derived from the (shared) trace ID.
func TestAdoptersMintDistinctSpanIDs(t *testing.T) {
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	ids := make(map[string]bool)
	for peer := 0; peer < 2; peer++ {
		tr := Adopt(h, "peer")
		for i := 0; i < 4; i++ {
			sp := tr.Root().StartChild("work")
			if id := sp.ID().String(); ids[id] {
				t.Fatalf("span ID %s minted twice across adopters of one trace", id)
			} else {
				ids[id] = true
			}
			sp.End()
		}
	}
}

// TestNilSafety drives the full API through nil receivers: every call must
// no-op, because instrumented code never guards these calls.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	var sp *Span
	_ = tr.ID()
	_ = tr.Remote()
	_ = tr.Dropped()
	if tr.Root() != nil || tr.JSON() != nil {
		t.Fatal("nil trace yielded non-nil parts")
	}
	tr.Walk(func(*Span) { t.Fatal("walked a nil trace") })
	if c := sp.StartChild("x"); c != nil {
		t.Fatal("nil span minted a child")
	}
	if c := sp.ChildAt("x", time.Now(), time.Now()); c != nil {
		t.Fatal("nil span minted a timed child")
	}
	sp.Adopt(nil)
	sp.End()
	sp.SetInt("k", 1)
	sp.SetStr("s", "v")
	sp.SampleTau(0, -1)
	sp.SetRemote(&RemoteSummary{})
	if sp.Name() != "" || !sp.ID().IsZero() || sp.Duration() != 0 || sp.Traceparent() != "" {
		t.Fatal("nil span leaked state")
	}
	var ql *QueryLog
	ql.Add(QueryEntry{})
	if ql.Recent(5) != nil || ql.Slowest(5) != nil {
		t.Fatal("nil query log returned entries")
	}
}

// TestNilPathAllocationFree pins the tracing-off contract: with a nil span,
// the instrumentation sequence the hot path runs (child, annotate, sample,
// end) allocates nothing.
func TestNilPathAllocationFree(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(100, func() {
		c := sp.StartChild("engine")
		c.SetInt("k", 8)
		c.SampleTau(100, 42)
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("tracing-off path allocates %.1f per op, want 0", allocs)
	}
}

func TestSpanTreeAndJSON(t *testing.T) {
	tr := New("query")
	root := tr.Root()
	root.SetStr("dataset", "d")
	eng := root.StartChild("engine")
	eng.SetInt("pruned_h1", 7)
	eng.SampleTau(0, -1)
	eng.SampleTau(500, 12)
	sc := eng.StartChild("scatter")
	sh := sc.StartChild("shard")
	sh.SetRemote(&RemoteSummary{TraceID: tr.ID().String(), SpanID: "abcd", ServiceUS: 9, Rows: 100, Results: 3})
	sh.End()
	sc.End()
	eng.End()
	root.End()

	j := tr.JSON()
	if j.TraceID != tr.ID().String() || j.Root == nil {
		t.Fatalf("bad render: %+v", j)
	}
	var names []string
	tr.Walk(func(s *Span) { names = append(names, s.Name()) })
	want := []string{"query", "engine", "scatter", "shard"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("walk order %v, want %v", names, want)
	}
	engJSON := j.Root.Children[0]
	if engJSON.Attrs["pruned_h1"] != int64(7) {
		t.Fatalf("engine attrs: %v", engJSON.Attrs)
	}
	if len(engJSON.Tau) != 2 || engJSON.Tau[0] != [2]int{0, -1} || engJSON.Tau[1] != [2]int{500, 12} {
		t.Fatalf("tau trajectory: %v", engJSON.Tau)
	}
	shJSON := engJSON.Children[0].Children[0]
	if shJSON.Remote == nil || shJSON.Remote.Rows != 100 {
		t.Fatalf("remote summary lost: %+v", shJSON.Remote)
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New("root")
	for i := 0; i < MaxSpans+50; i++ {
		tr.Root().StartChild("w")
	}
	if d := tr.Dropped(); d != 51 { // root consumed one of the MaxSpans slots
		t.Fatalf("dropped %d spans, want 51", d)
	}
	n := 0
	tr.Walk(func(*Span) { n++ })
	if n != MaxSpans {
		t.Fatalf("retained %d spans, want %d", n, MaxSpans)
	}
	if tr.JSON().Dropped != 51 {
		t.Fatalf("JSON dropped = %d", tr.JSON().Dropped)
	}
}

// TestAdoptSharedSubtree is the coalescing contract: a completed execution
// subtree grafted into a second trace renders there with its original span
// IDs intact.
func TestAdoptSharedSubtree(t *testing.T) {
	host := New("first")
	exec := host.Root().StartChild("execute")
	exec.StartChild("engine").End()
	exec.End()
	host.Root().End()

	other := New("coalesced")
	other.Root().Adopt(exec)
	other.Root().End()

	j := other.JSON()
	if len(j.Root.Children) != 1 || j.Root.Children[0].Name != "execute" {
		t.Fatalf("adopted subtree missing: %+v", j.Root)
	}
	if j.Root.Children[0].SpanID != exec.ID().String() {
		t.Fatal("adopted span lost its original ID")
	}
}

func TestQueryLogRingAndSlowBoard(t *testing.T) {
	l := NewQueryLog(16)
	for i := 0; i < 40; i++ {
		l.Add(QueryEntry{K: i, Duration: time.Duration(i%7) * time.Millisecond})
	}
	recent := l.Recent(100)
	if len(recent) != 16 {
		t.Fatalf("ring holds %d, want 16", len(recent))
	}
	if recent[0].K != 39 || recent[15].K != 24 {
		t.Fatalf("not newest-first: first K=%d last K=%d", recent[0].K, recent[15].K)
	}
	slow := l.Slowest(5)
	if len(slow) != 5 {
		t.Fatalf("slow board returned %d", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration > slow[i-1].Duration {
			t.Fatalf("slow board unsorted at %d: %v", i, slow)
		}
	}
	if slow[0].Duration != 6*time.Millisecond {
		t.Fatalf("slowest = %v", slow[0].Duration)
	}
}

// TestArenaListsStayApart grows every span's lists past what the inline
// arenas carved for it, interleaved across spans, and checks no span's
// attributes, τ samples or children land in another's: a carved list must
// never grow into its neighbour's slots. It also pins a served query's tree
// to one allocation beyond the engine's attribute list.
func TestArenaListsStayApart(t *testing.T) {
	tr := New("root")
	spans := []*Span{tr.Root()}
	for i := 0; i < 2*arenaSpans; i++ {
		spans = append(spans, tr.Root().StartChild(fmt.Sprintf("c%d", i)))
	}
	for round := 0; round < 3*arenaAttrs; round++ {
		for i, sp := range spans {
			sp.SetInt(fmt.Sprintf("s%d", i), int64(round))
			sp.SampleTau(round, i)
			if round < 3 {
				sp.StartChild(fmt.Sprintf("g%d.%d", i, round))
			}
		}
	}
	out := tr.JSON()
	var check func(i int, s *SpanJSON)
	check = func(i int, s *SpanJSON) {
		if len(s.Attrs) != 1 || len(s.Tau) != 3*arenaAttrs {
			t.Fatalf("span %s: %d attrs, %d τ samples; want 1 and %d", s.Name, len(s.Attrs), len(s.Tau), 3*arenaAttrs)
		}
		if v := s.Attrs[fmt.Sprintf("s%d", i)]; v != int64(3*arenaAttrs-1) {
			t.Fatalf("span %s: attribute s%d = %v, want %d", s.Name, i, v, 3*arenaAttrs-1)
		}
		for j, ts := range s.Tau {
			if ts != [2]int{j, i} {
				t.Fatalf("span %s: τ sample %d = %v, want %v", s.Name, j, ts, [2]int{j, i})
			}
		}
	}
	check(0, out.Root)
	if len(out.Root.Children) != 2*arenaSpans+3 {
		t.Fatalf("root has %d children, want %d", len(out.Root.Children), 2*arenaSpans+3)
	}
	for i, c := range out.Root.Children[:2*arenaSpans] {
		check(i+1, c)
		for r, g := range c.Children {
			if want := fmt.Sprintf("g%d.%d", i+1, r); g.Name != want || len(c.Children) != 3 {
				t.Fatalf("span %s: child %d is %s of %d, want %s of 3", c.Name, r, g.Name, len(c.Children), want)
			}
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		tr := New("query")
		root := tr.Root()
		root.SetAttrs(Attr{Key: "dataset", Str: "d", IsStr: true}, Attr{Key: "k", Int: 3}, Attr{Key: "algorithm", Str: "IBIG", IsStr: true})
		now := time.Now()
		root.ChildAt("queue", now, now)
		exec := root.StartChild("execute")
		exec.SetAttrs(Attr{Key: "batch", Int: 1}, Attr{Key: "granted", Int: 1})
		eng := exec.StartChild("engine")
		eng.SampleTau(1, 2)
		eng.SampleTau(2, 3)
		eng.End()
		exec.End()
		root.End()
		tr.Walk(func(*Span) {})
	})
	if allocs != 1 && !raceEnabled {
		t.Fatalf("a served query's trace without the engine's attributes costs %v allocations, want 1", allocs)
	}
}
