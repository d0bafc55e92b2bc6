// Package obs is the zero-dependency tracing spine of the serving path: a
// per-query trace tree whose spans record where time went (scheduler queue
// wait, engine windows, shard scatter phases, replica attempts) and what the
// paper's pruning machinery did (H1/H2/H3 counts, τ trajectory samples).
//
// Design constraints, in order:
//
//   - Nil-safe and off by default. Every method on *Trace and *Span is a
//     no-op on a nil receiver, so instrumented code calls span methods
//     unconditionally and a library user who never starts a trace pays one
//     predictable nil check — no allocation, no atomic, no map lookup — on
//     the engine hot path.
//   - Bounded. A trace holds at most MaxSpans spans; past the cap new spans
//     are counted as dropped instead of growing without bound (a Naive scan
//     over a large dataset would otherwise mint a span per window per shard).
//   - Wire-portable. Trace identity follows the W3C trace-context
//     traceparent format, so a trace started by an upstream proxy is adopted
//     rather than restarted, and the coordinator propagates the same ID to
//     remote shard peers.
//
// Spans travel as arguments, never as context.Context values: a traced call
// takes its parent span as a parameter or a request field (tkd.Query.Trace,
// core.RunContext, shard.RunOptions.Trace, shard.Request.Span), so a nil span
// is the whole of "untraced" and opening a child costs no context wrapper.
//
// Completed traces are immutable and safe to share: the scheduler stamps one
// execution subtree into every coalesced waiter's trace by reference.
//
// Economy. A trace is always on for a served query, so it costs as few heap
// objects as it can: New makes one crypto/rand read (the trace ID and the
// span-ID base together), and a Trace carries small inline arenas that its
// first spans, attributes, child slots and τ samples are carved from — a
// served query's tree fits them but for the engine's attribute list. Past
// the arenas a span's lists grow on the heap as before; a carved list has
// exactly its carved capacity, so it never grows into a neighbour's slots.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) identifier.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// MaxSpans caps how many spans one trace retains; later spans are dropped
// (and counted) rather than recorded.
const MaxSpans = 512

// The inline arenas' sizes. A served query's tree is four spans (query,
// queue, execute, engine), three child slots, a few τ samples and seventeen
// attributes — twelve of them the engine's, in one list. The attribute arena
// holds the other five: every byte of an arena is zeroed and collected with
// the trace, and twelve more attributes would cost ~580 B to save one
// allocation.
const (
	arenaSpans    = 4
	arenaAttrs    = 8
	arenaChildren = 4
	arenaTau      = 4
	attrCarve     = 2 // attribute slots a span's first attributes carve at least
	childCarve    = 2 // child slots a span's first child carves
)

// Trace is one query's span tree. Create with New or Adopt; a nil *Trace is
// a valid "tracing off" value whose methods all no-op.
type Trace struct {
	id      TraceID
	parent  SpanID // span of the remote caller when adopted, else zero
	remote  bool
	sidBase uint64 // per-trace random base the span-ID sequence mixes into

	mu      sync.Mutex
	seq     uint64 // span-ID sequence within this trace
	nspans  int
	dropped int
	root    *Span

	// The inline arenas and how much of each is carved, under mu.
	spanArena  [arenaSpans]Span
	attrArena  [arenaAttrs]Attr
	childArena [arenaChildren]*Span
	tauArena   [arenaTau]TauSample
	nattr      int
	nchild     int
	ntau       int
}

// newSpanIDBase draws the per-trace random base span IDs derive from. One
// crypto/rand read per trace (not per span); it must be process-random, not
// a function of the trace ID: two peers adopting the same distributed trace
// would otherwise mint identical span-ID sequences and collide within it.
func newSpanIDBase(id TraceID) uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return spanIDBaseFallback(id)
	}
	return binary.BigEndian.Uint64(b[:])
}

// spanIDBaseFallback is the span-ID base when crypto/rand fails.
func spanIDBaseFallback(id TraceID) uint64 {
	return binary.BigEndian.Uint64(id[8:]) ^ uint64(time.Now().UnixNano())
}

// New starts a trace with a fresh random ID and a root span named name. One
// crypto/rand read draws the trace ID and the span-ID base together.
func New(name string) *Trace {
	t := &Trace{}
	var b [len(TraceID{}) + 8]byte
	_, err := rand.Read(b[:])
	copy(t.id[:], b[:])
	t.sidBase = binary.BigEndian.Uint64(b[len(t.id):])
	if err != nil || t.id.IsZero() {
		// crypto/rand never fails on supported platforms; keep the trace
		// usable (and the ID valid) regardless.
		binary.BigEndian.PutUint64(t.id[:8], uint64(time.Now().UnixNano()))
		t.id[15] |= 1
		t.sidBase = spanIDBaseFallback(t.id)
	}
	t.root = t.newSpan(name, time.Now())
	return t
}

// Adopt continues the trace identified by a W3C traceparent header,
// recording the remote span as the parent of the root. A malformed or
// absent header is not an error: the query still deserves a trace, so Adopt
// falls back to New.
func Adopt(traceparent, name string) *Trace {
	tid, sid, ok := ParseTraceparent(traceparent)
	if !ok {
		return New(name)
	}
	t := &Trace{id: tid, parent: sid, remote: true, sidBase: newSpanIDBase(tid)}
	t.root = t.newSpan(name, time.Now())
	return t
}

// ID returns the trace identifier (zero on nil).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Remote reports whether the trace ID was adopted from an incoming
// traceparent header rather than generated locally.
func (t *Trace) Remote() bool { return t != nil && t.remote }

// Root returns the root span (nil on nil, so the whole span API chains).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Dropped reports how many spans the MaxSpans cap discarded.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// newSpan makes a span with the next in-trace span ID. Caller holds no
// lock; the method takes t.mu itself.
func (t *Trace) newSpan(name string, start time.Time) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newSpanLocked(name, start)
}

// newSpanLocked is newSpan under t.mu: the span is carved from the span
// arena while it lasts, and allocated after.
func (t *Trace) newSpanLocked(name string, start time.Time) *Span {
	t.seq++
	t.nspans++
	var sid SpanID
	// Span IDs need to be unique within the distributed trace (which other
	// processes contribute spans to) and nonzero on the wire; sequencing
	// over a per-trace random base avoids a crypto/rand read per span while
	// keeping two adopters of the same trace ID from colliding.
	v := t.sidBase ^ (t.seq * 0x9e3779b97f4a7c15)
	if v == 0 {
		v = t.seq
	}
	binary.BigEndian.PutUint64(sid[:], v)
	if i := t.nspans - 1; i < arenaSpans {
		t.spanArena[i] = Span{tr: t, id: sid, name: name, start: start}
		return &t.spanArena[i]
	}
	return &Span{tr: t, id: sid, name: name, start: start}
}

// addAttrs appends src to a span's attributes dst; t.mu is held. A span's
// first attributes are carved from the arena when they fit it, with room for
// at least attrCarve.
func (t *Trace) addAttrs(dst []Attr, src ...Attr) []Attr {
	if n := max(len(src), attrCarve); dst == nil && t.nattr+n <= arenaAttrs {
		dst = t.attrArena[t.nattr : t.nattr : t.nattr+n]
		t.nattr += n
	}
	return append(dst, src...)
}

// addChild appends c to a span's children dst; t.mu is held. A span's first
// child carves childCarve slots from the arena when they fit it.
func (t *Trace) addChild(dst []*Span, c *Span) []*Span {
	if dst == nil && t.nchild+childCarve <= arenaChildren {
		dst = t.childArena[t.nchild : t.nchild : t.nchild+childCarve]
		t.nchild += childCarve
	}
	return append(dst, c)
}

// addTau appends ts to a span's τ trajectory dst; t.mu is held. One span's
// first sample carves the whole τ arena.
func (t *Trace) addTau(dst []TauSample, ts TauSample) []TauSample {
	if dst == nil && t.ntau == 0 {
		dst = t.tauArena[:0:arenaTau]
		t.ntau = arenaTau
	}
	return append(dst, ts)
}

// Attr is one key/value annotation on a span. Values are either int64 or
// string — a closed set keeps recording free of interface boxing.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// TauSample is one point of the τ trajectory: the queue position (candidates
// popped so far) and the threshold in force there.
type TauSample struct {
	Pos int
	Tau int
}

// Span is one timed node of a trace. All methods are nil-receiver safe.
// A span is written by the goroutine that started it; concurrent children
// (scatter fan-out, replica attempts) each get their own span, with the
// shared tree structure guarded by the trace mutex.
type Span struct {
	tr    *Trace
	id    SpanID
	name  string
	start time.Time
	end   time.Time

	attrs    []Attr
	tau      []TauSample
	children []*Span
	remote   *RemoteSummary
}

// RemoteSummary is the peer-side report a shard RPC stamps into its span:
// the remote trace identity plus the service timing measured on the far side
// of the wire (the gap to the local span duration is network + queueing).
type RemoteSummary struct {
	TraceID   string `json:"trace_id"`
	SpanID    string `json:"span_id"`
	ServiceUS int64  `json:"service_us"`
	Rows      int    `json:"rows"`
	Results   int    `json:"results"`
}

// StartChild starts a child span. Returns nil (and records nothing) on a
// nil receiver or once the trace's span cap is hit.
func (s *Span) StartChild(name string) *Span {
	return s.childAt(name, time.Now(), time.Time{})
}

// ChildAt records a child span with explicit start and end times — for
// intervals measured before a span could be attached (queue wait, whose
// start predates knowing which execution will serve it).
func (s *Span) ChildAt(name string, start, end time.Time) *Span {
	return s.childAt(name, start, end)
}

func (s *Span) childAt(name string, start, end time.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nspans >= MaxSpans {
		t.dropped++
		return nil
	}
	c := t.newSpanLocked(name, start)
	c.end = end
	s.children = t.addChild(s.children, c)
	return c
}

// Adopt attaches a completed span from another trace as a child — how a
// coalesced waiter's trace shares the single execution subtree. The adopted
// span must be finished (immutable); it keeps its original trace's IDs.
func (s *Span) Adopt(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.tr.mu.Lock()
	s.children = s.tr.addChild(s.children, child)
	s.tr.mu.Unlock()
}

// End stamps the span's end time (first call wins; nil-safe).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = s.tr.addAttrs(s.attrs, Attr{Key: key, Int: v})
	s.tr.mu.Unlock()
}

// SetAttrs records several attributes in one step: the span's attribute
// list grows once, however many they are.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = s.tr.addAttrs(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

// SetStr records a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = s.tr.addAttrs(s.attrs, Attr{Key: key, Str: v, IsStr: true})
	s.tr.mu.Unlock()
}

// SampleTau appends one τ trajectory point.
func (s *Span) SampleTau(pos, tau int) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tau = s.tr.addTau(s.tau, TauSample{Pos: pos, Tau: tau})
	s.tr.mu.Unlock()
}

// SetRemote stamps the peer-side summary of a cross-process span.
func (s *Span) SetRemote(r *RemoteSummary) {
	if s == nil || r == nil {
		return
	}
	s.tr.mu.Lock()
	s.remote = r
	s.tr.mu.Unlock()
}

// ID returns the span identifier (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end−start, or time-since-start for an unfinished span
// (zero on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	end := s.end
	s.tr.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Traceparent renders the W3C header value identifying this span, for
// injection into an outbound request ("" on nil — callers skip the header).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.tr.id, s.id)
}
