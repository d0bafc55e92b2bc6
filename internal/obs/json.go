package obs

import "time"

// JSON renderings of a completed trace — the shape the explain response and
// GET /v1/debug/queries serve. Rendering snapshots each span under the trace
// mutex, so it is safe even when a trace shares an adopted execution subtree
// with a sibling still annotating its own spans.

// SpanJSON is one rendered span. Times are microsecond offsets from the
// rendered trace's root start, so a tree reads as a flame graph.
type SpanJSON struct {
	Name     string         `json:"name"`
	SpanID   string         `json:"span_id"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"duration_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Tau      [][2]int       `json:"tau,omitempty"`
	Remote   *RemoteSummary `json:"remote,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// TraceJSON is one rendered trace tree.
type TraceJSON struct {
	TraceID    string    `json:"trace_id"`
	ParentSpan string    `json:"parent_span_id,omitempty"`
	Start      time.Time `json:"start"`
	DurUS      int64     `json:"duration_us"`
	Dropped    int       `json:"dropped_spans,omitempty"`
	Root       *SpanJSON `json:"root"`
}

// JSON renders the trace tree (nil on a nil trace).
func (t *Trace) JSON() *TraceJSON {
	if t == nil || t.root == nil {
		return nil
	}
	out := &TraceJSON{
		TraceID: t.id.String(),
		Start:   t.root.start,
	}
	if !t.parent.IsZero() {
		out.ParentSpan = t.parent.String()
	}
	t.mu.Lock()
	out.Dropped = t.dropped
	t.mu.Unlock()
	out.Root = t.root.json(t.root.start)
	out.DurUS = out.Root.DurUS
	return out
}

// json renders one span relative to base.
func (s *Span) json(base time.Time) *SpanJSON {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	end := s.end
	attrs := s.attrs
	tau := s.tau
	children := s.children
	remote := s.remote
	s.tr.mu.Unlock()

	out := &SpanJSON{
		Name:    s.name,
		SpanID:  s.id.String(),
		StartUS: s.start.Sub(base).Microseconds(),
		Remote:  remote,
	}
	if !end.IsZero() {
		out.DurUS = end.Sub(s.start).Microseconds()
	}
	if len(attrs) > 0 {
		out.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			if a.IsStr {
				out.Attrs[a.Key] = a.Str
			} else {
				out.Attrs[a.Key] = a.Int
			}
		}
	}
	if len(tau) > 0 {
		out.Tau = make([][2]int, len(tau))
		for i, ts := range tau {
			out.Tau[i] = [2]int{ts.Pos, ts.Tau}
		}
	}
	if len(children) > 0 {
		out.Children = make([]*SpanJSON, 0, len(children))
		for _, c := range children {
			out.Children = append(out.Children, c.json(base))
		}
	}
	return out
}

// Walk visits every span of the trace in depth-first order — how the server
// folds span durations into the per-stage histograms. No-op on nil.
func (t *Trace) Walk(fn func(*Span)) {
	if t == nil {
		return
	}
	t.root.walk(fn)
}

func (s *Span) walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	// Children are append-only: the first n never change, and a capped
	// snapshot cannot be appended into.
	s.tr.mu.Lock()
	children := s.children[:len(s.children):len(s.children)]
	s.tr.mu.Unlock()
	for _, c := range children {
		c.walk(fn)
	}
}
