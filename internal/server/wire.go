package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/tkd"
)

// The /query wire. A served query's body and answer are small and of one
// shape, so the route reads and writes them without encoding/json: a strict
// parser takes the canonical request bodies a client sends, and an appender
// writes the answer straight from the engine's items. encoding/json stays the
// reference — every form the fast paths do not take goes through it, so each
// accept, reject, error message and answer byte is what it gives.

// wireBufs pools the buffers a /query body is read into and its answer is
// appended to.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// maxPooledWire is the largest buffer that goes back to wireBufs; a larger
// answer's buffer is left to the collector. It is well under maxBodyBytes, so
// a body that fits a pooled buffer is never one the size bound refuses.
const maxPooledWire = 64 << 10

func putWireBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledWire {
		wireBufs.Put(bp)
	}
}

// jsonContentType is the Content-Type value of every JSON answer, shared so
// setting it allocates nothing; nothing appends to or writes into it.
var jsonContentType = []string{"application/json"}

// decodeQuery reads a /query body into req exactly as decodeBody would, and
// answers 400 itself when it cannot. The body is read into a pooled buffer;
// one that is whole there and canonical (parseQuery) is decoded in place.
// Any other — not canonical, larger than the buffer, or cut short by a read
// error — goes to decodeBody's decoder over the same byte stream: the bytes
// already read, then the rest of the body (or the error), under the same
// size bound.
func decodeQuery(w http.ResponseWriter, r *http.Request, req *QueryRequest) bool {
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	buf := (*bp)[:cap(*bp)]
	n, err := io.ReadFull(r.Body, buf)
	var rest io.Reader // what follows buf[:n]: nothing, the body, or its read error
	switch err {
	case io.EOF, io.ErrUnexpectedEOF: // the whole body is in buf
		if parseQuery(buf[:n], req) {
			return true
		}
		rest = http.NoBody
	case nil: // buf is full and the body may go on
		rest = r.Body
	default:
		rest = errReader{err}
	}
	// Only the slow path hands a request to encoding/json, and it starts from
	// zero whatever parseQuery wrote.
	var slow QueryRequest
	ok := decodeFrom(w, r, io.NopCloser(io.MultiReader(bytes.NewReader(buf[:n]), rest)), &slow)
	*req = slow
	return ok
}

// errReader fails every read with its error: the rest of a body whose read
// failed.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseQuery decodes b into req when b is a canonical QueryRequest object:
// exact field names, each at most once; integers without fraction or
// exponent, of at most 18 digits; true or false; strings of printable ASCII
// without escapes; JSON whitespace between tokens and after the object. It
// reports false for anything else, valid JSON or not, and may have written
// part of req.
func parseQuery(b []byte, req *QueryRequest) bool {
	p := wireParser{b: b}
	if !p.take('{') {
		return false
	}
	if p.take('}') {
		return p.end()
	}
	var seen uint8
	for {
		key, ok := p.str()
		if !ok || !p.take(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "dataset":
			bit = 1 << 0
			var s []byte
			s, ok = p.str()
			req.Dataset = string(s)
		case "k":
			bit = 1 << 1
			req.K, ok = p.int()
		case "algorithm":
			bit = 1 << 2
			var s []byte
			s, ok = p.str()
			req.Algorithm = string(s)
		case "timeout_millis":
			bit = 1 << 3
			req.TimeoutMillis, ok = p.int()
		case "allow_partial":
			bit = 1 << 4
			req.AllowPartial, ok = p.bool()
		case "explain":
			bit = 1 << 5
			req.Explain, ok = p.bool()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.take('}') {
			return p.end()
		}
		if !p.take(',') {
			return false
		}
	}
}

// wireParser walks a request body for parseQuery. Each method skips the
// JSON whitespace before its token.
type wireParser struct {
	b []byte
	i int
}

func (p *wireParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// take consumes c if it is the next token.
func (p *wireParser) take(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (p *wireParser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// str consumes a string of printable ASCII without escapes and returns its
// contents.
func (p *wireParser) str() ([]byte, bool) {
	if !p.take('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int consumes an integer of at most 18 digits — one that cannot overflow
// int64 — that int holds.
func (p *wireParser) int() (int, bool) {
	p.space()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var v int64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		v = v*10 + int64(p.b[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	if digits == 0 || digits > 18 || (digits > 1 && p.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	if v < math.MinInt || v > math.MaxInt {
		return 0, false
	}
	return int(v), true
}

// bool consumes true or false.
func (p *wireParser) bool() (bool, bool) {
	p.space()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += len("false")
		return false, true
	}
	return false, false
}

// writeQueryResponse writes a 200 answer exactly as writeJSON would write
// resp with items, ranked from 1, as its Items: appended into a pooled buffer
// and written once, or — for a form appendQueryResponse does not take —
// through writeJSON itself.
func writeQueryResponse(w http.ResponseWriter, resp *QueryResponse, items []tkd.Item) {
	bp := wireBufs.Get().(*[]byte)
	b, ok := appendQueryResponse((*bp)[:0], resp, items)
	if ok {
		w.Header()["Content-Type"] = jsonContentType
		_, _ = w.Write(b)
	}
	*bp = b
	putWireBuf(bp)
	if !ok {
		full := *resp
		full.Items = queryItems(items)
		writeJSON(w, http.StatusOK, full)
	}
}

// appendQueryResponse appends resp, with items ranked from 1 as its Items,
// as a json.Encoder with SetEscapeHTML(false) encodes it: fields in struct
// order, omitempty honoured, a trailing newline. It reports false where it
// does not promise those bytes — a trace, a latency encoding/json spells with
// an exponent or refuses, a string that needs escaping.
func appendQueryResponse(b []byte, resp *QueryResponse, items []tkd.Item) ([]byte, bool) {
	if resp.Trace != nil || !plainFloat(resp.LatencyMS) || !plainString(resp.Dataset) || !plainString(resp.Algorithm) {
		return b, false
	}
	b = append(b, `{"dataset":"`...)
	b = append(b, resp.Dataset...)
	b = appendInt(b, `","k":`, int64(resp.K))
	b = append(b, `,"algorithm":"`...)
	b = append(b, resp.Algorithm...)
	b = appendInt(b, `","workers":`, int64(resp.Workers))
	b = append(b, `,"items":[`...)
	for i, it := range items {
		if !plainString(it.ID) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, `{"rank":`, int64(i+1))
		b = appendInt(b, `,"index":`, int64(it.Index))
		b = append(b, `,"id":"`...)
		b = append(b, it.ID...)
		b = appendInt(b, `","score":`, int64(it.Score))
		b = append(b, '}')
	}
	st := &resp.Stats
	b = appendInt(b, `],"stats":{"candidates":`, int64(st.Candidates))
	b = appendInt(b, `,"scored":`, int64(st.Scored))
	b = appendInt(b, `,"pruned_h1":`, int64(st.PrunedH1))
	b = appendInt(b, `,"pruned_h2":`, int64(st.PrunedH2))
	b = appendInt(b, `,"pruned_h3":`, int64(st.PrunedH3))
	b = appendInt(b, `,"pruned_skyband":`, int64(st.PrunedSkyband))
	b = appendInt(b, `,"comparisons":`, st.Comparisons)
	b = appendInt(b, `,"workers":`, int64(st.Workers))
	b = appendInt(b, `,"windows":`, int64(st.Windows))
	b = append(b, `},"coalesced":`...)
	b = strconv.AppendBool(b, resp.Coalesced)
	b = appendInt(b, `,"batch_size":`, int64(resp.BatchSize))
	b = append(b, `,"latency_ms":`...)
	b = strconv.AppendFloat(b, resp.LatencyMS, 'f', -1, 64)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, resp.Epoch, 10)
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if resp.CoveredRows != 0 {
		b = appendInt(b, `,"covered_rows":`, int64(resp.CoveredRows))
	}
	if resp.TotalRows != 0 {
		b = appendInt(b, `,"total_rows":`, int64(resp.TotalRows))
	}
	return append(b, "}\n"...), true
}

// appendInt appends the bytes before a number, then the number.
func appendInt(b []byte, before string, v int64) []byte {
	return strconv.AppendInt(append(b, before...), v, 10)
}

// plainFloat reports whether encoding/json writes f in strconv's 'f' format:
// finite, and zero or of magnitude in [1e-6, 1e21).
func plainFloat(f float64) bool {
	a := math.Abs(f)
	return a == 0 || (a >= 1e-6 && a < 1e21)
}

// plainString reports whether encoding/json writes s as it is between its
// quotes: printable ASCII, neither '"' nor '\\'.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
