package obs

import "encoding/hex"

// W3C trace-context traceparent handling:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//	^  ^ 32-hex trace-id               ^ 16-hex parent-id ^ 2-hex flags
//
// Parsing is deliberately forgiving at the policy level — a bad header means
// "start a fresh trace", never an error back to the caller — but strict at
// the format level, per the spec: lowercase hex only, exact field widths,
// nonzero IDs, version ff reserved.

const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// ParseTraceparent extracts the trace and parent-span IDs from a traceparent
// header value. ok is false for any malformed value.
func ParseTraceparent(h string) (tid TraceID, sid SpanID, ok bool) {
	if len(h) < traceparentLen {
		return tid, sid, false
	}
	// Future versions may append fields after the flags; accept them only
	// behind a dash, as the spec requires.
	if len(h) > traceparentLen && h[traceparentLen] != '-' {
		return tid, sid, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	version := h[0:2]
	if !isLowerHex(version) || version == "ff" {
		return tid, sid, false
	}
	if !isLowerHex(h[3:35]) || !isLowerHex(h[36:52]) || !isLowerHex(h[53:55]) {
		return tid, sid, false
	}
	hex.Decode(tid[:], []byte(h[3:35]))
	hex.Decode(sid[:], []byte(h[36:52]))
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// TraceparentHeader is the traceparent header's name in net/http's canonical
// form: reading or setting it under this spelling skips the canonical copy a
// lower-case name costs on every call.
const TraceparentHeader = "Traceparent"

// FormatTraceparent renders a version-00 traceparent value with the sampled
// flag set (everything this system traces, it keeps).
func FormatTraceparent(tid TraceID, sid SpanID) string {
	b := make([]byte, traceparentLen)
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], tid[:])
	b[35] = '-'
	hex.Encode(b[36:52], sid[:])
	b[52] = '-'
	b[53], b[54] = '0', '1'
	return string(b)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
