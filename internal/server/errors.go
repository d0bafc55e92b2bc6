package server

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// Typed error envelope. Every 4xx/5xx the API answers has the shape
//
//	{"error": {"code": "...", "message": "...", "trace_id": "..."}}
//
// where code is a stable machine-readable identifier (the glossary below),
// message is human-readable detail that may change between releases, and
// trace_id — present when the request carried a traceparent header or the
// handler had started a trace — correlates the failure with
// /v1/debug/queries and distributed traces. Clients branch on code and
// status, never on message text.

// Error codes. Stable: clients and the contract test suite depend on them.
const (
	// errBadRequest: the request body, parameters or headers failed
	// validation. 400.
	errBadRequest = "bad_request"
	// errDatasetNotFound: the named dataset is not resident. 404.
	errDatasetNotFound = "dataset_not_found"
	// errDatasetExists: registration under a name already taken. 409.
	errDatasetExists = "dataset_exists"
	// errFollowerReadonly: a mutation against a dataset this server
	// replicates from a leader; the envelope's leader field points at the
	// server to retry against. 409.
	errFollowerReadonly = "follower_readonly"
	// errIngestDisabled: an append against a dataset with no WAL behind it
	// (no -waldir, or sharded). 409.
	errIngestDisabled = "ingest_disabled"
	// errNotReloadable: a reload of a dataset registered without a source
	// file. 409.
	errNotReloadable = "not_reloadable"
	// errDeadlineExceeded: the query outran its deadline. 504.
	errDeadlineExceeded = "deadline_exceeded"
	// errDegradedUnavailable: a shard outage made the answer impossible
	// under the request's partial-tolerance. 503.
	errDegradedUnavailable = "degraded_unavailable"
	// errDraining: the server (or the dataset's scheduler) is shutting
	// down. 503.
	errDraining = "draining"
	// errWALFailed: the write-ahead log rejected the append; the batch is
	// not acked. 500.
	errWALFailed = "wal_failed"
	// errNotSubscribable: the dataset cannot host standing subscriptions in
	// this serving mode. 501.
	errNotSubscribable = "not_subscribable"
	// errInternal: everything else. 500.
	errInternal = "internal"
)

// ErrorBody is the envelope payload.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
	// Leader accompanies follower_readonly: the server the rejected
	// mutation should be retried against.
	Leader string `json:"leader,omitempty"`
}

// errorResponse is the wire shape of every error answer.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// writeError renders the typed envelope, deriving the trace id from the
// request's traceparent header when one is present.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	writeErrorTrace(w, requestTraceID(r), status, code, format, args...)
}

// writeErrorTrace is writeError for handlers that already own a trace (the
// query path starts one even for header-less requests); tid zero omits the
// field.
func writeErrorTrace(w http.ResponseWriter, tid obs.TraceID, status int, code, format string, args ...any) {
	body := ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}
	if !tid.IsZero() {
		body.TraceID = tid.String()
	}
	writeJSON(w, status, errorResponse{Error: body})
}

// writeFollowerReadonly is the follower_readonly envelope with its leader
// pointer.
func writeFollowerReadonly(w http.ResponseWriter, r *http.Request, leader, format string, args ...any) {
	writeJSON(w, http.StatusConflict, errorResponse{Error: ErrorBody{
		Code:    errFollowerReadonly,
		Message: fmt.Sprintf(format, args...),
		TraceID: traceIDString(requestTraceID(r)),
		Leader:  leader,
	}})
}

// requestTraceID parses the trace id out of a request's traceparent header;
// zero when absent or malformed.
func requestTraceID(r *http.Request) obs.TraceID {
	if r == nil {
		return obs.TraceID{}
	}
	tid, _, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	if !ok {
		return obs.TraceID{}
	}
	return tid
}

func traceIDString(tid obs.TraceID) string {
	if tid.IsZero() {
		return ""
	}
	return tid.String()
}
