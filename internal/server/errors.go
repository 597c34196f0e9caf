// Package server implements privtreed's HTTP service plane: a
// multi-tenant encode/decode/verify API over the staged pipeline, with
// a persistent per-tenant key store, token-bucket rate limiting, and
// the obs/export telemetry endpoints mounted alongside.
//
// The package deliberately adds no privacy logic of its own — every
// byte it serves comes from the same pipeline/transform/conformance
// code the CLI runs, so an HTTP encode is bit-identical to `privtree
// encode` on the same input, seed and options. What it adds is the
// service boundary: tenancy, persistence, backpressure, cancellation,
// and one table mapping the library's typed errors onto HTTP statuses
// so API clients see exactly the failure taxonomy CLI users do.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/pipeline"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// Sentinel errors of the service layer itself. They join the library's
// typed taxonomy in the status table below.
var (
	// ErrNoSuchKey reports a tenant/key pair absent from the store.
	ErrNoSuchKey = errors.New("server: no such key")
	// ErrKeyExists reports a Put or encode that would overwrite an
	// existing key without the caller asking for it.
	ErrKeyExists = errors.New("server: key already exists")
	// ErrBadName reports a tenant or key name outside the allowed
	// charset (letters, digits, '.', '_', '-'; must start alphanumeric,
	// at most 64 bytes) — the rule that keeps file-backed stores free
	// of path traversal.
	ErrBadName = errors.New("server: invalid tenant or key name")
	// ErrRateLimited reports a request rejected by the tenant's token
	// bucket.
	ErrRateLimited = errors.New("server: tenant rate limit exceeded")
)

// badRequestError marks a request-shape mistake (unparsable query
// parameter, missing required field, wrong content) that has no library
// sentinel of its own. Always a 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// statusTable is THE error-code mapping: one ordered list from the
// typed-error taxonomy (dataset/transform/tree/pipeline sentinels plus
// the service's own) to HTTP statuses, consulted top to bottom via
// errors.Is. pipeline.StageError wraps its cause with %w, so a stage
// failure maps by whatever sentinel it carries. Order matters where an
// error chain matches twice: an oversized body surfaces through ReadCSV
// wrapped in ErrMalformedCSV *and* as http.MaxBytesError, and must stay
// a 413.
//
// DESIGN.md §5h reproduces this table; keep the two in sync.
var statusTable = []struct {
	err  error
	code int
}{
	{ErrRateLimited, http.StatusTooManyRequests},                // 429
	{ErrNoSuchKey, http.StatusNotFound},                         // 404
	{ErrKeyExists, http.StatusConflict},                         // 409
	{ErrBadName, http.StatusBadRequest},                         // 400
	{context.Canceled, statusClientClosedRequest},               // 499 (nginx convention)
	{context.DeadlineExceeded, http.StatusGatewayTimeout},       // 504
	{dataset.ErrMalformedCSV, http.StatusBadRequest},            // 400 — unreadable input
	{dataset.ErrBadManifest, http.StatusBadRequest},             // 400
	{dataset.ErrNoAttributes, http.StatusBadRequest},            // 400
	{dataset.ErrBadSplit, http.StatusBadRequest},                // 400
	{dataset.ErrSchemaMismatch, http.StatusUnprocessableEntity}, // 422 — readable, doesn't fit
	{dataset.ErrBadLabel, http.StatusUnprocessableEntity},       // 422
	{dataset.ErrBadCategory, http.StatusUnprocessableEntity},    // 422
	{transform.ErrKeyVersion, http.StatusBadRequest},            // 400 — wrong wire format
	{transform.ErrUnknownShape, http.StatusBadRequest},          // 400
	{transform.ErrUnknownKind, http.StatusBadRequest},           // 400
	{transform.ErrShapeParams, http.StatusBadRequest},           // 400
	{transform.ErrInvalidPiece, http.StatusBadRequest},          // 400
	{transform.ErrEmptyKey, http.StatusBadRequest},              // 400
	{transform.ErrNotMonotone, http.StatusUnprocessableEntity},  // 422 — structurally broken key
	{transform.ErrKeyMismatch, http.StatusUnprocessableEntity},  // 422 — key ∄ data
	{transform.ErrAppendUnsafe, http.StatusUnprocessableEntity}, // 422
	{pipeline.ErrUnknownStrategy, http.StatusBadRequest},        // 400
	{pipeline.ErrNoValues, http.StatusUnprocessableEntity},      // 422
	{tree.ErrMalformedTree, http.StatusBadRequest},              // 400
	{tree.ErrUnknownCriterion, http.StatusBadRequest},           // 400
	{tree.ErrEmptyData, http.StatusUnprocessableEntity},         // 422
}

// statusClientClosedRequest is the non-standard 499 nginx popularized
// for "the client disconnected before we could answer". The client
// never sees it; it exists for the access log and metrics.
const statusClientClosedRequest = 499

// statusOf maps an error onto its HTTP status via the table. Errors
// outside the taxonomy are internal (500); request-shape errors and
// oversized bodies are recognized by type.
func statusOf(err error) int {
	var maxBytes *http.MaxBytesError
	if errors.As(err, &maxBytes) {
		return http.StatusRequestEntityTooLarge // 413
	}
	var bad *badRequestError
	if errors.As(err, &bad) {
		return http.StatusBadRequest
	}
	var jsonSyn *json.SyntaxError
	var jsonType *json.UnmarshalTypeError
	if errors.As(err, &jsonSyn) || errors.As(err, &jsonType) {
		return http.StatusBadRequest
	}
	for _, e := range statusTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return http.StatusInternalServerError
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// Stage names the pipeline stage that failed, when the error is a
	// pipeline.StageError — the same stage/attribute attribution the
	// CLI prints.
	Stage string `json:"stage,omitempty"`
	// Attr names the offending attribute, when known.
	Attr string `json:"attr,omitempty"`
}

// writeError renders err as the JSON envelope with the status the table
// assigns. A 499 (client gone) is not written — there is nobody left to
// read it — but still counted.
func writeError(w http.ResponseWriter, err error) {
	code := statusOf(err)
	obs.Add("server.errors", 1)
	obs.Add(fmt.Sprintf("server.status.%d", code), 1)
	if code == statusClientClosedRequest {
		return
	}
	body := errorBody{Error: err.Error(), Status: code}
	var se *pipeline.StageError
	if errors.As(err, &se) {
		body.Stage = se.Stage
		body.Attr = se.Attr
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(&body)
}
