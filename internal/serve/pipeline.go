package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/collection"
	"repro/internal/store"
)

// The request pipeline. Every operation that takes a request body or
// changes state is one row of ops, and every row is served by the same
// steps in the same order (pipeline):
//
//	method → tenant → draining (the rows that gate on it) → capability
//	(a registry to manage collections; a Mutator half and a closed
//	breaker to write) → size-limited decode → run → encode
//
// A step that refuses returns an error; fail turns it into the typed
// JSON error body through statusOf, the one error-to-status table. What
// is left per operation is what differs: the request struct, its
// validation, the call into the batcher or backend, the response
// struct. The legacy /v1/<op> routes are the same rows with the tenant
// fixed to DefaultCollection.

// op is one row of the route table.
type op struct {
	name   string
	method string
	// path is set on the collection-management rows, which own one
	// method-qualified path each (GET on the same path is the list) and
	// need a registry-backed server. The data rows leave it empty and are
	// registered under /v1/<name> for the default tenant and
	// /v1/collections/{name}/<name>.
	path string
	// gated rows answer 503 before their body is read once Drain has
	// begun. search is not gated: a row cached before the drain is still
	// served and the batcher refuses what misses, counted as a request
	// like any other; neither is drop, which takes a collection away
	// whether or not the rest of the server is leaving too.
	gated bool
	// write rows need the tenant's Mutator half and a closed write
	// breaker before their body is read.
	write bool
	// limit caps the request body in bytes: vectors for the data rows, a
	// config document for create. A row without one reads no body.
	limit int64
	// serve is the pipeline over the row's request type and operation.
	serve func(s *Server, o *op, w http.ResponseWriter, r *http.Request)
}

var ops = []op{
	{name: "search", method: http.MethodPost, limit: 64 << 20, serve: pipeline((*call).search)},
	{name: "hybrid", method: http.MethodPost, gated: true, limit: 64 << 20, serve: pipeline((*call).hybrid)},
	{name: "upsert", method: http.MethodPost, gated: true, write: true, limit: 64 << 20, serve: pipeline((*call).upsert)},
	{name: "delete", method: http.MethodPost, gated: true, write: true, limit: 64 << 20, serve: pipeline((*call).delete)},
	{name: "create", method: http.MethodPost, path: "/v1/collections", gated: true, limit: 1 << 20, serve: pipeline((*call).createCollection)},
	{name: "drop", method: http.MethodDelete, path: "/v1/collections/{name}", serve: pipeline((*call).dropCollection)},
}

// routes registers every row of ops on the mux.
func (s *Server) routes() {
	for i := range ops {
		o := &ops[i]
		h := func(w http.ResponseWriter, r *http.Request) { o.serve(s, o, w, r) }
		if o.path != "" {
			s.mux.HandleFunc(o.method+" "+o.path, h)
			continue
		}
		// Each data path twice: any method reaches the pipeline, which
		// answers the typed 405, and the row's own method is matched first
		// and directly — a POST that has to fall back from the mux's POST
		// subtree to the method-less one costs two allocations on the way.
		for _, path := range []string{"/v1/" + o.name, "/v1/collections/{name}/" + o.name} {
			s.mux.HandleFunc(path, h)
			s.mux.HandleFunc(o.method+" "+path, h)
		}
	}
}

// call is one request on its way through the pipeline.
type call struct {
	s  *Server
	op *op
	w  http.ResponseWriter
	r  *http.Request
	t0 time.Time
	// t is the tenant the path named; nil on create, which names none.
	t *tenant
	// mut is the tenant's write half, set on write rows.
	mut Mutator
	// status is the success status; run may raise it (create: 201).
	status int
}

// pipeline serves one request of an operation whose body decodes into an
// R: run sees its concrete request, and the call and the request are one
// allocation.
func pipeline[R any](run func(*call, *R) (any, error)) func(*Server, *op, http.ResponseWriter, *http.Request) {
	return func(s *Server, o *op, w http.ResponseWriter, r *http.Request) {
		x := &struct {
			call
			req R
		}{call: call{s: s, op: o, w: w, r: r, t0: time.Now(), status: http.StatusOK}}
		err := x.admit()
		if err == nil && o.limit > 0 {
			err = x.decode(&x.req)
		}
		var resp any
		if err == nil {
			resp, err = run(&x.call, &x.req)
		}
		if err != nil {
			s.fail(w, err)
			return
		}
		s.writeJSON(w, x.status, resp)
	}
}

// admit is every step before the body is read.
func (c *call) admit() error {
	if c.r.Method != c.op.method {
		c.w.Header().Set("Allow", c.op.method)
		return &apiError{http.StatusMethodNotAllowed, codeBadRequest, c.op.method + " only"}
	}
	name := c.r.PathValue("name")
	if name == "" && c.op.path == "" {
		name = DefaultCollection // a legacy data route
	}
	if name != "" {
		t, err := c.s.tenantFor(name)
		if err != nil {
			return err
		}
		c.t = t
	}
	if c.op.gated && c.s.Draining() {
		return ErrDraining
	}
	if c.op.path != "" && c.s.reg == nil {
		// A single-backend gateway has nowhere to put a collection's files.
		return &apiError{http.StatusNotImplemented, codeNotImplemented,
			"this gateway serves a fixed backend; collection management needs -collections mode"}
	}
	if c.op.write {
		m, ok := c.t.backend.(Mutator)
		if !ok {
			return &apiError{http.StatusNotImplemented, codeNotImplemented, "backend does not support writes"}
		}
		// The storage layer failed: mutations are refused until a restart
		// while searches keep serving.
		if err := writeBroken(c.t); err != nil {
			return &apiError{http.StatusServiceUnavailable, codeWriteFailed,
				"write path failed, mutations rejected until restart: " + err.Error()}
		}
		c.mut = m
	}
	return nil
}

// decode reads the request body once, capped at the row's limit, into
// a pooled buffer and decodes it into v: a search or hybrid body in the
// fast path's subset by decodeFast (codec.go), anything else by
// json.Decoder over the same bytes. What it accepts is exactly what
// json.Decoder accepts for v, except that a body past the limit is a 413
// even when its first JSON value ends before the limit.
func (c *call) decode(v any) error {
	buf := getCodecBuf()
	defer putCodecBuf(buf)
	body, err := readBody(buf.b, http.MaxBytesReader(c.w, c.r.Body, c.op.limit), min(c.r.ContentLength, c.op.limit))
	buf.b = body
	if err == nil && !decodeFast(body, v) {
		buf.r.Reset(body)
		err = json.NewDecoder(&buf.r).Decode(v)
	}
	if err == nil {
		return nil
	}
	status, code := http.StatusBadRequest, codeBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status, code = http.StatusRequestEntityTooLarge, codeTooLarge
	}
	return &apiError{status, code, "bad request body: " + err.Error()}
}

// clampK resolves a request's k: the default when unset, at most MaxK.
func (s *Server) clampK(k int) int {
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	return min(k, s.cfg.MaxK)
}

// withTimeout derives the context a request's work runs under: its own
// timeout_ms, else the server default, else no deadline.
func (c *call) withTimeout(ms int) (context.Context, context.CancelFunc) {
	timeout := c.s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout <= 0 {
		return c.r.Context(), func() {}
	}
	return context.WithTimeout(c.r.Context(), timeout)
}

// Machine-readable error codes carried in every error body, so clients
// can branch without parsing prose.
const (
	codeBadRequest        = "bad_request"
	codeTooLarge          = "too_large"
	codeBadFilter         = "bad_filter"
	codeDimMismatch       = "dim_mismatch"
	codeUnknownCollection = "unknown_collection"
	codeCollectionExists  = "collection_exists"
	codeBadName           = "bad_name"
	codeMissingLeg        = "missing_leg"
	codeLexicalDisabled   = "lexical_disabled"
	codeQuota             = "quota_exceeded"
	codeOverloaded        = "overloaded"
	codeDraining          = "draining"
	codeDeadline          = "deadline_exceeded"
	codeWriteFailed       = "write_failed"
	codeNotImplemented    = "not_implemented"
	codeInternal          = "internal"
)

// apiError is a refusal the pipeline already knows how to answer.
// Validation returns one instead of writing the response.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// badRequest is the 400 a validation step returns.
func badRequest(code, msg string) *apiError {
	return &apiError{http.StatusBadRequest, code, msg}
}

// statusTable maps the errors backends, the batcher, the store and the
// registry return to HTTP, most actionable first: when the queries of
// one request fail in several ways, the earliest row wins (draining
// beats quota beats overload beats deadline). An error in no row is a
// 500.
var statusTable = []struct {
	errs   []error
	status int
	code   string
}{
	{[]error{ErrDraining, collection.ErrDraining}, http.StatusServiceUnavailable, codeDraining},
	{[]error{collection.ErrQuota}, http.StatusTooManyRequests, codeQuota},
	{[]error{ErrOverloaded}, http.StatusTooManyRequests, codeOverloaded},
	{[]error{context.DeadlineExceeded, context.Canceled}, http.StatusGatewayTimeout, codeDeadline},
	// A storage failure that tripped the breaker: the replica is
	// degraded, not the request.
	{[]error{store.ErrWALFailed}, http.StatusServiceUnavailable, codeWriteFailed},
	{[]error{ErrFilterUnsupported}, http.StatusNotImplemented, codeNotImplemented},
	// The collection was created without "lexical": true.
	{[]error{collection.ErrLexicalDisabled}, http.StatusBadRequest, codeLexicalDisabled},
	// Attributes the log would not read back.
	{[]error{store.ErrInvalidUpsert}, http.StatusBadRequest, codeBadRequest},
	{[]error{collection.ErrExists}, http.StatusConflict, codeCollectionExists},
	{[]error{collection.ErrBadName}, http.StatusBadRequest, codeBadName},
}

// statusOf answers for the non-nil errors among errs (nil when there are
// none): an apiError as it is, otherwise the error matching the earliest
// statusTable row, under that row's status and code and its own message.
func statusOf(errs ...error) *apiError {
	var worst error
	rank := len(statusTable) + 1
	for _, err := range errs {
		if err == nil {
			continue
		}
		var e *apiError
		if errors.As(err, &e) {
			return e
		}
		if r := rankOf(err); r < rank {
			worst, rank = err, r
		}
	}
	switch {
	case worst == nil:
		return nil
	case rank < len(statusTable):
		return &apiError{statusTable[rank].status, statusTable[rank].code, worst.Error()}
	}
	return &apiError{http.StatusInternalServerError, codeInternal, worst.Error()}
}

// rankOf is the index of the first statusTable row err matches.
func rankOf(err error) int {
	for r, row := range statusTable {
		for _, target := range row.errs {
			if errors.Is(err, target) {
				return r
			}
		}
	}
	return len(statusTable)
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// writeJSON answers with v as JSON under status. The body is encoded
// before the header is written, so a response that cannot be encoded (a
// non-finite distance) is a typed 500, not a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getCodecBuf()
	defer putCodecBuf(buf)
	if err := encodeJSON(buf, v); err != nil {
		s.fail(w, &apiError{http.StatusInternalServerError, codeInternal, "response not encodable: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.b)
}

// fail answers a refused request: the one place an error is counted and
// rendered. Retriable statuses (429, 503) carry Retry-After so
// well-behaved clients back off.
func (s *Server) fail(w http.ResponseWriter, err error) {
	e := statusOf(err)
	switch {
	case e.code == codeWriteFailed:
		s.stats.WritesRejected.Add(1)
	case e.status == http.StatusRequestEntityTooLarge,
		// A refused collection name has never counted as a malformed
		// request; /varz bad_requests keeps meaning what it meant.
		e.status == http.StatusBadRequest && e.code != codeBadName:
		s.stats.BadRequests.Add(1)
	}
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, e.status, errorResponse{Error: e.msg, Code: e.code})
}
