package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro/internal/collection"
)

// fuzzOps are the operations with a request body, each with a fresh
// request struct of the type its row decodes into.
var fuzzOps = []struct {
	path  string
	limit int64
	fresh func() any
}{
	{"/v1/search", 64 << 20, func() any { return new(searchRequest) }},
	{"/v1/hybrid", 64 << 20, func() any { return new(hybridRequest) }},
	{"/v1/upsert", 64 << 20, func() any { return new(upsertRequest) }},
	{"/v1/delete", 64 << 20, func() any { return new(deleteRequest) }},
	{"/v1/collections", 1 << 20, func() any { return new(createCollectionRequest) }},
}

// FuzzRequestDecode pins the one request decoder to its oracle: for
// every operation and every body it accepts exactly when a plain
// json.Decoder accepts the same bytes into the same request struct, and
// then yields an equal struct (the differential a faster codec has to
// pass before it can replace encoding/json here). Through the handler,
// a rejected body is always a typed 400 — 413 past the route's limit —
// with a code, counted in BadRequests once; no body panics anything.
func FuzzRequestDecode(f *testing.F) {
	// Seeds: every body of the golden request table, on every operation.
	seeds := map[string]bool{"": true, "null": true, "{}": true, `{"k":1e400}`: true}
	if b, err := os.ReadFile(goldenFile); err == nil {
		var rows []goldenRow
		if err := json.Unmarshal(b, &rows); err != nil {
			f.Fatal(err)
		}
		for _, r := range rows {
			if r.Body != oversizeBody {
				seeds[r.Body] = true
			}
		}
	}
	for body := range seeds {
		for i := range fuzzOps {
			f.Add(uint8(i), []byte(body))
		}
	}

	// MaxBatch 1: a search never waits for company.
	s := NewServer(&EngineBackend{Engine: goldenEngine(f), Lexical: true}, ServerConfig{
		Batcher: BatcherConfig{MaxBatch: 1}, MaxQueries: 8,
	})
	f.Cleanup(func() { s.Drain(context.Background()) })
	// Create needs a registry behind it to get as far as its body; only
	// bodies the decoder rejects are sent there, so nothing is created.
	reg, err := collection.Open(f.TempDir(), collection.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { reg.Close(context.Background()) })
	admin, err := NewCollectionServer(reg, ServerConfig{})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		o := fuzzOps[int(which)%len(fuzzOps)]

		want := o.fresh()
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
		tooLarge := int64(len(body)) > o.limit

		got := o.fresh()
		c := call{op: &op{limit: o.limit}, w: httptest.NewRecorder(),
			r: httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(body))}
		err := c.decode(got)
		if !tooLarge {
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s %q: decoder says %v, encoding/json says %v", o.path, body, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q: decoded %+v, encoding/json %+v", o.path, body, got, want)
			}
		}
		if err != nil {
			e := statusOf(err)
			if e.code == "" || (e.status != http.StatusBadRequest && e.status != http.StatusRequestEntityTooLarge) {
				t.Fatalf("%s %q: rejected as %d %q", o.path, body, e.status, e.code)
			}
		}

		// The same body through the whole pipeline.
		srv := s
		if o.path == "/v1/collections" {
			if err == nil {
				return
			}
			srv = admin
		}
		bad := srv.Stats().BadRequests.Load()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(body)))
		if err == nil {
			return // accepted: validation and the engine decide the rest
		}
		var er errorResponse
		if uerr := json.Unmarshal(rec.Body.Bytes(), &er); uerr != nil || er.Code == "" {
			t.Fatalf("%s %q: error body %q has no code", o.path, body, rec.Body)
		}
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %q: rejected body answered %d %s", o.path, body, rec.Code, rec.Body)
		}
		if n := srv.Stats().BadRequests.Load() - bad; n != 1 {
			t.Fatalf("%s %q: BadRequests moved by %d, want 1", o.path, body, n)
		}
	})
}
