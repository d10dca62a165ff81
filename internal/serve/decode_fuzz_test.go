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

// fastPathSeeds are bodies at the edges of decodeFast's subset: escaped
// and non-ASCII strings, keys in another case or repeated, nulls, signed
// zeros, float32 rounding and range edges, long mantissas, numbers of the
// wrong kind, malformed arrays and objects, and what may follow a value.
var fastPathSeeds = []string{
	`{"query":[1,0,0,0],"text":"caf\u00e9","k":3}`,
	`{"query":[1,0,0,0],"text":"café","k":3}`,
	"{\"text\":\"bad \xff utf8\"}",
	`{"query":[1,0,0,0],"filter":"lang=\"de\""}`,
	"{\"text\":\"tab\there\"}",
	`{"QUERY":[1,0,0,0]}`,
	`{"Query":[1,0,0,0],"K":2}`,
	`{"\u006b":2,"query":[1,0,0,0]}`,
	`{"query":[1,0,0,0],"query":[2,0,0,0]}`,
	`{"k":1,"k":2,"query":[1,0,0,0]}`,
	`{"queries":[[1,0,0,0]],"queries":[[2,0,0,0],[3,0,0,0]]}`,
	`{"query":null,"k":3}`,
	`{"queries":[[1,0,0,0],null]}`,
	`{"text":null,"query":[1,0,0,0]}`,
	`{"k":null,"query":[1,0,0,0]}`,
	`{"query":[-0,0,-0.0,0e5]}`,
	`{"query":[1e-45,1.4e-45,7e-46,-1e-45]}`,
	`{"query":[16777215,16777216,16777217,16777218]}`,
	`{"query":[12345678901234567890,0.12345678901234567890,1234567890.1234567890,1]}`,
	`{"query":[3.5e38,0,0,0]}`,
	`{"query":[-3.5e38,0,0,0]}`,
	`{"query":[3.4028235e38,1e-50,0,0]}`,
	`{"k":1.5,"query":[1,0,0,0]}`,
	`{"k":1e2,"query":[1,0,0,0]}`,
	`{"k":-0,"query":[1,0,0,0]}`,
	`{"k":99999999999999999999,"query":[1,0,0,0]}`,
	`{"timeout_ms":"5","query":[1,0,0,0]}`,
	`{"query":[1,0,0,0],"unknown":true}`,
	`{"query":[01]}`,
	`{"query":[1.]}`,
	`{"query":[.5]}`,
	`{"query":[1e]}`,
	`{"query":[1,]}`,
	`{"query":[1 2]}`,
	`{"query":[],"queries":[[]]}`,
	`{"query":[1,0,0,0],"k":3,}`,
	`{,"k":3}`,
	`{"k":3 "query":[1,0,0,0]}`,
	` {"query":[1,0,0,0]} trailing`,
	"\ufeff{\"k\":1}",
	`{"text":"x","rrf_k":1e400}`,
	`{"query":[1,0,0,0],"text":"x","fusion":"weighted","vec_weight":0.3,"lex_weight":0.7,"rrf_k":10}`,
}

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
// then yields an equal struct (the differential that holds decodeFast to
// encoding/json; TestFastDecodeTakesBenchShapes checks the fast path is
// really taken). Through the handler,
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
	// And the fast path's edges: the benchmark's bodies, which it reads
	// itself, and bodies it must hand to encoding/json or read bit-exact.
	for _, tc := range benchShapes(f) {
		seeds[string(tc.body)] = true
	}
	for _, body := range fastPathSeeds {
		seeds[body] = true
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
