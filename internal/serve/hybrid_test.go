package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/collection"
)

// hybridServer spins a registry-backed gateway with a lexical
// collection "docs" plus the non-lexical "default".
func hybridServer(t *testing.T) (*Server, string, *http.Client) {
	t.Helper()
	s, ts, reg := testCollectionServer(t, ServerConfig{})
	if _, err := reg.Create("docs", collection.Config{Dim: 8, Lexical: true}); err != nil {
		t.Fatal(err)
	}
	// The server was built before "docs" existed; register the tenant the
	// way handleColCreate does.
	col, err := reg.Get("docs")
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.tenants["docs"] = s.newTenant("docs", &CollectionBackend{Col: col}, col)
	s.mu.Unlock()
	return s, ts.URL, ts.Client()
}

func decodeHybrid(t *testing.T, data []byte) hybridResponse {
	t.Helper()
	var hr hybridResponse
	if err := json.Unmarshal(data, &hr); err != nil {
		t.Fatalf("hybrid body not JSON: %v: %s", err, data)
	}
	return hr
}

func TestHybridEndpoint(t *testing.T) {
	s, url, client := hybridServer(t)
	rng := rand.New(rand.NewSource(11))

	// Ingest text points through the upsert route, one rare keyword doc.
	var pts []map[string]any
	for id := 0; id < 40; id++ {
		text := "common body of words"
		if id == 7 {
			text = "rare xylophone solo"
		}
		v := make([]float32, 8)
		for j := range v {
			v[j] = rng.Float32()
		}
		pts = append(pts, map[string]any{"id": id, "vector": v, "text": text})
	}
	resp, data := postJSON(t, client, url, "/v1/collections/docs/upsert", map[string]any{"points": pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text upsert: %d %s", resp.StatusCode, data)
	}

	// Hybrid query with both legs: the keyword doc must surface.
	q := make([]float32, 8)
	for j := range q {
		q[j] = 0.5
	}
	body := map[string]any{"query": q, "text": "xylophone", "k": 5}
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hybrid: %d %s", resp.StatusCode, data)
	}
	hr := decodeHybrid(t, data)
	if hr.Fusion != "rrf" {
		t.Fatalf("default fusion = %q", hr.Fusion)
	}
	found := false
	for _, r := range hr.Results {
		if r.ID == 7 {
			found = true
			if r.BM25 <= 0 || r.Dist == nil {
				t.Fatalf("keyword hit missing bm25/dist: %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("keyword doc missing: %s", data)
	}

	// Second identical request is a cache hit.
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid", body)
	if resp.StatusCode != http.StatusOK || !decodeHybrid(t, data).Cached {
		t.Fatalf("repeat hybrid not cached: %d %s", resp.StatusCode, data)
	}
	if s.Stats().HybridCacheHits.Load() != 1 {
		t.Fatalf("HybridCacheHits = %d", s.Stats().HybridCacheHits.Load())
	}

	// A mutation purges the hybrid cache.
	resp, data = postJSON(t, client, url, "/v1/collections/docs/delete", map[string]any{"id": 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid", body)
	if resp.StatusCode != http.StatusOK || decodeHybrid(t, data).Cached {
		t.Fatalf("hybrid cached across mutation: %d %s", resp.StatusCode, data)
	}

	// Text-only and vector-only legs both work.
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid",
		map[string]any{"text": "xylophone", "k": 3, "fusion": "weighted"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text-only hybrid: %d %s", resp.StatusCode, data)
	}
	if hr := decodeHybrid(t, data); hr.Fusion != "weighted" || len(hr.Results) == 0 || hr.Results[0].ID != 7 {
		t.Fatalf("text-only weighted hybrid: %s", data)
	}
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid",
		map[string]any{"query": q, "k": 3})
	if resp.StatusCode != http.StatusOK || len(decodeHybrid(t, data).Results) != 3 {
		t.Fatalf("vector-only hybrid: %d %s", resp.StatusCode, data)
	}
}

func TestHybridTypedErrors(t *testing.T) {
	_, url, client := hybridServer(t)
	q := make([]float32, 8)

	// No legs at all.
	resp, data := postJSON(t, client, url, "/v1/collections/docs/hybrid", map[string]any{"k": 5})
	if resp.StatusCode != http.StatusBadRequest || decodeErr(t, data).Code != codeMissingLeg {
		t.Fatalf("no legs: %d %s", resp.StatusCode, data)
	}
	// Wrong dim.
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid",
		map[string]any{"query": []float32{1, 2}, "text": "x"})
	if resp.StatusCode != http.StatusBadRequest || decodeErr(t, data).Code != codeDimMismatch {
		t.Fatalf("bad dim: %d %s", resp.StatusCode, data)
	}
	// Unknown fusion mode.
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid",
		map[string]any{"text": "x", "fusion": "borda"})
	if resp.StatusCode != http.StatusBadRequest || decodeErr(t, data).Code != codeBadRequest {
		t.Fatalf("bad fusion: %d %s", resp.StatusCode, data)
	}
	// Bad filter expression.
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid",
		map[string]any{"text": "x", "filter": "a=="})
	if resp.StatusCode != http.StatusBadRequest || decodeErr(t, data).Code != codeBadFilter {
		t.Fatalf("bad filter: %d %s", resp.StatusCode, data)
	}
	// Hybrid search against a non-lexical collection.
	resp, data = postJSON(t, client, url, "/v1/collections/default/hybrid",
		map[string]any{"query": q, "text": "x"})
	if resp.StatusCode != http.StatusBadRequest || decodeErr(t, data).Code != codeLexicalDisabled {
		t.Fatalf("lexical disabled search: %d %s", resp.StatusCode, data)
	}
	// Text upsert against a non-lexical collection.
	resp, data = postJSON(t, client, url, "/v1/collections/default/upsert",
		map[string]any{"id": 1, "vector": q, "text": "hello"})
	if resp.StatusCode != http.StatusBadRequest || decodeErr(t, data).Code != codeLexicalDisabled {
		t.Fatalf("lexical disabled upsert: %d %s", resp.StatusCode, data)
	}
	// Tags the log could not read back are a 400, not an acknowledged
	// write that breaks the next open.
	resp, data = postJSON(t, client, url, "/v1/collections/docs/upsert",
		map[string]any{"id": 1, "vector": q, "text": "hello", "tags": map[string]string{"": "b"}})
	if resp.StatusCode != http.StatusBadRequest || decodeErr(t, data).Code != codeBadRequest {
		t.Fatalf("empty tag key upsert: %d %s", resp.StatusCode, data)
	}
	// Unknown collection is still 404.
	resp, data = postJSON(t, client, url, "/v1/collections/nope/hybrid", map[string]any{"text": "x"})
	if resp.StatusCode != http.StatusNotFound || decodeErr(t, data).Code != codeUnknownCollection {
		t.Fatalf("unknown collection: %d %s", resp.StatusCode, data)
	}
}

// TestHybridVarz checks the per-collection lexical /varz section.
func TestHybridVarz(t *testing.T) {
	_, url, client := hybridServer(t)
	v := make([]float32, 8)
	resp, data := postJSON(t, client, url, "/v1/collections/docs/upsert",
		map[string]any{"id": 1, "vector": v, "text": "alpha beta gamma"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert: %d %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, client, url, "/v1/collections/docs/hybrid", map[string]any{"text": "alpha"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hybrid: %d %s", resp.StatusCode, data)
	}
	vresp, err := client.Get(url + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(vresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	cols := doc["collections"].(map[string]any)
	docsSec := cols["docs"].(map[string]any)
	lz, ok := docsSec["lexical"].(map[string]any)
	if !ok {
		t.Fatalf("docs varz missing lexical section: %v", docsSec)
	}
	if lz["docs"].(float64) != 1 || lz["terms"].(float64) != 3 {
		t.Fatalf("lexical varz: %v", lz)
	}
	if lz["hybrid_rrf"].(float64) != 1 {
		t.Fatalf("hybrid_rrf = %v", lz["hybrid_rrf"])
	}
	if doc["hybrid_requests"].(float64) < 1 {
		t.Fatalf("hybrid_requests = %v", doc["hybrid_requests"])
	}
	if _, ok := docsSec["hybrid_cache_entries"]; !ok {
		t.Fatal("varz missing hybrid_cache_entries")
	}
}

// TestTagsAndTextOnOnePoint: a point may carry tags and text together
// (it used to be a 400: the log had no record kind for both), so a
// hybrid query under a filter can find it — before and after the
// collection is closed and recovered from its WAL. A point whose tags
// the log could not read back fails its batch with a 400 that says how
// many earlier points landed, like every mid-batch failure.
func TestTagsAndTextOnOnePoint(t *testing.T) {
	root := t.TempDir()
	open := func() (*collection.Registry, *httptest.Server) {
		reg, err := collection.Open(root, collection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(reg.Names()) == 0 {
			if _, err := reg.Create("docs", collection.Config{Dim: 8, Lexical: true}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewCollectionServer(reg, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return reg, httptest.NewServer(s.Handler())
	}
	reg, ts := open()
	vecOf := func(x float32) []float32 { return []float32{x, 0, 0, 0, 0, 0, 0, 0} }

	resp, data := postJSON(t, ts.Client(), ts.URL, "/v1/collections/docs/upsert", map[string]any{"points": []map[string]any{
		{"id": 1, "vector": vecOf(1), "text": "quartz anomaly report", "tags": map[string]string{"lang": "en"}},
		{"id": 2, "vector": vecOf(2), "text": "quartz anomaly bericht", "tags": map[string]string{"lang": "de"}},
		{"id": 3, "vector": vecOf(3), "text": "quartz anomaly untagged"},
		{"id": 4, "vector": vecOf(4), "tags": map[string]string{"lang": "en"}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tags+text upsert: %d %s", resp.StatusCode, data)
	}
	filtered := map[string]any{"query": vecOf(1), "text": "quartz anomaly", "k": 5, "filter": "lang=en"}
	check := func(when string, ts *httptest.Server) []hybridResult {
		t.Helper()
		resp, data := postJSON(t, ts.Client(), ts.URL, "/v1/collections/docs/hybrid", filtered)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: filtered hybrid: %d %s", when, resp.StatusCode, data)
		}
		rs := decodeHybrid(t, data).Results
		// Both lang=en points pass the filter; only id 1 has the words.
		if len(rs) != 2 || rs[0].ID != 1 || rs[0].BM25 <= 0 || rs[1].ID != 4 || rs[1].BM25 != 0 {
			t.Fatalf("%s: filtered hybrid = %s, want id 1 (bm25 > 0) then id 4", when, data)
		}
		return rs
	}
	check("fresh", ts)

	// A bad-tag point mid-batch: the two before it land, it does not.
	resp, data = postJSON(t, ts.Client(), ts.URL, "/v1/collections/docs/upsert", map[string]any{"points": []map[string]any{
		{"id": 10, "vector": vecOf(10)},
		{"id": 11, "vector": vecOf(11), "text": "fine"},
		{"id": 12, "vector": vecOf(12), "text": "not fine", "tags": map[string]string{"": "x"}},
		{"id": 13, "vector": vecOf(13)},
	}})
	if er := decodeErr(t, data); resp.StatusCode != http.StatusBadRequest || er.Code != codeBadRequest ||
		!strings.Contains(er.Error, "point 2 (id 12) failed after 2 applied") {
		t.Fatalf("bad-tag point mid-batch: %d %s", resp.StatusCode, data)
	}
	col, _ := reg.Get("docs")
	if st := col.Store().Stats(); st.Upserts != 6 {
		t.Fatalf("store took %d upserts, want 4 + the 2 before the bad point", st.Upserts)
	}

	before := check("before close", ts)
	ts.Close()
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg, ts = open()
	defer ts.Close()
	defer reg.Close(context.Background())
	if after := check("after reopen", ts); !reflect.DeepEqual(after, before) {
		t.Fatalf("filtered hybrid changed across reopen: %+v, was %+v", after, before)
	}
}
