package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/store"
	"repro/internal/topk"
	"repro/internal/vec"
)

func postJSON(t *testing.T, client *http.Client, url, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestMutationEndpoints drives the write path end to end over a durable
// store: upsert, search-sees-it, delete, search-stops-seeing-it, cache
// invalidation in between, and /varz exposing the ingest counters.
func TestMutationEndpoints(t *testing.T) {
	e := testEngine(t)
	d, err := store.Create(t.TempDir(), e, store.Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := NewServer(&EngineBackend{Engine: e, Store: d}, ServerConfig{
		Batcher:   BatcherConfig{MaxBatch: 16, MaxWait: 2 * time.Millisecond, QueueDepth: 64},
		CacheSize: 64,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A far-away point only the new insert can be nearest to.
	target := []float32{9, 9, 9, 9, 9, 9, 9, 9}

	// Warm the cache with the pre-insert answer.
	resp, data := postSearch(t, ts.Client(), ts.URL, map[string]any{"query": target, "k": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, data)
	}

	// Single-point upsert.
	resp, data = postJSON(t, ts.Client(), ts.URL, "/v1/upsert",
		map[string]any{"id": 9001, "vector": target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert: %d %s", resp.StatusCode, data)
	}
	var mr mutateResponse
	json.Unmarshal(data, &mr)
	if mr.Upserted != 1 {
		t.Fatalf("upserted %d, want 1", mr.Upserted)
	}

	// The cache was purged: the same query now finds the new point.
	resp, data = postSearch(t, ts.Client(), ts.URL, map[string]any{"query": target, "k": 1})
	var sr searchResponse
	json.Unmarshal(data, &sr)
	if resp.StatusCode != http.StatusOK || len(sr.Results) != 1 {
		t.Fatalf("post-upsert search: %d %s", resp.StatusCode, data)
	}
	if sr.Results[0].Cached || sr.Results[0].IDs[0] != 9001 {
		t.Fatalf("post-upsert search did not surface the insert: %s", data)
	}

	// Batch upsert.
	resp, data = postJSON(t, ts.Client(), ts.URL, "/v1/upsert", map[string]any{
		"points": []map[string]any{
			{"id": 9002, "vector": []float32{8, 8, 8, 8, 8, 8, 8, 8}},
			{"id": 9003, "vector": []float32{7, 7, 7, 7, 7, 7, 7, 7}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch upsert: %d %s", resp.StatusCode, data)
	}

	// Delete the first insert; the target query falls back to 9002.
	resp, data = postJSON(t, ts.Client(), ts.URL, "/v1/delete", map[string]any{"id": 9001})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, data)
	}
	json.Unmarshal(data, &mr)
	if mr.Deleted != 1 {
		t.Fatalf("deleted %d, want 1", mr.Deleted)
	}
	resp, data = postSearch(t, ts.Client(), ts.URL, map[string]any{"query": target, "k": 1})
	json.Unmarshal(data, &sr)
	if resp.StatusCode != http.StatusOK || sr.Results[0].IDs[0] != 9002 {
		t.Fatalf("post-delete search still returns the tombstoned id: %s", data)
	}

	// Validation errors.
	for _, bad := range []map[string]any{
		{"vector": target},                   // id missing
		{"id": 1, "vector": []float32{1, 2}}, // wrong dim
		{},                                   // empty
	} {
		resp, _ = postJSON(t, ts.Client(), ts.URL, "/v1/upsert", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad upsert %v: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// /varz carries the engine and ingest sections with live counters.
	vresp, err := ts.Client().Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	vdata, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	var varz struct {
		Requests int64 `json:"requests"`
		Engine   *struct {
			Points     int   `json:"points"`
			Inserted   int64 `json:"inserted"`
			Tombstones int   `json:"tombstones"`
		} `json:"engine"`
		Ingest *store.Snapshot `json:"ingest"`
	}
	if err := json.Unmarshal(vdata, &varz); err != nil {
		t.Fatalf("varz not JSON: %v\n%s", err, vdata)
	}
	if varz.Engine == nil || varz.Ingest == nil {
		t.Fatalf("varz missing engine/ingest sections: %s", vdata)
	}
	if varz.Engine.Inserted != 3 || varz.Engine.Tombstones != 1 {
		t.Errorf("varz engine inserted=%d tombstones=%d, want 3/1", varz.Engine.Inserted, varz.Engine.Tombstones)
	}
	if varz.Ingest.Upserts != 3 || varz.Ingest.Deletes != 1 || varz.Ingest.WALAppends != 4 {
		t.Errorf("varz ingest %+v, want upserts=3 deletes=1 wal_appends=4", varz.Ingest)
	}
	if got := s.Stats().Upserts.Load(); got != 3 {
		t.Errorf("server upsert counter %d, want 3", got)
	}

	// Drain refuses further writes.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL, "/v1/delete", map[string]any{"id": 9002})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain delete: %d, want 503", resp.StatusCode)
	}
}

// readOnlyBackend implements Backend but not Mutator.
type readOnlyBackend struct{}

func (readOnlyBackend) Dim() int  { return 4 }
func (readOnlyBackend) MaxK() int { return 0 }
func (readOnlyBackend) SearchBatch(ctx context.Context, queries *vec.Dataset, k int) (BatchOutput, error) {
	return BatchOutput{Results: make([][]topk.Result, queries.Len())}, nil
}

func TestMutationNotImplemented(t *testing.T) {
	s := NewServer(readOnlyBackend{}, ServerConfig{
		Batcher: BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 8},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.Client(), ts.URL, "/v1/upsert",
		map[string]any{"id": 1, "vector": []float32{1, 2, 3, 4}})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("upsert on read-only backend: %d, want 501", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL, "/v1/delete", map[string]any{"id": 1})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("delete on read-only backend: %d, want 501", resp.StatusCode)
	}
}

// TestEngineBackendWithoutStore: mutations still work, applied to the
// in-memory engine only.
func TestEngineBackendWithoutStore(t *testing.T) {
	e := testEngine(t)
	b := &EngineBackend{Engine: e}
	rng := rand.New(rand.NewSource(3))
	if err := b.Upsert(randQuery(rng, 8), 777, store.Attrs{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(777); err != nil {
		t.Fatal(err)
	}
	if e.Inserted() != 1 || e.Tombstones() != 1 {
		t.Fatalf("engine inserted=%d tombstones=%d, want 1/1", e.Inserted(), e.Tombstones())
	}
	if v := b.Varz(); v["ingest"] != nil {
		t.Error("varz ingest section present without a store")
	}
	// Attributes land in the engine with the vector; text needs Lexical.
	text := "in memory"
	both := store.Attrs{Tags: map[string]string{"lang": "en"}, Text: &text}
	if err := b.Upsert(randQuery(rng, 8), 778, both); !errors.Is(err, collection.ErrLexicalDisabled) {
		t.Fatalf("text upsert without Lexical = %v, want ErrLexicalDisabled", err)
	}
	b.Lexical = true
	if err := b.Upsert(randQuery(rng, 8), 778, both); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Text(778); got != text || e.Tags(778)["lang"] != "en" {
		t.Fatalf("in-memory upsert left text %q, tags %v", got, e.Tags(778))
	}
}
