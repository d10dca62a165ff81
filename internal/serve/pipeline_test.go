package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/topk"
	"repro/internal/vec"
)

// gatedBackend answers every search with the one ID it currently holds
// and can hold a search inside the backend: with gate armed, the next
// SearchBatch / SearchHybrid reads the ID, reports on entered, and waits
// for release before returning what it read. Upsert replaces the ID.
// That is the interleaving a slow search and a fast write produce on a
// real engine, made deterministic.
type gatedBackend struct {
	mu      sync.Mutex
	id      int64
	armed   bool
	entered chan struct{}
	release chan struct{}
	changed func() // topology callback
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{id: 1, entered: make(chan struct{}), release: make(chan struct{})}
}

// read returns the current ID, blocking after the read when armed.
func (g *gatedBackend) read() int64 {
	g.mu.Lock()
	id, held := g.id, g.armed
	g.armed = false
	g.mu.Unlock()
	if held {
		g.entered <- struct{}{}
		<-g.release
	}
	return id
}

func (g *gatedBackend) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gatedBackend) Dim() int  { return 4 }
func (g *gatedBackend) MaxK() int { return 0 }
func (g *gatedBackend) SearchBatch(ctx context.Context, qs *vec.Dataset, k int) (BatchOutput, error) {
	id := g.read()
	out := BatchOutput{Results: make([][]topk.Result, qs.Len())}
	for i := range out.Results {
		out.Results[i] = []topk.Result{{ID: id}}
	}
	return out, nil
}
func (g *gatedBackend) SearchHybrid(ctx context.Context, q []float32, text string, k int, opts core.HybridOptions) ([]core.HybridResult, error) {
	return []core.HybridResult{{ID: g.read(), Score: 1}}, nil
}
func (g *gatedBackend) Upsert(v []float32, id int64, a store.Attrs) error {
	g.mu.Lock()
	g.id = id
	g.mu.Unlock()
	return nil
}
func (g *gatedBackend) Delete(id int64) error      { return nil }
func (g *gatedBackend) OnTopologyChange(fn func()) { g.changed = fn }

// post sends one request straight through the handler.
func post(s *Server, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestNoStaleRowAfterAcknowledgedWrite: a search that read the engine
// before a write was acknowledged may answer with what it read, but its
// row must not enter the cache behind that write's purge, and a query
// that arrives after the purge must not be handed its answer either —
// otherwise the next identical query is served cached=true from before
// a write the client already saw succeed. Same for the hybrid cache and
// for a purge caused by a topology change.
func TestNoStaleRowAfterAcknowledgedWrite(t *testing.T) {
	type answer struct {
		code int
		body string
	}
	const upsert2 = `{"id":2,"vector":[0,0,0,0]}`
	for _, tc := range []struct {
		name, path, body string
		// invalidate makes every cached row stale while the search is held.
		invalidate func(t *testing.T, s *Server, g *gatedBackend)
		wantID     int64 // what a query after the invalidation must see
	}{
		{"search/upsert", "/v1/search", `{"query":[0,0,0,0],"k":1}`, func(t *testing.T, s *Server, g *gatedBackend) {
			if code, body := post(s, "/v1/upsert", upsert2); code != http.StatusOK {
				t.Fatalf("upsert: %d %s", code, body)
			}
		}, 2},
		{"hybrid/upsert", "/v1/hybrid", `{"query":[0,0,0,0],"text":"x","k":1}`, func(t *testing.T, s *Server, g *gatedBackend) {
			if code, body := post(s, "/v1/upsert", upsert2); code != http.StatusOK {
				t.Fatalf("upsert: %d %s", code, body)
			}
		}, 2},
		{"search/topology", "/v1/search", `{"query":[0,0,0,0],"k":1}`, func(t *testing.T, s *Server, g *gatedBackend) {
			// The shard map moved: what the held search read is from the
			// old topology.
			g.Upsert(nil, 3, store.Attrs{})
			g.changed()
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGatedBackend()
			s := NewServer(g, ServerConfig{
				Batcher:   BatcherConfig{MaxBatch: 1, MaxWait: time.Millisecond, QueueDepth: 8},
				CacheSize: 16,
			})
			defer s.Drain(context.Background())

			g.arm()
			first := make(chan answer, 1)
			go func() {
				code, body := post(s, tc.path, tc.body)
				first <- answer{code, body}
			}()
			<-g.entered // the search has read ID 1 and is still in the backend
			tc.invalidate(t, s, g)

			// A second identical query arrives after the write was
			// acknowledged; it must not ride the first one's flight. (For
			// search it queues behind the held round, so it is started
			// before the release and collected after.)
			second := make(chan answer, 1)
			go func() {
				code, body := post(s, tc.path, tc.body)
				second <- answer{code, body}
			}()
			if strings.HasPrefix(tc.name, "search") {
				waitFor(t, func() bool { return s.Stats().Requests.Load() == 2 })
			}
			close(g.release)

			row := `"ids":[%d]`
			if strings.HasPrefix(tc.name, "hybrid") {
				row = `"id":%d,`
			}
			if a := <-first; a.code != http.StatusOK || !strings.Contains(a.body, fmt.Sprintf(row, 1)) {
				t.Fatalf("held query: %d %s", a.code, a.body)
			}
			want := fmt.Sprintf(row, tc.wantID)
			if a := <-second; a.code != http.StatusOK || !strings.Contains(a.body, want) {
				t.Errorf("query arriving after the acknowledged write got a row from before it: %d %s", a.code, a.body)
			}
			// And the cache must hold nothing from before the write.
			code, body := post(s, tc.path, tc.body)
			if code != http.StatusOK || !strings.Contains(body, want) {
				t.Errorf("query after the acknowledged write: %d %s, want %s", code, body, want)
			}
		})
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestOversizeBodyIs413: a body past the route's limit is its own
// status and code, not a malformed request. Checked on collection
// create, whose limit is 1 MiB.
func TestOversizeBodyIs413(t *testing.T) {
	s, _, _ := testCollectionServer(t, ServerConfig{})
	code, body := post(s, "/v1/collections", goldenBody(oversizeBody))
	var er errorResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatalf("error body not JSON: %s", body)
	}
	if code != http.StatusRequestEntityTooLarge || er.Code != "too_large" {
		t.Fatalf("oversize create: %d %s, want 413 too_large", code, body)
	}
	if n := s.Stats().BadRequests.Load(); n != 1 {
		t.Fatalf("BadRequests = %d, want 1", n)
	}
}

// TestBodyPastLimitIsTooLarge: the body is read whole before it is
// decoded, so a body past the route's limit is a 413 even when its first
// JSON value ends before the limit (json.Decoder used to stop reading
// after that value and answer it). On collection create through the
// handler, and on a search body, which the fast path reads, with the
// limit shrunk.
func TestBodyPastLimitIsTooLarge(t *testing.T) {
	s, _, _ := testCollectionServer(t, ServerConfig{})
	code, body := post(s, "/v1/collections", `{"name":"padded","dim":4}`+strings.Repeat(" ", 1<<20))
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(body, `"code":"too_large"`) {
		t.Fatalf("padded create: %d %s, want 413 too_large", code, body)
	}
	if _, err := s.reg.Get("padded"); err == nil {
		t.Fatal("the refused create made a collection")
	}

	search := `{"query":[1,0,0,0],"k":3}`
	for _, size := range []int{64, 65} {
		body := search + strings.Repeat(" ", size-len(search))
		c := call{op: &op{limit: 64}, w: httptest.NewRecorder(),
			r: httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))}
		err := c.decode(new(searchRequest))
		if size <= 64 {
			if err != nil {
				t.Errorf("%d-byte search body under a 64-byte limit: %v", size, err)
			}
		} else if e := statusOf(err); e == nil || e.status != http.StatusRequestEntityTooLarge || e.code != codeTooLarge {
			t.Errorf("%d-byte search body under a 64-byte limit: %v, want 413 too_large", size, err)
		}
	}
}

// TestUnencodableResponseIs500: a distance that overflows float32 cannot
// be written as JSON. The answer is a typed 500 — the response is
// encoded before its header is written — not a 200 with an empty body.
func TestUnencodableResponseIs500(t *testing.T) {
	s := NewServer(&EngineBackend{Engine: goldenEngine(t)}, ServerConfig{})
	defer s.Drain(context.Background())
	if code, body := post(s, "/v1/upsert", `{"id":2,"vector":[3e38,0,0,0]}`); code != http.StatusOK {
		t.Fatalf("upsert: %d %s", code, body)
	}
	code, body := post(s, "/v1/search", `{"query":[-3e38,0,0,0],"k":2}`)
	want := `{"error":"response not encodable: json: unsupported value: +Inf","code":"internal"}` + "\n"
	if code != http.StatusInternalServerError || body != want {
		t.Fatalf("search with an infinite distance: %d %q, want 500 %q", code, body, want)
	}
}

// TestWrongMethodIsTypedEverywhere: every data route answers a wrong
// method with the JSON error body and Allow: POST.
func TestWrongMethodIsTypedEverywhere(t *testing.T) {
	s := NewServer(&EngineBackend{Engine: goldenEngine(t)}, ServerConfig{})
	defer s.Drain(context.Background())
	for _, prefix := range []string{"/v1", "/v1/collections/default"} {
		for _, op := range []string{"search", "upsert", "delete", "hybrid"} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, prefix+"/"+op, nil))
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost ||
				strings.TrimSpace(rec.Body.String()) != `{"error":"POST only","code":"bad_request"}` {
				t.Errorf("GET %s/%s: %d Allow=%q %s", prefix, op, rec.Code, rec.Header().Get("Allow"), rec.Body)
			}
		}
	}
}

// Handler allocation ceilings (go test -run TestHandlerAllocCeiling -v
// prints the current numbers): one request through Handler().ServeHTTP
// on a recorder, request construction included, cache off. upsert_1
// keeps the ceiling measured on the commit before the pipeline; the
// others are their exact counts since a search request became one
// batcher entry (search_64 on the one-round server below).
var handlerAllocCeilings = map[string]float64{
	"search_1":  41,
	"search_64": 113,
	"upsert_1":  39,
	"hybrid":    27,
}

func TestHandlerAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// The gated backend (never armed here) costs a fixed handful of
	// allocations per call, so the count is the gateway's own: decode,
	// validation, batcher, encode.
	s := NewServer(newGatedBackend(), ServerConfig{
		Batcher: BatcherConfig{MaxBatch: 64, MaxWait: 50 * time.Microsecond},
	})
	defer s.Drain(context.Background())
	// The 64-query POST goes to a server whose round never times out:
	// its 64 distinct queries (none joins another's flight) are one
	// request that fills MaxBatch by itself, so it goes out at once as
	// one backend call, no timer started.
	s64 := NewServer(newGatedBackend(), ServerConfig{
		Batcher: BatcherConfig{MaxBatch: 64, MaxWait: time.Hour},
	})
	defer s64.Drain(context.Background())
	var q64 []string
	for i := 0; i < 64; i++ {
		q64 = append(q64, fmt.Sprintf("[%d,0,0,1]", i))
	}
	cases := []struct {
		name, path, body string
		s                *Server
	}{
		{"search_1", "/v1/search", `{"query":[3,0,0,1],"k":10}`, s},
		{"search_64", "/v1/search", `{"queries":[` + strings.Join(q64, ",") + `],"k":10}`, s64},
		{"upsert_1", "/v1/upsert", `{"id":7,"vector":[7,0,0,1]}`, s},
		{"hybrid", "/v1/hybrid", `{"query":[3,0,0,1],"text":"common word3","k":10}`, s},
	}
	for _, tc := range cases {
		h := tc.s.Handler()
		got := testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body)
			}
		})
		t.Logf("%s: %.0f allocs per request (ceiling %.0f)", tc.name, got, handlerAllocCeilings[tc.name])
		if got > handlerAllocCeilings[tc.name] {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", tc.name, got, handlerAllocCeilings[tc.name])
		}
	}
}
