package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/lexical"
	"repro/internal/store"
	"repro/internal/topk"
	"repro/internal/vec"
)

// The golden request table: every validation branch of the six
// operations (search, upsert, delete, hybrid, collection create and
// drop) on every kind of server the gateway can be — a single engine
// with and without a store and a lexical index, a collection registry,
// a read-only backend, a tripped write breaker, a draining server, an
// exhausted quota — with what each request got back: status, the
// headers clients act on, the body, and what it did to the counters.
//
// testdata/golden_requests.json was captured on the commit BEFORE the
// per-endpoint handlers became one pipeline:
//
//	go test ./internal/serve -run TestGoldenRequests -capture-golden
//
// and passes there as `-golden-parent`. A row the pipeline answers
// differently on purpose carries an "after" block with the reason;
// everything else must stay byte for byte.
var (
	captureGolden      = flag.Bool("capture-golden", false, "rewrite testdata/golden_requests.json from this checkout")
	captureGoldenAfter = flag.Bool("capture-golden-after", false, "record this checkout's answer as the \"after\" of every row that differs")
	goldenParent       = flag.Bool("golden-parent", false, "compare with the captured rows alone, ignoring \"after\" blocks")
)

const goldenFile = "testdata/golden_requests.json"

// goldenReq is one request of the table. An empty method is POST.
type goldenReq struct {
	name, method, path, body string
}

func (q goldenReq) verb() string {
	if q.method == "" {
		return http.MethodPost
	}
	return q.method
}

// goldenOutcome is everything recorded about one response.
type goldenOutcome struct {
	Status      int    `json:"status"`
	ContentType string `json:"content_type,omitempty"`
	RetryAfter  string `json:"retry_after,omitempty"`
	Allow       string `json:"allow,omitempty"`
	// Response is the body with took_us zeroed and temp paths masked.
	Response string `json:"response"`
	// Deltas are the counters the request moved (zero ones omitted).
	Deltas map[string]int64 `json:"deltas,omitempty"`
}

type goldenRow struct {
	Fixture string `json:"fixture"`
	Name    string `json:"name"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Body    string `json:"body,omitempty"`
	goldenOutcome
	// After is the answer since the pipeline, Why the reason it differs.
	After *goldenOutcome `json:"after,omitempty"`
	Why   string         `json:"why,omitempty"`
}

// oversizeBody stands in the table for a create body just past the
// route's 1 MiB limit (valid JSON all the way, so only the limit can
// refuse it).
const oversizeBody = "@oversize"

func goldenBody(body string) string {
	if body != oversizeBody {
		return body
	}
	return `{"name":"big","dim":4,"stopwords":["` + strings.Repeat("a", 1<<20) + `"]}`
}

func goldenCounters(s *Server) map[string]int64 {
	st := s.Stats()
	return map[string]int64{
		"requests":          st.Requests.Load(),
		"bad_requests":      st.BadRequests.Load(),
		"writes_rejected":   st.WritesRejected.Load(),
		"upserts":           st.Upserts.Load(),
		"deletes":           st.Deletes.Load(),
		"hybrid_requests":   st.HybridRequests.Load(),
		"hybrid_cache_hits": st.HybridCacheHits.Load(),
		"cache_hits":        st.CacheHits.Load(),
		"cache_misses":      st.CacheMisses.Load(),
		"coalesced":         st.Coalesced.Load(),
		"latencies":         int64(st.Snapshot().LatencyUS.N),
	}
}

var tookRE = regexp.MustCompile(`"took_us":\d+`)

// goldenDo sends one request through the handler and records it.
func goldenDo(s *Server, mask string, q goldenReq) goldenOutcome {
	before := goldenCounters(s)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(q.verb(), q.path, strings.NewReader(goldenBody(q.body))))
	out := goldenOutcome{
		Status:      rec.Code,
		ContentType: rec.Header().Get("Content-Type"),
		RetryAfter:  rec.Header().Get("Retry-After"),
		Allow:       rec.Header().Get("Allow"),
		Response:    tookRE.ReplaceAllString(rec.Body.String(), `"took_us":0`),
	}
	if mask != "" {
		out.Response = strings.ReplaceAll(out.Response, mask, "<tmp>")
	}
	for name, after := range goldenCounters(s) {
		if d := after - before[name]; d != 0 {
			if out.Deltas == nil {
				out.Deltas = map[string]int64{}
			}
			out.Deltas[name] = d
		}
	}
	return out
}

// goldenFixture is one server plus the requests it answers, in order
// (state carries over: an upsert row feeds the search rows after it).
type goldenFixture struct {
	name string
	// build returns the server, a path prefix to mask in bodies, and the
	// requests. Cleanup goes through t.
	build func(t *testing.T) (*Server, string, []goldenReq)
}

// goldenBatcher keeps rounds short: rows run one at a time, so nothing
// ever waits for company.
var goldenBatcher = BatcherConfig{MaxBatch: 8, MaxWait: 200 * time.Microsecond, QueueDepth: 32}

// goldenEngine is an empty dim-4 engine; rows fill it with [i,0,0,0].
func goldenEngine(t testing.TB) *core.Engine {
	t.Helper()
	e, err := core.NewEmptyEngine(4, core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// goldenReadOnly is shaped like MasterBackend: searches only, a fixed
// MaxK, no filtered, hybrid or write half. A query starting with 99
// blocks until its deadline.
type goldenReadOnly struct{}

func (goldenReadOnly) Dim() int  { return 4 }
func (goldenReadOnly) MaxK() int { return 3 }
func (goldenReadOnly) SearchBatch(ctx context.Context, qs *vec.Dataset, k int) (BatchOutput, error) {
	out := BatchOutput{Results: make([][]topk.Result, qs.Len())}
	for i := range out.Results {
		if qs.At(i)[0] == 99 {
			<-ctx.Done()
			return BatchOutput{}, ctx.Err()
		}
		for j := 0; j < k; j++ {
			out.Results[i] = append(out.Results[i], topk.Result{ID: int64(j), Dist: float32(j)})
		}
	}
	return out, nil
}

// The request bodies, shared between fixtures.
const (
	gQuery   = `{"query":[1,0,0,0],"k":3}`
	gUpsert  = `{"id":1,"vector":[1,0,0,0]}`
	gDelete  = `{"id":1}`
	gHybrid  = `{"query":[1,0,0,0],"text":"quartz","k":3}`
	gPoints4 = `{"points":[{"id":1,"vector":[1,0,0,0]},{"id":2,"vector":[2,0,0,0]},{"id":3,"vector":[3,0,0,0],"tags":{"lang":"de"}},{"id":4,"vector":[4,0,0,0],"tags":{"lang":"en"}}]}`
)

// searchRows are the search branches every tenant answers the same way;
// prefix is "/v1" or "/v1/collections/<name>".
func searchRows(prefix string) []goldenReq {
	p := prefix + "/search"
	return []goldenReq{
		{name: "search bad json", path: p, body: `{"query":[1,`},
		{name: "search not an object", path: p, body: `[1,2]`},
		{name: "search wrong field type", path: p, body: `{"query":"x"}`},
		{name: "search empty body", path: p},
		{name: "search query and queries", path: p, body: `{"query":[1,0,0,0],"queries":[[1,0,0,0]]}`},
		{name: "search no queries", path: p, body: `{"k":5}`},
		{name: "search empty queries", path: p, body: `{"queries":[]}`},
		{name: "search too many queries", path: p, body: `{"queries":[[1,0,0,0],[1,0,0,0],[1,0,0,0],[1,0,0,0],[1,0,0,0]]}`},
		{name: "search dim mismatch", path: p, body: `{"query":[1,2]}`},
		{name: "search dim mismatch second", path: p, body: `{"queries":[[1,0,0,0],[1,2,3]]}`},
		{name: "search bad filter", path: p, body: `{"query":[1,0,0,0],"filter":"lang=={"}`},
		{name: "search ok", path: p, body: gQuery},
		{name: "search repeat", path: p, body: gQuery},
		{name: "search default k", path: p, body: `{"query":[2,0,0,0]}`},
		{name: "search k clamped", path: p, body: `{"query":[3,0,0,0],"k":100000}`},
		{name: "search negative k", path: p, body: `{"query":[3,0,0,0],"k":-4}`},
		{name: "search batch", path: p, body: `{"queries":[[1,0,0,0],[4,0,0,0]],"k":2}`},
		{name: "search batch repeats a query", path: p, body: `{"queries":[[2,0,0,0],[2,0,0,0]],"k":2}`},
		{name: "search batch cached and new", path: p, body: `{"queries":[[1,0,0,0],[5,0,0,0]],"k":3}`},
		{name: "search filtered", path: p, body: `{"query":[1,0,0,0],"k":3,"filter":"lang=de"}`},
		{name: "search filter respelled", path: p, body: `{"query":[1,0,0,0],"k":3,"filter":"lang in {de}"}`},
		{name: "search trailing garbage", path: p, body: gQuery + ` xyz`},
		{name: "search GET", method: http.MethodGet, path: p},
		{name: "search PUT", method: http.MethodPut, path: p, body: gQuery},
	}
}

func upsertRows(prefix string) []goldenReq {
	p := prefix + "/upsert"
	return []goldenReq{
		{name: "upsert bad json", path: p, body: `{"id":`},
		{name: "upsert wrong field type", path: p, body: `{"id":"seven","vector":[1,0,0,0]}`},
		{name: "upsert vector and points", path: p, body: `{"id":1,"vector":[1,0,0,0],"points":[{"id":2,"vector":[2,0,0,0]}]}`},
		{name: "upsert vector without id", path: p, body: `{"vector":[1,0,0,0]}`},
		{name: "upsert no points", path: p, body: `{}`},
		{name: "upsert id only", path: p, body: `{"id":3}`},
		{name: "upsert too many points", path: p, body: `{"points":[{"id":1,"vector":[1,0,0,0]},{"id":2,"vector":[1,0,0,0]},{"id":3,"vector":[1,0,0,0]},{"id":4,"vector":[1,0,0,0]},{"id":5,"vector":[1,0,0,0]}]}`},
		{name: "upsert dim mismatch", path: p, body: `{"id":7,"vector":[1,2]}`},
		{name: "upsert dim mismatch in batch", path: p, body: `{"points":[{"id":1,"vector":[1,0,0,0]},{"id":2,"vector":[]}]}`},
		{name: "upsert batch", path: p, body: gPoints4},
		{name: "upsert single tagged", path: p, body: `{"id":5,"vector":[5,0,0,0],"tags":{"lang":"de","tier":"hot"}}`},
		{name: "upsert GET", method: http.MethodGet, path: p},
	}
}

func deleteRows(prefix string) []goldenReq {
	p := prefix + "/delete"
	return []goldenReq{
		{name: "delete bad json", path: p, body: `nope`},
		{name: "delete id and ids", path: p, body: `{"id":1,"ids":[2]}`},
		{name: "delete no ids", path: p, body: `{}`},
		{name: "delete empty ids", path: p, body: `{"ids":[]}`},
		{name: "delete one", path: p, body: `{"id":5}`},
		{name: "delete batch", path: p, body: `{"ids":[4,40]}`},
		{name: "search after delete", path: prefix + "/search", body: `{"query":[4,0,0,0],"k":2}`},
		{name: "delete GET", method: http.MethodGet, path: p},
	}
}

func hybridRows(prefix string) []goldenReq {
	p := prefix + "/hybrid"
	return []goldenReq{
		{name: "hybrid bad json", path: p, body: `{"text":`},
		{name: "hybrid missing leg", path: p, body: `{"k":5}`},
		{name: "hybrid dim mismatch", path: p, body: `{"query":[1,2],"text":"quartz"}`},
		{name: "hybrid unknown fusion", path: p, body: `{"text":"quartz","fusion":"borda"}`},
		{name: "hybrid bad filter", path: p, body: `{"text":"quartz","filter":"lang=={"}`},
		{name: "hybrid ok", path: p, body: gHybrid},
		{name: "hybrid GET", method: http.MethodGet, path: p},
	}
}

// lexicalRows need a tenant with a lexical index.
func lexicalRows(prefix string) []goldenReq {
	p := prefix + "/hybrid"
	return []goldenReq{
		{name: "upsert texts", path: prefix + "/upsert", body: `{"points":[` +
			`{"id":11,"vector":[1,0,0,0],"text":"the common granite slab"},` +
			`{"id":12,"vector":[2,0,0,0],"text":"a common quartz vein","tags":{"lang":"de"}},` +
			`{"id":13,"vector":[3,0,0,0],"text":"quartz quartz anomaly"}]}`},
		{name: "upsert bad tag mid-batch", path: prefix + "/upsert", body: `{"points":[` +
			`{"id":14,"vector":[4,0,0,0],"text":"late basalt"},` +
			`{"id":15,"vector":[5,0,0,0],"tags":{"":"empty key"}}]}`},
		{name: "hybrid text only", path: p, body: `{"text":"quartz anomaly","k":2}`},
		{name: "hybrid both legs", path: p, body: gHybrid},
		{name: "hybrid repeat", path: p, body: gHybrid},
		{name: "hybrid vector only", path: p, body: `{"query":[3,0,0,0],"k":2}`},
		{name: "hybrid weighted", path: p, body: `{"query":[1,0,0,0],"text":"quartz","k":3,"fusion":"weighted","vec_weight":0.3,"lex_weight":0.7}`},
		{name: "hybrid rrf_k", path: p, body: `{"query":[1,0,0,0],"text":"quartz","k":3,"rrf_k":10}`},
		{name: "hybrid filtered", path: p, body: `{"text":"quartz","k":3,"filter":"lang=de"}`},
		{name: "hybrid k clamped", path: p, body: `{"text":"common","k":100000}`},
		{name: "hybrid after delete", path: prefix + "/delete", body: `{"id":13}`},
		{name: "hybrid repeat after delete", path: p, body: gHybrid},
	}
}

func concat(rows ...[]goldenReq) []goldenReq {
	var all []goldenReq
	for _, r := range rows {
		all = append(all, r...)
	}
	return all
}

// adminRows are the collection-management requests a server answers
// whether or not it has a registry.
var adminRows = []goldenReq{
	{name: "list", method: http.MethodGet, path: "/v1/collections"},
	{name: "create bad json", path: "/v1/collections", body: `{"name":`},
	{name: "create oversize", path: "/v1/collections", body: oversizeBody},
	{name: "create", path: "/v1/collections", body: `{"name":"tmp","dim":3,"metric":"cosine"}`},
	{name: "create PUT", method: http.MethodPut, path: "/v1/collections", body: `{"name":"tmp2","dim":3}`},
	{name: "drop unknown", method: http.MethodDelete, path: "/v1/collections/nope"},
	{name: "drop", method: http.MethodDelete, path: "/v1/collections/tmp"},
	{name: "drop default", method: http.MethodDelete, path: "/v1/collections/default"},
}

var goldenCfg = ServerConfig{Batcher: goldenBatcher, CacheSize: 64, MaxQueries: 4, MaxK: 50}

// goldenRegistry opens a registry holding default (dim 4), docs (dim 4,
// lexical) and quota (dim 4, lexical, one admission slot).
func goldenRegistry(t *testing.T) (*collection.Registry, string) {
	t.Helper()
	dir := t.TempDir()
	reg, err := collection.Open(dir, collection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reg.Close(ctx)
	})
	for name, cfg := range map[string]collection.Config{
		DefaultCollection: {Dim: 4},
		"docs":            {Dim: 4, Lexical: true},
		"quota":           {Dim: 4, Lexical: true, MaxInflight: 1},
	} {
		if _, err := reg.Create(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return reg, dir
}

func goldenStore(t *testing.T, fs fsx.FS) (*store.Durable, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := store.Create(dir, goldenEngine(t), store.Options{
		SyncEvery: 1, SyncInterval: -1, CompactRatio: -1, FS: fs, Lexical: &lexical.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, dir
}

var goldenFixtures = []goldenFixture{
	{name: "engine", build: func(t *testing.T) (*Server, string, []goldenReq) {
		// Memory-only engine, no lexical index: the plainest server.
		s := NewServer(&EngineBackend{Engine: goldenEngine(t)}, goldenCfg)
		return s, "", concat(
			upsertRows("/v1"), searchRows("/v1"), hybridRows("/v1"), deleteRows("/v1"),
			[]goldenReq{
				{name: "upsert text without lexical", path: "/v1/upsert", body: `{"points":[{"id":20,"vector":[1,0,0,0]},{"id":21,"vector":[1,0,0,0],"text":"words"}]}`},
				{name: "prefixed default search", path: "/v1/collections/default/search", body: gQuery},
				{name: "prefixed default upsert", path: "/v1/collections/default/upsert", body: `{"id":30,"vector":[30,0,0,0]}`},
				{name: "prefixed default delete", path: "/v1/collections/default/delete", body: `{"id":30}`},
				{name: "prefixed GET search", method: http.MethodGet, path: "/v1/collections/default/search"},
				{name: "prefixed GET upsert", method: http.MethodGet, path: "/v1/collections/default/upsert"},
				{name: "prefixed GET delete", method: http.MethodGet, path: "/v1/collections/default/delete"},
				{name: "prefixed GET hybrid", method: http.MethodGet, path: "/v1/collections/default/hybrid"},
				{name: "unknown search", path: "/v1/collections/nope/search", body: gQuery},
				{name: "unknown upsert", path: "/v1/collections/nope/upsert", body: gUpsert},
				{name: "unknown delete", path: "/v1/collections/nope/delete", body: gDelete},
				{name: "unknown hybrid", path: "/v1/collections/nope/hybrid", body: gHybrid},
				{name: "unknown GET search", method: http.MethodGet, path: "/v1/collections/nope/search"},
				{name: "unknown bad json", path: "/v1/collections/nope/search", body: `{`},
				{name: "unknown operation", path: "/v1/collections/default/explain", body: gQuery},
			},
			adminRows,
			[]goldenReq{{name: "create bad json no registry", path: "/v1/collections", body: `{`}},
		)
	}},
	{name: "durable", build: func(t *testing.T) (*Server, string, []goldenReq) {
		// Engine behind a store, lexical on: annserve -wal -lexical.
		d, dir := goldenStore(t, nil)
		s := NewServer(&EngineBackend{Engine: d.Engine(), Store: d, Lexical: true}, goldenCfg)
		return s, dir, concat(
			upsertRows("/v1"), searchRows("/v1"), lexicalRows("/v1"), hybridRows("/v1"), deleteRows("/v1"))
	}},
	{name: "collections", build: func(t *testing.T) (*Server, string, []goldenReq) {
		reg, dir := goldenRegistry(t)
		s, err := NewCollectionServer(reg, goldenCfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, dir, concat(
			upsertRows("/v1/collections/docs"), searchRows("/v1/collections/docs"),
			lexicalRows("/v1/collections/docs"), hybridRows("/v1/collections/docs"),
			deleteRows("/v1/collections/docs"),
			[]goldenReq{
				{name: "legacy search is default", path: "/v1/search", body: gQuery},
				{name: "legacy upsert is default", path: "/v1/upsert", body: gUpsert},
				{name: "default search sees it", path: "/v1/collections/default/search", body: gQuery},
				{name: "default search cached, docs untouched", path: "/v1/collections/default/search", body: gQuery},
				{name: "legacy hybrid not lexical", path: "/v1/hybrid", body: gHybrid},
				{name: "default text upsert not lexical", path: "/v1/collections/default/upsert", body: `{"id":2,"vector":[2,0,0,0],"text":"words"}`},
				{name: "legacy delete is default", path: "/v1/delete", body: gDelete},
				{name: "unknown search", path: "/v1/collections/nope/search", body: gQuery},
				{name: "unknown upsert", path: "/v1/collections/nope/upsert", body: gUpsert},
				{name: "unknown delete", path: "/v1/collections/nope/delete", body: gDelete},
				{name: "unknown hybrid", path: "/v1/collections/nope/hybrid", body: gHybrid},
				{name: "unknown GET upsert", method: http.MethodGet, path: "/v1/collections/nope/upsert"},
				{name: "create exists", path: "/v1/collections", body: `{"name":"docs","dim":4}`},
				{name: "create bad name", path: "/v1/collections", body: `{"name":"no/slash","dim":4}`},
				{name: "create no name", path: "/v1/collections", body: `{"dim":4}`},
				{name: "create no dim", path: "/v1/collections", body: `{"name":"nodim"}`},
				{name: "create bad metric", path: "/v1/collections", body: `{"name":"m","dim":4,"metric":"manhattan"}`},
				{name: "create sq8 without frozen", path: "/v1/collections", body: `{"name":"q","dim":4,"sq8":true}`},
				{name: "create wrong field type", path: "/v1/collections", body: `{"name":"t","dim":"four"}`},
			},
			adminRows,
			[]goldenReq{
				{name: "search dropped", path: "/v1/collections/tmp/search", body: `{"query":[1,0,0]}`},
				{name: "legacy search after default dropped", path: "/v1/search", body: gQuery},
				{name: "list after drops", method: http.MethodGet, path: "/v1/collections"},
			},
		)
	}},
	{name: "readonly", build: func(t *testing.T) (*Server, string, []goldenReq) {
		s := NewServer(goldenReadOnly{}, ServerConfig{Batcher: goldenBatcher, CacheSize: 64})
		return s, "", []goldenReq{
			{name: "search ok", path: "/v1/search", body: gQuery},
			{name: "search k above MaxK", path: "/v1/search", body: `{"query":[2,0,0,0],"k":10}`},
			{name: "search filter unsupported", path: "/v1/search", body: `{"query":[1,0,0,0],"filter":"lang=de"}`},
			{name: "search batch one filtered-unsupported", path: "/v1/search", body: `{"queries":[[1,0,0,0],[2,0,0,0]],"filter":"lang=de"}`},
			{name: "search deadline", path: "/v1/search", body: `{"query":[99,0,0,0],"timeout_ms":20}`},
			{name: "upsert", path: "/v1/upsert", body: gUpsert},
			{name: "upsert bad json", path: "/v1/upsert", body: `{`},
			{name: "upsert GET", method: http.MethodGet, path: "/v1/upsert"},
			{name: "delete", path: "/v1/delete", body: gDelete},
			{name: "prefixed upsert", path: "/v1/collections/default/upsert", body: gUpsert},
			{name: "prefixed GET upsert", method: http.MethodGet, path: "/v1/collections/default/upsert"},
			{name: "unknown GET upsert", method: http.MethodGet, path: "/v1/collections/nope/upsert"},
			{name: "hybrid", path: "/v1/hybrid", body: gHybrid},
			{name: "hybrid missing leg", path: "/v1/hybrid", body: `{}`},
			{name: "create", path: "/v1/collections", body: `{"name":"x","dim":4}`},
			{name: "drop unknown", method: http.MethodDelete, path: "/v1/collections/nope"},
			{name: "list", method: http.MethodGet, path: "/v1/collections"},
		}
	}},
	{name: "breaker", build: func(t *testing.T) (*Server, string, []goldenReq) {
		// A WAL fsync fails after completing (the fsyncgate shape): the
		// upsert it belonged to trips the breaker, and from then on every
		// mutation is refused up front.
		fs := fsx.NewFaulty(fsx.OS{}, 1, fsx.Rule{Op: fsx.OpSync, Nth: 4, After: true, Path: "wal"})
		d, dir := goldenStore(t, fs)
		s := NewServer(&EngineBackend{Engine: d.Engine(), Store: d, Lexical: true}, goldenCfg)
		var rows []goldenReq
		for i := 1; i <= 4; i++ {
			rows = append(rows, goldenReq{name: fmt.Sprintf("upsert %d", i), path: "/v1/upsert",
				body: fmt.Sprintf(`{"id":%d,"vector":[%d,0,0,0]}`, i, i)})
		}
		return s, dir, append(rows,
			goldenReq{name: "upsert refused", path: "/v1/upsert", body: gUpsert},
			goldenReq{name: "upsert batch refused", path: "/v1/upsert", body: gPoints4},
			goldenReq{name: "delete refused", path: "/v1/delete", body: gDelete},
			goldenReq{name: "prefixed delete refused", path: "/v1/collections/default/delete", body: gDelete},
			goldenReq{name: "upsert bad json refused", path: "/v1/upsert", body: `{`},
			goldenReq{name: "upsert GET", method: http.MethodGet, path: "/v1/upsert"},
			goldenReq{name: "search still served", path: "/v1/search", body: gQuery},
			goldenReq{name: "hybrid still served", path: "/v1/hybrid", body: `{"query":[1,0,0,0],"k":2}`},
		)
	}},
	{name: "draining", build: func(t *testing.T) (*Server, string, []goldenReq) {
		reg, dir := goldenRegistry(t)
		s, err := NewCollectionServer(reg, goldenCfg)
		if err != nil {
			t.Fatal(err)
		}
		// One search answered (and cached) before the drain begins.
		goldenDo(s, dir, goldenReq{path: "/v1/collections/docs/search", body: gQuery})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		return s, dir, []goldenReq{
			{name: "search", path: "/v1/collections/docs/search", body: `{"query":[2,0,0,0],"k":3}`},
			{name: "search cached before drain", path: "/v1/collections/docs/search", body: gQuery},
			{name: "legacy search", path: "/v1/search", body: `{"query":[2,0,0,0],"k":3}`},
			{name: "search bad json", path: "/v1/search", body: `{`},
			{name: "search dim mismatch", path: "/v1/search", body: `{"query":[1]}`},
			{name: "search GET", method: http.MethodGet, path: "/v1/search"},
			{name: "search unknown", path: "/v1/collections/nope/search", body: gQuery},
			{name: "upsert", path: "/v1/upsert", body: gUpsert},
			{name: "upsert bad json", path: "/v1/upsert", body: `{`},
			{name: "upsert GET", method: http.MethodGet, path: "/v1/upsert"},
			{name: "delete", path: "/v1/collections/docs/delete", body: gDelete},
			{name: "hybrid", path: "/v1/collections/docs/hybrid", body: gHybrid},
			{name: "hybrid missing leg", path: "/v1/collections/docs/hybrid", body: `{}`},
			{name: "hybrid unknown", path: "/v1/collections/nope/hybrid", body: gHybrid},
			{name: "create", path: "/v1/collections", body: `{"name":"late","dim":4}`},
			{name: "create bad json", path: "/v1/collections", body: `{`},
			{name: "drop", method: http.MethodDelete, path: "/v1/collections/quota"},
			{name: "drop unknown", method: http.MethodDelete, path: "/v1/collections/nope"},
			{name: "list", method: http.MethodGet, path: "/v1/collections"},
		}
	}},
	{name: "draining-single", build: func(t *testing.T) (*Server, string, []goldenReq) {
		s := NewServer(goldenReadOnly{}, ServerConfig{Batcher: goldenBatcher})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		return s, "", []goldenReq{
			{name: "readonly upsert", path: "/v1/upsert", body: gUpsert},
			{name: "readonly hybrid", path: "/v1/hybrid", body: gHybrid},
			{name: "create", path: "/v1/collections", body: `{"name":"x","dim":4}`},
			{name: "drop", method: http.MethodDelete, path: "/v1/collections/default"},
		}
	}},
	{name: "quota", build: func(t *testing.T) (*Server, string, []goldenReq) {
		reg, dir := goldenRegistry(t)
		s, err := NewCollectionServer(reg, goldenCfg)
		if err != nil {
			t.Fatal(err)
		}
		col, err := reg.Get("quota")
		if err != nil {
			t.Fatal(err)
		}
		// The collection's one admission slot is taken for every row.
		if err := col.Acquire(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(col.Release)
		p := "/v1/collections/quota"
		return s, dir, []goldenReq{
			{name: "search", path: p + "/search", body: gQuery},
			{name: "search batch", path: p + "/search", body: `{"queries":[[1,0,0,0],[2,0,0,0]]}`},
			{name: "search dim mismatch", path: p + "/search", body: `{"query":[1]}`},
			{name: "upsert", path: p + "/upsert", body: gUpsert},
			{name: "upsert batch", path: p + "/upsert", body: gPoints4},
			{name: "delete", path: p + "/delete", body: gDelete},
			{name: "hybrid", path: p + "/hybrid", body: gHybrid},
			{name: "hybrid missing leg", path: p + "/hybrid", body: `{}`},
			{name: "other collection unaffected", path: "/v1/collections/docs/upsert", body: gUpsert},
		}
	}},
}

// runGolden plays every fixture and returns the rows in table order.
func runGolden(t *testing.T) []goldenRow {
	var rows []goldenRow
	for _, fx := range goldenFixtures {
		s, mask, reqs := fx.build(t)
		seen := map[string]bool{}
		for _, q := range reqs {
			if seen[q.name] {
				t.Fatalf("fixture %s: two rows named %q", fx.name, q.name)
			}
			seen[q.name] = true
			rows = append(rows, goldenRow{
				Fixture: fx.name, Name: q.name, Method: q.verb(), Path: q.path, Body: q.body,
				goldenOutcome: goldenDo(s, mask, q),
			})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Drain(ctx)
		cancel()
	}
	return rows
}

func readGolden(t *testing.T) []goldenRow {
	t.Helper()
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (capture it on the parent commit with -capture-golden)", err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func writeGolden(t *testing.T, rows []goldenRow) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenRequests(t *testing.T) {
	got := runGolden(t)
	if *captureGolden {
		writeGolden(t, got)
		t.Logf("captured %d rows", len(got))
		return
	}
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("the table has %d rows, %s has %d: capture again on the parent", len(got), goldenFile, len(want))
	}
	if *captureGoldenAfter {
		for i := range want {
			if reflect.DeepEqual(got[i].goldenOutcome, want[i].goldenOutcome) {
				want[i].After, want[i].Why = nil, ""
				continue
			}
			o := got[i].goldenOutcome
			want[i].After = &o
			if want[i].Why == "" {
				want[i].Why = "TODO"
			}
		}
		writeGolden(t, want)
		return
	}
	changed := 0
	for i, w := range want {
		g := got[i]
		id := w.Fixture + "/" + w.Name
		if g.Fixture != w.Fixture || g.Name != w.Name || g.Method != w.Method || g.Path != w.Path || g.Body != w.Body {
			t.Fatalf("row %d is %s/%s here and %s in %s: capture again on the parent", i, g.Fixture, g.Name, id, goldenFile)
		}
		expect := w.goldenOutcome
		if w.After != nil && !*goldenParent {
			if w.Why == "" || w.Why == "TODO" {
				t.Errorf("%s: changed row without a reason", id)
			}
			expect = *w.After
			changed++
		}
		if !reflect.DeepEqual(g.goldenOutcome, expect) {
			gb, _ := json.Marshal(g.goldenOutcome)
			eb, _ := json.Marshal(expect)
			t.Errorf("%s (%s %s %s)\n got %s\nwant %s", id, w.Method, w.Path, w.Body, gb, eb)
		}
	}
	t.Logf("%d rows, %d of them answered differently since the capture", len(want), changed)
}
